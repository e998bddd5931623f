//! Spans at the dbcp boundary, recorded from outside the program.
//!
//! [`SpanDriver`] wraps any [`Driver`] the way `dbcp::ChaosDriver` does and
//! hands out [`SpanConnection`]s that forward every call unchanged and keep
//! one in-memory [`Span`] per call. The job's root span is set by the
//! caller; everything between root and calls is the caller's own time
//! (for SQLoop jobs: parse, analysis, task build, queueing, barriers).

use dbcp::wire::MetricsCmd;
use dbcp::{Connection, Driver, PipelineOutcome, PipelineStep};
use sqldb::{DbResult, EngineProfile, IsolationLevel, StmtOutput, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Statement class, by leading keyword only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Select,
    InsertSelect,
    InsertValues,
    Update,
    Delete,
    Ddl,
    /// Session control: begin/commit/rollback, isolation, timeouts,
    /// prepare/close, metrics commands.
    Txn,
    /// A batch of more than one statement (in SQLoop: a Compute task).
    Pipeline,
    Connect,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::Select,
        Class::InsertSelect,
        Class::InsertValues,
        Class::Update,
        Class::Delete,
        Class::Ddl,
        Class::Txn,
        Class::Pipeline,
        Class::Connect,
    ];

    /// The per-layer metric holding this class's share of call time.
    pub fn share_metric(self) -> &'static str {
        match self {
            Class::Select => "dbcp.share.select",
            Class::InsertSelect => "dbcp.share.insert_select",
            Class::InsertValues => "dbcp.share.insert_values",
            Class::Update => "dbcp.share.update",
            Class::Delete => "dbcp.share.delete",
            Class::Ddl => "dbcp.share.ddl",
            Class::Txn => "dbcp.share.txn",
            Class::Pipeline => "dbcp.share.pipeline",
            Class::Connect => "dbcp.share.connect",
        }
    }

    pub fn name(self) -> &'static str {
        &self.share_metric()["dbcp.share.".len()..]
    }
}

/// Classifies SQL text by its first keyword (and, for `INSERT`, by whether
/// `VALUES` or `SELECT` comes first after it).
pub fn classify(sql: &str) -> Class {
    let mut words = sql
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase);
    match words.next().as_deref() {
        Some("select" | "with" | "explain" | "show") => Class::Select,
        Some("insert") => match words.find(|w| w == "values" || w == "select").as_deref() {
            Some("select") => Class::InsertSelect,
            _ => Class::InsertValues,
        },
        Some("update") => Class::Update,
        Some("delete") => Class::Delete,
        Some("begin" | "commit" | "rollback" | "set" | "start") => Class::Txn,
        _ => Class::Ddl,
    }
}

/// One call through the dbcp boundary. Times are nanoseconds since the
/// sink was created; the parent of every span is the job's root span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub call: &'static str,
    pub class: Class,
    pub conn: u32,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Statements carried by the call (pipeline or batch length, else 1;
    /// 0 for calls that carry none).
    pub statements: u32,
    pub ok: bool,
}

/// Collects the spans of one traced job.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    root: Mutex<(u64, u64)>,
    next_conn: AtomicU32,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_INDEX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl SpanSink {
    pub fn new() -> Arc<SpanSink> {
        Arc::new(SpanSink {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            root: Mutex::new((0, 0)),
            next_conn: AtomicU32::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `job` as the root span and returns its output and duration.
    pub fn root<T>(&self, job: impl FnOnce() -> T) -> (T, Duration) {
        let start = self.now_ns();
        let out = job();
        let end = self.now_ns();
        *self.root.lock().expect("root lock: no panics while held") = (start, end);
        (out, Duration::from_nanos(end - start))
    }

    fn extend(&self, spans: &mut Vec<Span>) {
        self.spans
            .lock()
            .expect("span lock: no panics while held")
            .append(spans);
    }

    /// The root interval and every span that started inside it, by start.
    pub fn finish(&self) -> Trace {
        let (start, end) = *self.root.lock().expect("root lock: no panics while held");
        let mut spans: Vec<Span> = self
            .spans
            .lock()
            .expect("span lock: no panics while held")
            .iter()
            .filter(|s| s.start_ns >= start && s.start_ns <= end)
            .copied()
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.conn));
        Trace {
            root_ns: (start, end),
            spans,
        }
    }
}

/// A finished trace: the root interval and its child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub root_ns: (u64, u64),
    pub spans: Vec<Span>,
}

/// Total length of the union of `intervals`, each clipped to `within`.
pub fn union_ns(intervals: impl Iterator<Item = (u64, u64)>, within: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Sorted-sample percentile (nearest rank); 0 for an empty sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one trace says about the layers above and at the dbcp boundary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    pub root_s: f64,
    /// Root time with no call in flight.
    pub self_s: f64,
    /// Sum of call time over its union: effective parallelism.
    pub overlap: f64,
    pub calls: u64,
    pub statements: u64,
    pub pipelines: u64,
    pub pipeline_statements: u64,
    pub connects: u64,
    pub call_s: f64,
    pub call_p50_us: f64,
    pub call_p95_us: f64,
    pub call_p99_us: f64,
    /// Share of `call_s` per class, in [`Class::ALL`] order.
    pub shares: [f64; 9],
}

impl Trace {
    pub fn summary(&self) -> TraceSummary {
        let root = self.root_ns;
        let clip = |s: &Span| s.end_ns.min(root.1).saturating_sub(s.start_ns.max(root.0));
        let union = union_ns(self.spans.iter().map(|s| (s.start_ns, s.end_ns)), root);
        let call_ns: u64 = self.spans.iter().map(clip).sum();
        let mut by_class: HashMap<Class, u64> = HashMap::new();
        for s in &self.spans {
            *by_class.entry(s.class).or_default() += clip(s);
        }
        // latency of the calls that carry statements: connects and session
        // control would otherwise swamp the percentiles of short jobs
        let mut latencies: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.statements > 0)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        latencies.sort_unstable();
        let pipelines: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.call == "run_pipeline")
            .collect();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut shares = [0.0; 9];
        for (slot, class) in shares.iter_mut().zip(Class::ALL) {
            *slot = ratio(by_class.get(&class).copied().unwrap_or(0), call_ns);
        }
        TraceSummary {
            root_s: (root.1 - root.0) as f64 / 1e9,
            self_s: (root.1 - root.0).saturating_sub(union) as f64 / 1e9,
            overlap: ratio(call_ns, union),
            calls: latencies.len() as u64,
            statements: self.spans.iter().map(|s| u64::from(s.statements)).sum(),
            pipelines: pipelines.len() as u64,
            pipeline_statements: pipelines.iter().map(|s| u64::from(s.statements)).sum(),
            connects: self
                .spans
                .iter()
                .filter(|s| s.class == Class::Connect)
                .count() as u64,
            call_s: call_ns as f64 / 1e9,
            call_p50_us: percentile(&latencies, 0.50) as f64 / 1e3,
            call_p95_us: percentile(&latencies, 0.95) as f64 / 1e3,
            call_p99_us: percentile(&latencies, 0.99) as f64 / 1e3,
            shares,
        }
    }

    /// The trace file: one object with the root interval and a span array.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"root\": {{\"id\": 0, \"name\": \"job\", \"start_ns\": {}, \"end_ns\": {}}},\n \"spans\": [\n",
            self.root_ns.0, self.root_ns.1
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": 0, \"call\": \"{}\", \"class\": \"{}\", \"conn\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"statements\": {}, \"ok\": {}}}{sep}\n",
                i + 1, s.call, s.class.name(), s.conn, s.thread, s.start_ns, s.end_ns, s.statements, s.ok
            ));
        }
        out.push_str(" ]}\n");
        out
    }
}

/// A driver whose connections record spans into a [`SpanSink`].
pub struct SpanDriver {
    inner: Arc<dyn Driver>,
    sink: Arc<SpanSink>,
}

impl SpanDriver {
    pub fn new(inner: Arc<dyn Driver>, sink: Arc<SpanSink>) -> SpanDriver {
        SpanDriver { inner, sink }
    }
}

impl Driver for SpanDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        let mut conn = SpanConnection {
            inner: None,
            sink: self.sink.clone(),
            conn: self.sink.next_conn.fetch_add(1, Ordering::Relaxed),
            buffer: Vec::new(),
            prepared: HashMap::new(),
        };
        let inner = conn.record("connect", Class::Connect, 0, |_| self.inner.connect())?;
        conn.inner = Some(inner);
        Ok(Box::new(conn))
    }

    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn engine_stats(&self) -> Option<sqldb::StatsSnapshot> {
        self.inner.engine_stats()
    }

    fn set_memory_limit(&self, limit: Option<u64>) -> bool {
        self.inner.set_memory_limit(limit)
    }

    fn memory_used(&self) -> Option<u64> {
        self.inner.memory_used()
    }

    fn plan_cache_stats(&self) -> Option<sqldb::PlanCacheStats> {
        self.inner.plan_cache_stats()
    }

    fn digest_stats(&self) -> Option<Vec<sqldb::DigestEntry>> {
        self.inner.digest_stats()
    }

    fn digest_top_misses(&self, k: usize) -> Option<Vec<sqldb::DigestEntry>> {
        self.inner.digest_top_misses(k)
    }

    fn set_profiling(&self, on: bool) -> bool {
        self.inner.set_profiling(on)
    }
}

/// A connection that forwards every call and keeps a span for each. Spans
/// are buffered per connection and reach the sink when it is dropped, so
/// recording takes no shared lock on the measured path.
pub struct SpanConnection {
    /// `None` only while the connect span itself is being recorded.
    inner: Option<Box<dyn Connection>>,
    sink: Arc<SpanSink>,
    conn: u32,
    buffer: Vec<Span>,
    /// Class of each prepared statement, by id.
    prepared: HashMap<u64, Class>,
}

impl SpanConnection {
    fn record<T>(
        &mut self,
        call: &'static str,
        class: Class,
        statements: usize,
        f: impl FnOnce(&mut SpanConnection) -> DbResult<T>,
    ) -> DbResult<T> {
        let start_ns = self.sink.now_ns();
        let out = f(self);
        self.buffer.push(Span {
            call,
            class,
            conn: self.conn,
            thread: THREAD_INDEX.with(|t| *t),
            start_ns,
            end_ns: self.sink.now_ns(),
            statements: statements as u32,
            ok: out.is_ok(),
        });
        out
    }

    fn inner(&mut self) -> &mut dyn Connection {
        self.inner
            .as_deref_mut()
            .expect("SpanDriver::connect sets the inner connection before handing this out")
    }
}

impl Drop for SpanConnection {
    fn drop(&mut self) {
        self.sink.extend(&mut self.buffer);
    }
}

fn step_class(step: &PipelineStep, prepared: &HashMap<u64, Class>) -> Class {
    match step {
        PipelineStep::Execute(sql) => classify(sql),
        PipelineStep::Prepared { stmt_id, .. } => {
            prepared.get(stmt_id).copied().unwrap_or(Class::Txn)
        }
    }
}

impl Connection for SpanConnection {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.record("execute", classify(sql), 1, |c| c.inner().execute(sql))
    }

    fn execute_batch(&mut self, statements: &[String]) -> DbResult<Vec<StmtOutput>> {
        let class = match statements {
            [one] => classify(one),
            _ => Class::Pipeline,
        };
        self.record("execute_batch", class, statements.len(), |c| {
            c.inner().execute_batch(statements)
        })
    }

    fn begin(&mut self) -> DbResult<()> {
        self.record("begin", Class::Txn, 0, |c| c.inner().begin())
    }

    fn commit(&mut self) -> DbResult<()> {
        self.record("commit", Class::Txn, 0, |c| c.inner().commit())
    }

    fn rollback(&mut self) -> DbResult<()> {
        self.record("rollback", Class::Txn, 0, |c| c.inner().rollback())
    }

    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()> {
        self.record("set_isolation", Class::Txn, 0, |c| {
            c.inner().set_isolation(level)
        })
    }

    fn ping(&mut self) -> bool {
        self.record("ping", Class::Txn, 0, |c| Ok(c.inner().ping()))
            .unwrap_or(false)
    }

    fn set_statement_timeout(&mut self, timeout: Option<Duration>) -> DbResult<bool> {
        self.record("set_statement_timeout", Class::Txn, 0, |c| {
            c.inner().set_statement_timeout(timeout)
        })
    }

    fn prepare_statement(&mut self, sql: &str) -> DbResult<(u64, usize)> {
        let class = classify(sql);
        let out = self.record("prepare_statement", Class::Txn, 0, |c| {
            c.inner().prepare_statement(sql)
        })?;
        self.prepared.insert(out.0, class);
        Ok(out)
    }

    fn execute_prepared(&mut self, stmt_id: u64, params: &[Value]) -> DbResult<StmtOutput> {
        let class = self.prepared.get(&stmt_id).copied().unwrap_or(Class::Txn);
        self.record("execute_prepared", class, 1, |c| {
            c.inner().execute_prepared(stmt_id, params)
        })
    }

    fn close_prepared(&mut self, stmt_id: u64) -> DbResult<()> {
        self.prepared.remove(&stmt_id);
        self.record("close_prepared", Class::Txn, 0, |c| {
            c.inner().close_prepared(stmt_id)
        })
    }

    fn prepared_epoch(&self) -> u64 {
        self.inner.as_deref().map_or(0, |c| c.prepared_epoch())
    }

    fn run_pipeline(&mut self, steps: &[PipelineStep]) -> DbResult<PipelineOutcome> {
        let class = match steps {
            [one] => step_class(one, &self.prepared),
            _ => Class::Pipeline,
        };
        self.record("run_pipeline", class, steps.len(), |c| {
            c.inner().run_pipeline(steps)
        })
    }

    fn metrics(&mut self, cmd: &MetricsCmd) -> DbResult<StmtOutput> {
        self.record("metrics", Class::Txn, 0, |c| c.inner().metrics(cmd))
    }

    fn profile(&self) -> EngineProfile {
        self.inner
            .as_deref()
            .expect("SpanDriver::connect sets the inner connection before handing this out")
            .profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcp::LocalDriver;
    use sqldb::Database;

    #[test]
    fn classifier_knows_one_sample_of_each_class() {
        let samples = [
            ("SELECT a FROM t WHERE a = 1", Class::Select),
            ("  select 1", Class::Select),
            ("INSERT INTO m SELECT src FROM edges", Class::InsertSelect),
            ("INSERT INTO t (a, b) VALUES (1, 2)", Class::InsertValues),
            ("insert into t values (1, 'select')", Class::InsertValues),
            ("UPDATE t SET a = m.a FROM m WHERE t.k = m.k", Class::Update),
            ("DELETE FROM t", Class::Delete),
            ("CREATE TABLE t (a INT)", Class::Ddl),
            ("DROP TABLE IF EXISTS t", Class::Ddl),
            ("CREATE INDEX i ON t (a)", Class::Ddl),
            ("BEGIN", Class::Txn),
            ("COMMIT", Class::Txn),
        ];
        for (sql, class) in samples {
            assert_eq!(classify(sql), class, "{sql}");
        }
    }

    fn span(class: Class, start_ns: u64, end_ns: u64) -> Span {
        Span {
            call: "execute",
            class,
            conn: 0,
            thread: 0,
            start_ns,
            end_ns,
            statements: 1,
            ok: true,
        }
    }

    #[test]
    fn union_self_time_and_overlap_on_hand_built_intervals() {
        let within = (0, 1_000);
        assert_eq!(union_ns([].into_iter(), within), 0);
        assert_eq!(union_ns([(10, 20), (30, 50)].into_iter(), within), 30);
        assert_eq!(
            union_ns([(10, 40), (30, 50), (50, 60)].into_iter(), within),
            50
        );
        assert_eq!(union_ns([(10, 100), (20, 30)].into_iter(), within), 90);
        // clipping: before, across and after the root
        assert_eq!(union_ns([(0, 10), (90, 200)].into_iter(), (5, 100)), 15);

        // root 0..1000; two workers overlap on 200..400
        let trace = Trace {
            root_ns: (0, 1_000),
            spans: vec![
                span(Class::Select, 100, 400),
                span(Class::Update, 200, 500),
                span(Class::Select, 700, 800),
            ],
        };
        let s = trace.summary();
        assert_eq!(s.self_s, 500.0 / 1e9);
        assert_eq!(s.call_s, 700.0 / 1e9);
        assert!((s.overlap - 700.0 / 500.0).abs() < 1e-12);
        assert_eq!(
            (s.calls, s.statements, s.pipelines, s.connects),
            (3, 3, 0, 0)
        );
        assert_eq!(s.call_p50_us, 0.3);
        assert_eq!(s.call_p99_us, 0.3);
        let share = |c: Class| s.shares[Class::ALL.iter().position(|x| *x == c).unwrap()];
        assert!((share(Class::Select) - 400.0 / 700.0).abs() < 1e-12);
        assert!((share(Class::Update) - 300.0 / 700.0).abs() < 1e-12);
        assert!((s.shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // self time plus the union of calls is the whole root
        assert!((s.self_s + s.call_s / s.overlap - s.root_s).abs() < 1e-15);
    }

    /// Every `Connection` method, on a bare connection and through the
    /// decorator: same outputs, and one span per call.
    #[test]
    fn span_connection_forwards_every_method_unchanged() {
        fn drive(conn: &mut dyn Connection) -> Vec<String> {
            let mut log = Vec::new();
            let mut push = |what: &str, out: String| log.push(format!("{what}: {out}"));
            push(
                "ddl",
                format!("{:?}", conn.execute(workloads::queries::EDGES_DDL)),
            );
            let rows: Vec<String> = graphgen::chain(20)
                .weighted_edges()
                .iter()
                .map(|(s, d, w)| format!("INSERT INTO edges VALUES ({s}, {d}, {w})"))
                .collect();
            push("batch", format!("{:?}", conn.execute_batch(&rows)));
            push(
                "query",
                format!("{:?}", conn.query("SELECT COUNT(*) FROM edges")),
            );
            push("begin", format!("{:?}", conn.begin()));
            push(
                "delete",
                format!("{:?}", conn.execute("DELETE FROM edges WHERE src < 5")),
            );
            push("rollback", format!("{:?}", conn.rollback()));
            push("begin", format!("{:?}", conn.begin()));
            push(
                "update",
                format!(
                    "{:?}",
                    conn.execute("UPDATE edges SET weight = 2.0 WHERE src = 3")
                ),
            );
            push("commit", format!("{:?}", conn.commit()));
            push(
                "isolation",
                format!("{:?}", conn.set_isolation(IsolationLevel::Serializable)),
            );
            push("timeout", format!("{:?}", conn.set_statement_timeout(None)));
            push("ping", format!("{:?}", conn.ping()));
            let (id, params) = conn
                .prepare_statement("SELECT dst FROM edges WHERE src = ?")
                .expect("prepare");
            push("prepare", format!("{params}"));
            push(
                "prepared",
                format!("{:?}", conn.execute_prepared(id, &[Value::Int(3)])),
            );
            let steps = [
                PipelineStep::Execute("SELECT SUM(weight) FROM edges".into()),
                PipelineStep::Prepared {
                    stmt_id: id,
                    params: vec![Value::Int(7)],
                },
                PipelineStep::Execute("SELECT nope FROM edges".into()),
            ];
            let outcome = conn.run_pipeline(&steps).expect("pipeline");
            push(
                "pipeline",
                format!("{:?} {:?}", outcome.outputs, outcome.error),
            );
            push("close", format!("{:?}", conn.close_prepared(id)));
            push(
                "gone",
                format!("{:?}", conn.execute_prepared(id, &[Value::Int(3)]).is_err()),
            );
            push("epoch", format!("{}", conn.prepared_epoch() > 0));
            push(
                "metrics",
                format!("{:?}", conn.digest_top(1).map(|r| r.columns)),
            );
            push("profile", format!("{:?}", conn.profile()));
            push("error", format!("{:?}", conn.execute("SELECT FROM")));
            log
        }

        let bare = LocalDriver::new(Database::new(EngineProfile::Postgres));
        let expected = drive(bare.connect().expect("connect").as_mut());

        let sink = SpanSink::new();
        let traced = SpanDriver::new(
            Arc::new(LocalDriver::new(Database::new(EngineProfile::Postgres))),
            sink.clone(),
        );
        assert_eq!(traced.profile(), EngineProfile::Postgres);
        assert!(traced.engine_stats().is_some() && traced.plan_cache_stats().is_some());
        let (got, _) = sink.root(|| drive(traced.connect().expect("connect").as_mut()));
        assert_eq!(got, expected);

        let trace = sink.finish();
        let calls: Vec<&str> = trace.spans.iter().map(|s| s.call).collect();
        assert_eq!(
            calls,
            [
                "connect",
                "execute",
                "execute_batch",
                "execute",
                "begin",
                "execute",
                "rollback",
                "begin",
                "execute",
                "commit",
                "set_isolation",
                "set_statement_timeout",
                "ping",
                "prepare_statement",
                "execute_prepared",
                "run_pipeline",
                "close_prepared",
                "execute_prepared",
                "metrics",
                "execute",
            ]
        );
        let classes: Vec<Class> = trace.spans.iter().map(|s| s.class).collect();
        assert_eq!(classes[1], Class::Ddl);
        assert_eq!(classes[2], Class::Pipeline);
        assert_eq!(
            classes[14],
            Class::Select,
            "prepared statements keep their class"
        );
        assert_eq!(classes[15], Class::Pipeline);
        assert!(!trace.spans[19].ok && trace.spans[15].ok);
        let s = trace.summary();
        assert_eq!(s.connects, 1);
        assert_eq!(s.statements, 1 + 19 + 1 + 1 + 1 + 1 + 3 + 1 + 1);
        assert_eq!((s.pipelines, s.pipeline_statements), (1, 3));
        assert!(trace.to_json("t", 1).contains("\"class\": \"pipeline\""));
    }
}
