//! The seven workloads: set-up, one job, and the oracle check of its output.
//!
//! A *rep* builds a fresh PostgreSQL-profile `Database` from the seeded
//! input (timed as `setup_s`), runs the job once (timed as `fixpoint_s`),
//! and compares the job's output with `workloads::oracle`. Nothing here
//! panics on a wrong or failed job: the rep comes back marked failed, so
//! the other metrics of the run still print.

use crate::inputs::{self, GraphInput, OltpInput, Op, Scale};
use crate::span::{SpanDriver, SpanSink};
use dbcp::{Connection, Driver, LocalDriver, PreparedStatement, Server, TcpDriver};
use graphgen::NodeId;
use sqldb::{Database, EngineProfile, QueryResult, StmtOutput, Value};
use sqloop::{ExecutionMode, PrioritySpec, SQLoop, SqloopConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use workloads::{oracle, queries, ScriptMode};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Query {
    PageRank,
    Sssp,
    Descendants,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    Sqloop {
        query: Query,
        mode: ExecutionMode,
        threads: usize,
        partitions: usize,
        tcp: bool,
    },
    PageRankScript,
    Oltp,
}

impl Job {
    /// The graph query a job runs and whether it goes over TCP; `None` for
    /// the one job that has no graph.
    fn graph(&self) -> Option<(Query, bool)> {
        match *self {
            Job::Sqloop { query, tcp, .. } => Some((query, tcp)),
            Job::PageRankScript => Some((Query::PageRank, false)),
            Job::Oltp => None,
        }
    }
}

fn job_named(name: &str) -> Option<Job> {
    let sqloop = |query, mode, threads, partitions, tcp| Job::Sqloop {
        query,
        mode,
        threads,
        partitions,
        tcp,
    };
    Some(match name {
        "pr_sync" => sqloop(Query::PageRank, ExecutionMode::Sync, 2, 16, false),
        "pr_sync_1t" => sqloop(Query::PageRank, ExecutionMode::Sync, 1, 16, false),
        "pr_script" => Job::PageRankScript,
        "sssp_asyncp" => sqloop(Query::Sssp, ExecutionMode::AsyncPrio, 1, 16, false),
        "sssp_single" => sqloop(Query::Sssp, ExecutionMode::Single, 1, 16, false),
        "dq_async_tcp" => sqloop(Query::Descendants, ExecutionMode::Async, 2, 32, true),
        "oltp_wire" => Job::Oltp,
        _ => return None,
    })
}

/// What the job's output must equal.
enum Expect {
    /// `(node, value)` rows: every node present, each value within `tol`
    /// (an absent node's value must be infinite).
    PerNode {
        values: HashMap<NodeId, f64>,
        nodes: usize,
        tol: f64,
    },
    Hops(u64),
    Oltp {
        sum: f64,
        inserts: i64,
    },
}

/// A workload bound to a scale and a seed, with its oracle answer computed
/// once, outside every timed region.
pub struct Prepared {
    job: Job,
    scale: Scale,
    seed: u64,
    expect: Expect,
}

/// Counts the layers report about one job, read from their public reports.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub rounds: u64,
    pub computes: u64,
    pub gathers: u64,
    pub messages: u64,
    pub worker_busy_s: f64,
    pub engine: sqldb::StatsSnapshot,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub fixpoint_s: f64,
    pub peak_mem_mb: f64,
    /// Jobs (or, for `oltp_wire`, ops plus the final state check).
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
}

/// Engine counters when a job starts; [`EngineBefore::delta_into`] turns
/// them into the job's own counts.
struct EngineBefore {
    stats: sqldb::StatsSnapshot,
    plans: sqldb::PlanCacheStats,
}

impl EngineBefore {
    fn of(db: &Database) -> EngineBefore {
        EngineBefore {
            stats: db.stats(),
            plans: db.plan_cache_stats(),
        }
    }

    fn delta_into(&self, db: &Database, layers: &mut Layers) {
        let plans = db.plan_cache_stats();
        layers.engine = db.stats().delta_since(&self.stats);
        layers.plan_hits = plans.hits - self.plans.hits;
        layers.plan_misses = plans.misses - self.plans.misses;
    }
}

struct Env {
    db: Database,
    driver: Arc<dyn Driver>,
    /// Dropped (and with that drained) after every connection of the rep.
    _server: Option<Server>,
}

fn env(tcp: bool) -> Result<Env, String> {
    let db = Database::new(EngineProfile::Postgres);
    if tcp {
        let server = Server::bind(db.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let driver = TcpDriver::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
        Ok(Env {
            db,
            driver: Arc::new(driver),
            _server: Some(server),
        })
    } else {
        Ok(Env {
            driver: Arc::new(LocalDriver::new(db.clone())),
            db,
            _server: None,
        })
    }
}

fn graph_input(query: Query, scale: &Scale, seed: u64) -> GraphInput {
    match query {
        Query::PageRank => inputs::pagerank_graph(scale, seed),
        Query::Sssp => inputs::sssp_graph(scale, seed),
        Query::Descendants => inputs::dq_graph(scale, seed),
    }
}

fn query_text(query: Query, scale: &Scale, input: &GraphInput) -> String {
    match query {
        Query::PageRank => queries::pagerank(scale.pr_iterations),
        Query::Sssp => queries::sssp_all(input.source),
        Query::Descendants => {
            let (target, _) = input.target.expect("dq_graph always picks a target");
            queries::descendant_clicks(input.source, target)
        }
    }
}

impl Prepared {
    pub fn new(workload: &str, scale: Scale, seed: u64) -> Option<Prepared> {
        let job = job_named(workload)?;
        let per_node =
            |values: HashMap<NodeId, f64>, nodes, tol| Expect::PerNode { values, nodes, tol };
        let expect = match job.graph() {
            Some((query, _)) => {
                let input = graph_input(query, &scale, seed);
                let nodes = input.graph.node_count();
                match query {
                    Query::PageRank => per_node(
                        oracle::pagerank(&input.graph, scale.pr_iterations),
                        nodes,
                        1e-6,
                    ),
                    Query::Sssp => per_node(oracle::sssp(&input.graph, input.source), nodes, 1e-9),
                    Query::Descendants => {
                        let (target, _) = input.target.expect("dq_graph always picks a target");
                        Expect::Hops(input.graph.bfs_hops(input.source)[&target])
                    }
                }
            }
            None => {
                let (sum, inserts) = inputs::oltp_input(&scale, seed).expected();
                Expect::Oltp { sum, inserts }
            }
        };
        Some(Prepared {
            job,
            scale,
            seed,
            expect,
        })
    }

    /// Runs one rep; with a sink, the job's connections record spans.
    pub fn rep(&self, sink: Option<&Arc<SpanSink>>) -> Result<Rep, String> {
        match self.job.graph() {
            Some((query, tcp)) => self.graph_rep(query, tcp, sink),
            None => self.oltp_rep(sink),
        }
    }

    fn graph_rep(
        &self,
        query: Query,
        tcp: bool,
        sink: Option<&Arc<SpanSink>>,
    ) -> Result<Rep, String> {
        let setup = Instant::now();
        let input = graph_input(query, &self.scale, self.seed);
        let env = env(tcp)?;
        {
            let mut conn = env.driver.connect().map_err(|e| e.to_string())?;
            workloads::load_edges(conn.as_mut(), &input.graph).map_err(|e| e.to_string())?;
        }
        let setup_s = setup.elapsed().as_secs_f64();

        let driver = traced(&env.driver, sink);
        let before = EngineBefore::of(&env.db);
        let run = || -> Result<(QueryResult, Layers), String> {
            match self.job {
                Job::Sqloop {
                    mode,
                    threads,
                    partitions,
                    ..
                } => {
                    let config = SqloopConfig {
                        mode,
                        threads,
                        partitions,
                        priority: (mode == ExecutionMode::AsyncPrio)
                            .then(|| PrioritySpec::lowest("SELECT MIN(delta) FROM {}")),
                        // tracing, sampling and checkpointing off, whatever
                        // SQLOOP_TRACE says
                        trace: Default::default(),
                        ..Default::default()
                    };
                    let report = SQLoop::new(driver.clone())
                        .with_config(config)
                        .execute_detailed(&query_text(query, &self.scale, &input))
                        .map_err(|e| e.to_string())?;
                    let layers = Layers {
                        rounds: report.iterations,
                        computes: report.computes,
                        gathers: report.gathers,
                        messages: report.messages,
                        worker_busy_s: report.worker_busy.as_secs_f64(),
                        ..Layers::default()
                    };
                    Ok((report.result, layers))
                }
                _ => {
                    let mut conn = driver.connect().map_err(|e| e.to_string())?;
                    let out = workloads::run_script(
                        conn.as_mut(),
                        &workloads::pagerank_script(),
                        ScriptMode::FixedIterations(self.scale.pr_iterations),
                    )
                    .map_err(|e| e.to_string())?;
                    Ok((out.result, Layers::default()))
                }
            }
        };
        let (outcome, fixpoint_s) = timed(sink, run);
        let (failed, mut layers) = match outcome.and_then(|(rows, layers)| {
            self.check_rows(&rows)?;
            Ok(layers)
        }) {
            Ok(layers) => (0, layers),
            Err(why) => {
                eprintln!("job failed: {why}");
                (1, Layers::default())
            }
        };
        before.delta_into(&env.db, &mut layers);
        Ok(Rep {
            setup_s,
            fixpoint_s,
            peak_mem_mb: env.db.memory_peak() as f64 / 1e6,
            attempted: 1,
            failed,
            layers,
        })
    }

    fn check_rows(&self, rows: &QueryResult) -> Result<(), String> {
        match &self.expect {
            Expect::PerNode { values, nodes, tol } => {
                if rows.rows.len() != *nodes {
                    return Err(format!("{} rows for {nodes} nodes", rows.rows.len()));
                }
                for row in &rows.rows {
                    let node = row[0].as_i64().ok_or("node id is not an integer")? as NodeId;
                    let got = row[1].as_f64().ok_or("value is not a number")?;
                    let ok = match values.get(&node) {
                        Some(want) => (got - want).abs() <= *tol,
                        None => got.is_infinite(),
                    };
                    if !ok {
                        return Err(format!(
                            "node {node}: got {got}, oracle {:?}",
                            values.get(&node)
                        ));
                    }
                }
                Ok(())
            }
            Expect::Hops(want) => match rows.scalar().and_then(Value::as_f64) {
                Some(got) if got == *want as f64 => Ok(()),
                got => Err(format!("hops: got {got:?}, bfs says {want}")),
            },
            Expect::Oltp { .. } => Err("oltp_wire has no row output".into()),
        }
    }

    fn oltp_rep(&self, sink: Option<&Arc<SpanSink>>) -> Result<Rep, String> {
        let setup = Instant::now();
        let input = inputs::oltp_input(&self.scale, self.seed);
        let env = env(true)?;
        let mut admin = env.driver.connect().map_err(|e| e.to_string())?;
        fill_accounts(admin.as_mut(), &input).map_err(|e| e.to_string())?;
        let driver = traced(&env.driver, sink);
        let mut conns = Vec::new();
        for _ in &input.clients {
            conns.push(driver.connect().map_err(|e| e.to_string())?);
        }
        let setup_s = setup.elapsed().as_secs_f64();

        let before = EngineBefore::of(&env.db);
        let (failed_ops, fixpoint_s) = timed(sink, || {
            std::thread::scope(|scope| {
                let clients: Vec<_> = conns
                    .iter_mut()
                    .zip(&input.clients)
                    .map(|(conn, ops)| scope.spawn(move || run_client(conn.as_mut(), ops)))
                    .collect();
                // a client that panicked failed all of its ops
                clients
                    .into_iter()
                    .zip(&input.clients)
                    .map(|(c, ops)| c.join().unwrap_or(ops.len() as u64))
                    .sum::<u64>()
            })
        });
        let mut layers = Layers::default();
        before.delta_into(&env.db, &mut layers);
        drop(conns);

        let ops: u64 = input.clients.iter().map(|c| c.len() as u64).sum();
        let state_ok = match self.expect {
            Expect::Oltp { sum, inserts } => {
                let scalar = |conn: &mut dyn Connection, sql: &str| {
                    conn.query(sql).ok().and_then(|r| r.scalar().cloned())
                };
                let got_sum = scalar(admin.as_mut(), "SELECT SUM(balance) FROM accounts");
                let got_rows = scalar(admin.as_mut(), "SELECT COUNT(*) FROM ledger");
                let ok = got_sum.as_ref().and_then(Value::as_f64) == Some(sum)
                    && got_rows.as_ref().and_then(Value::as_i64) == Some(inserts);
                if !ok {
                    eprintln!("oltp_wire: sum {got_sum:?} (want {sum}), ledger rows {got_rows:?} (want {inserts})");
                }
                ok
            }
            _ => false,
        };
        drop(admin);
        Ok(Rep {
            setup_s,
            fixpoint_s,
            peak_mem_mb: env.db.memory_peak() as f64 / 1e6,
            attempted: ops + 1,
            failed: failed_ops + u64::from(!state_ok),
            layers,
        })
    }
}

fn traced(driver: &Arc<dyn Driver>, sink: Option<&Arc<SpanSink>>) -> Arc<dyn Driver> {
    match sink {
        Some(sink) => Arc::new(SpanDriver::new(driver.clone(), sink.clone())),
        None => driver.clone(),
    }
}

/// Times `job`, as the sink's root span when there is one.
fn timed<T>(sink: Option<&Arc<SpanSink>>, job: impl FnOnce() -> T) -> (T, f64) {
    match sink {
        Some(sink) => {
            let (out, took) = sink.root(job);
            (out, took.as_secs_f64())
        }
        None => {
            let start = Instant::now();
            let out = job();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

const ACCOUNTS_DDL: &str = "CREATE TABLE accounts (id INT PRIMARY KEY, owner INT, balance FLOAT)";
const LEDGER_DDL: &str = "CREATE TABLE ledger (seq INT, acct INT, amount FLOAT)";
pub const POINT_SELECT: &str = "SELECT balance FROM accounts WHERE id = ?";
pub const POINT_UPDATE: &str = "UPDATE accounts SET balance = balance + ? WHERE id = ?";
pub const POINT_INSERT: &str = "INSERT INTO ledger VALUES (?, ?, ?)";

pub fn fill_accounts(conn: &mut dyn Connection, input: &OltpInput) -> sqldb::DbResult<()> {
    conn.execute(ACCOUNTS_DDL)?;
    conn.execute(LEDGER_DDL)?;
    for chunk in input.accounts.chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|(id, owner, balance)| format!("({id}, {owner}, {balance})"))
            .collect();
        conn.execute(&format!(
            "INSERT INTO accounts VALUES {}",
            values.join(", ")
        ))?;
    }
    Ok(())
}

/// One closed-loop client: each op waits for its reply. Returns how many
/// ops errored or touched the wrong number of rows.
fn run_client(conn: &mut dyn Connection, ops: &[Op]) -> u64 {
    let mut select = PreparedStatement::new(POINT_SELECT);
    let mut update = PreparedStatement::new(POINT_UPDATE);
    let mut insert = PreparedStatement::new(POINT_INSERT);
    let mut failed = 0;
    for op in ops {
        let ok = match *op {
            Op::Select { id } => matches!(
                select.execute(conn, &[Value::Int(id)]),
                Ok(StmtOutput::Rows(r)) if r.rows.len() == 1
            ),
            Op::Update { id, amount } => matches!(
                update.execute(conn, &[Value::Float(amount), Value::Int(id)]),
                Ok(StmtOutput::Affected(1))
            ),
            Op::Insert { seq, acct, amount } => matches!(
                insert.execute(
                    conn,
                    &[Value::Int(seq), Value::Int(acct), Value::Float(amount)]
                ),
                Ok(StmtOutput::Affected(1))
            ),
        };
        if !ok && failed == 0 {
            eprintln!("oltp_wire: first failed op of this client: {op:?}");
        }
        failed += u64::from(!ok);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_workload_reaches_its_oracle_at_smoke_scale() {
        for w in WORKLOADS {
            let prepared = Prepared::new(w.name, Scale::SMOKE, 11).expect(w.name);
            let rep = prepared.rep(None).expect(w.name);
            assert_eq!(rep.failed, 0, "{}", w.name);
            assert!(rep.attempted >= 1 && rep.fixpoint_s > 0.0 && rep.peak_mem_mb > 0.0);
            assert!(rep.layers.engine.statements > 0, "{}", w.name);
        }
        assert!(Prepared::new("nope", Scale::SMOKE, 1).is_none());
    }

    #[test]
    fn a_wrong_answer_is_a_failed_rep_not_a_panic() {
        let mut prepared = Prepared::new("sssp_single", Scale::SMOKE, 11).unwrap();
        if let Expect::PerNode { values, .. } = &mut prepared.expect {
            *values.values_mut().next().unwrap() += 1.0;
        }
        let rep = prepared.rep(None).unwrap();
        assert_eq!((rep.attempted, rep.failed), (1, 1));
    }

    #[test]
    fn tracer_sees_the_statements_of_a_tiny_sync_run() {
        let prepared = Prepared::new("pr_sync", Scale::SMOKE, 5).unwrap();
        let sink = SpanSink::new();
        let rep = prepared.rep(Some(&sink)).unwrap();
        assert_eq!(rep.failed, 0);
        let summary = sink.finish().summary();
        let coverage = summary.statements as f64 / rep.layers.engine.statements as f64;
        assert!((0.99..=1.0).contains(&coverage), "coverage {coverage}");
        assert!(summary.self_s > 0.0 && summary.self_s < summary.root_s);
        assert!(summary.overlap >= 1.0 && summary.overlap <= 2.0 + 1e-9);
        assert_eq!(summary.pipelines, rep.layers.computes + rep.layers.gathers);
    }
}
