//! Server-side evaluation of [`MetricsCmd`] requests.
//!
//! Shared by the TCP server and the in-process [`LocalConnection`]
//! (crate::LocalConnection) so both transports answer a metrics command
//! identically: read commands come back as ordinary result sets, setters
//! as `Done`. The Prometheus dump renders the database's own registry (its
//! server's series among them), its statement-digest table and slow-log
//! state: one scrape endpoint per database.

use crate::wire::MetricsCmd;
use sqldb::{Database, DigestEntry, QueryResult, SlowStatement, StmtOutput, Value};
use std::fmt::Write as _;

/// Digest families embedded as labelled series in the Prometheus dump.
/// Keeps the scrape payload bounded no matter how many statement families
/// the engine has seen; the full table stays reachable via
/// [`MetricsCmd::DigestTop`].
pub const PROMETHEUS_DIGEST_TOP_K: usize = 10;

/// Evaluates one metrics command against `db`. Read commands return
/// [`StmtOutput::Rows`]; setters return [`StmtOutput::Done`]. Infallible:
/// every command is answerable from in-memory state.
pub(crate) fn eval_metrics_cmd(db: &Database, cmd: &MetricsCmd) -> StmtOutput {
    match cmd {
        MetricsCmd::Prometheus => StmtOutput::Rows(QueryResult {
            columns: vec!["metrics".to_string()],
            rows: vec![vec![Value::Text(prometheus_dump(db))]],
        }),
        MetricsCmd::DigestTop(k) => digest_rows(db.digest_stats(), *k as usize),
        MetricsCmd::DigestTopMisses(k) => {
            digest_rows(db.digest_top_misses(*k as usize), *k as usize)
        }
        MetricsCmd::SlowLog => slow_rows(db.slow_log()),
        MetricsCmd::SetProfiling(on) => {
            db.set_profiling(*on);
            StmtOutput::Done
        }
        MetricsCmd::SetSlowLog {
            threshold_us,
            sample_every,
        } => {
            db.set_slow_log(*threshold_us, *sample_every);
            StmtOutput::Done
        }
        MetricsCmd::ResetStats => {
            db.reset_digests();
            db.reset_slow_log();
            StmtOutput::Done
        }
    }
}

/// Column order of the result sets [`MetricsCmd::DigestTop`] and
/// [`MetricsCmd::DigestTopMisses`] return.
pub const DIGEST_COLUMNS: [&str; 10] = [
    "digest",
    "calls",
    "errors",
    "total_us",
    "mean_us",
    "max_us",
    "rows",
    "plan_hits",
    "plan_misses",
    "sample",
];

/// Column order of the result set [`MetricsCmd::SlowLog`] returns.
pub const SLOW_LOG_COLUMNS: [&str; 4] = ["seq", "sql", "elapsed_us", "rows"];

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn digest_rows(entries: Vec<DigestEntry>, k: usize) -> StmtOutput {
    let rows = entries
        .into_iter()
        .take(k)
        .map(|e| {
            vec![
                Value::Text(e.digest.clone()),
                int(e.calls),
                int(e.errors),
                int(e.total_us),
                int(e.mean_us()),
                int(e.max_us),
                int(e.rows),
                int(e.plan_hits),
                int(e.plan_misses),
                Value::Text(e.sample),
            ]
        })
        .collect();
    StmtOutput::Rows(QueryResult {
        columns: DIGEST_COLUMNS.iter().map(|c| (*c).to_string()).collect(),
        rows,
    })
}

fn slow_rows(entries: Vec<SlowStatement>) -> StmtOutput {
    let rows = entries
        .into_iter()
        .map(|s| {
            vec![
                int(s.seq),
                Value::Text(s.sql),
                int(s.elapsed_us),
                int(s.rows),
            ]
        })
        .collect();
    StmtOutput::Rows(QueryResult {
        columns: SLOW_LOG_COLUMNS.iter().map(|c| (*c).to_string()).collect(),
        rows,
    })
}

/// Renders the full Prometheus text scrape for `db`: every series of
/// [`Database::metrics`], then the top [`PROMETHEUS_DIGEST_TOP_K`]
/// statement digests as labelled counter series, then slow-log gauges.
/// The output passes [`obs::validate_prometheus_text`] — metric names are
/// legal, digests are label-escaped, and no series repeats.
pub fn prometheus_dump(db: &Database) -> String {
    let mut out = obs::prometheus_text(&db.metrics());
    let all = db.digest_stats();
    let families = all.len();
    let top: Vec<DigestEntry> = all.into_iter().take(PROMETHEUS_DIGEST_TOP_K).collect();
    // one TYPE line per family, then all of that family's digest series
    type Field = fn(&DigestEntry) -> u64;
    let series: [(&str, Field); 6] = [
        ("calls", |e| e.calls),
        ("errors", |e| e.errors),
        ("time_us", |e| e.total_us),
        ("rows", |e| e.rows),
        ("plan_hits", |e| e.plan_hits),
        ("plan_misses", |e| e.plan_misses),
    ];
    for (name, get) in series {
        if top.is_empty() {
            break;
        }
        let _ = writeln!(out, "# TYPE sqldb_digest_{name}_total counter");
        for e in &top {
            let _ = writeln!(
                out,
                "sqldb_digest_{name}_total{{digest=\"{}\"}} {}",
                obs::prometheus_label_escape(&e.digest),
                get(e)
            );
        }
    }
    let _ = writeln!(out, "# TYPE sqldb_digest_families gauge");
    let _ = writeln!(out, "sqldb_digest_families {families}");
    let (threshold_us, _) = db.slow_log_config();
    let _ = writeln!(out, "# TYPE sqldb_slow_log_threshold_us gauge");
    let _ = writeln!(out, "sqldb_slow_log_threshold_us {threshold_us}");
    let _ = writeln!(out, "# TYPE sqldb_slow_log_over_threshold_total counter");
    let _ = writeln!(
        out,
        "sqldb_slow_log_over_threshold_total {}",
        db.slow_log_over_threshold()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::EngineProfile;

    fn db_with_traffic() -> Database {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")
            .unwrap();
        for id in [1, 2, 1] {
            s.execute(&format!("SELECT v FROM t WHERE id = {id}"))
                .unwrap();
        }
        db
    }

    #[test]
    fn prometheus_dump_validates_with_digest_series() {
        let db = db_with_traffic();
        let text = prometheus_dump(&db);
        obs::validate_prometheus_text(&text).unwrap();
        assert!(
            text.contains("sqldb_digest_calls_total{digest=\"select v from t where id = ?\"} 3"),
            "{text}"
        );
        assert!(text.contains("sqldb_digest_families"), "{text}");
        assert!(text.contains("sqldb_slow_log_threshold_us 0"), "{text}");
    }

    #[test]
    fn prometheus_dump_carries_vectorized_exec_series() {
        let db = db_with_traffic();
        let mut s = db.connect();
        s.execute("SELECT v FROM t WHERE v > 0.5").unwrap();
        let text = prometheus_dump(&db);
        obs::validate_prometheus_text(&text).unwrap();
        // the dump renders this database's own registry, so the counts are
        // exactly its four SELECTs': one batch each, 1 + 1 + 1 + 2 rows,
        // and the three kernel nodes of `v > 0.5`
        for series in [
            "sqloop_exec_batches_total 4",
            "sqloop_exec_batch_rows_total 5",
            "sqloop_exec_rows_per_batch 2",
            "sqloop_exec_kernel_vector_total 3",
            "sqloop_exec_kernel_fallback_total 0",
        ] {
            assert!(text.lines().any(|l| l == series), "{series} in {text}");
        }
    }

    #[test]
    fn digest_label_with_quotes_stays_valid() {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE \"q t\" (a INT)").unwrap();
        let _ = s.execute("SELECT a FROM \"q t\"");
        let text = prometheus_dump(&db);
        obs::validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn digest_top_rows_carry_the_schema() {
        let db = db_with_traffic();
        let out = eval_metrics_cmd(&db, &MetricsCmd::DigestTop(32));
        let StmtOutput::Rows(r) = out else {
            panic!("expected rows");
        };
        assert_eq!(r.columns, DIGEST_COLUMNS.to_vec());
        let family = r
            .rows
            .iter()
            .find(|row| row[0] == Value::Text("select v from t where id = ?".into()))
            .expect("select family present");
        assert_eq!(family[1], Value::Int(3)); // calls
        assert_eq!(family[8], Value::Int(2)); // plan_misses: distinct texts
    }

    #[test]
    fn setters_answer_done_and_take_effect() {
        let db = db_with_traffic();
        assert_eq!(
            eval_metrics_cmd(&db, &MetricsCmd::SetProfiling(true)),
            StmtOutput::Done
        );
        assert!(db.profiling());
        assert_eq!(
            eval_metrics_cmd(
                &db,
                &MetricsCmd::SetSlowLog {
                    threshold_us: 5,
                    sample_every: 2
                }
            ),
            StmtOutput::Done
        );
        assert_eq!(db.slow_log_config(), (5, 2));
        assert_eq!(
            eval_metrics_cmd(&db, &MetricsCmd::ResetStats),
            StmtOutput::Done
        );
        assert!(db.digest_stats().is_empty());
    }

    #[test]
    fn slow_log_rows_carry_the_schema() {
        let db = db_with_traffic();
        db.set_slow_log(1, 1); // 1 µs: everything qualifies
        let mut s = db.connect();
        s.execute("SELECT COUNT(*) FROM t").unwrap();
        let StmtOutput::Rows(r) = eval_metrics_cmd(&db, &MetricsCmd::SlowLog) else {
            panic!("expected rows");
        };
        assert_eq!(r.columns, SLOW_LOG_COLUMNS.to_vec());
        assert!(!r.rows.is_empty());
        assert!(matches!(&r.rows[0][1], Value::Text(t) if t.contains("COUNT")));
    }
}
