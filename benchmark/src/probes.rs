//! Layer probes: direct timed calls into one layer's public functions with
//! fixed seeded inputs. Each value is the median of its calls. They say how
//! fast a layer is on its own; the traced run says how much of a job it is.

use crate::inputs::{self, Scale};
use crate::jobs::{fill_accounts, POINT_INSERT, POINT_SELECT, POINT_UPDATE};
use crate::report::median;
use dbcp::{Connection, Driver, LocalDriver, PipelineStep, Pool, Server, TcpDriver};
use sqldb::{Database, EngineProfile, Session, Value};
use sqloop::translate::translate_sql;
use sqloop::{analyze, parse, SqloopQuery};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::queries;

/// Calls per probe: microsecond-scale calls and millisecond-scale ones.
const SMALL_CALLS: usize = 1_000;
const BULK_CALLS: usize = 30;

fn secs(call: impl FnOnce()) -> f64 {
    let start = Instant::now();
    call();
    start.elapsed().as_secs_f64()
}

fn median_secs(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls).map(|i| secs(|| call(i))).collect();
    median(&samples)
}

fn micros(calls: usize, call: impl FnMut(usize)) -> f64 {
    median_secs(calls, call) * 1e6
}

fn mrows_per_s(rows: usize, calls: usize, call: impl FnMut(usize)) -> f64 {
    rows as f64 / median_secs(calls, call) / 1e6
}

fn run(session: &mut Session, sql: &str) {
    black_box(session.execute(sql).expect("probe statement"));
}

/// Runs every probe; returns `(metric name, value)` pairs.
///
/// # Panics
/// On an engine error: the probes run fixed statements that must work.
pub fn run_all(scale: &Scale, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    // the PageRank topology at a quarter of the workload's size, so a bulk
    // statement takes milliseconds, not tens of them
    let quarter = Scale {
        pr_nodes: (scale.pr_nodes / 4).max(16),
        ..*scale
    };
    let graph = inputs::pagerank_graph(&quarter, seed).graph;
    let (nodes, edges) = (graph.node_count(), graph.edge_count());

    // -- sqloop ----------------------------------------------------------
    let sssp = inputs::sssp_graph(scale, seed);
    let dq = inputs::dq_graph(scale, seed);
    let texts = [
        queries::pagerank(scale.pr_iterations),
        queries::sssp_all(sssp.source),
        queries::descendant_clicks(dq.source, dq.target.expect("dq target").0),
    ];
    let script = workloads::pagerank_script().per_iteration;
    out.push((
        "sqloop.frontend_us",
        micros(200, |_| {
            for text in &texts {
                if let SqloopQuery::Iterative(cte) = parse(text).expect("workload query parses") {
                    black_box(analyze(&cte, &cte.columns).expect("workload query analyses"));
                }
            }
            for statement in &script {
                black_box(translate_sql(statement, EngineProfile::Postgres).expect("translates"));
            }
        }),
    ));

    // -- sqldb, through a Session ------------------------------------------
    let db = Database::new(EngineProfile::Postgres);
    let local: Arc<dyn Driver> = Arc::new(LocalDriver::new(db.clone()));
    let mut loader = local.connect().expect("local connect");
    workloads::load_edges(loader.as_mut(), &graph).expect("load edges");
    out.push((
        "sqldb.bytes_per_row",
        db.memory_used() as f64 / edges as f64,
    ));

    let mut s = db.connect();
    run(&mut s, "CREATE TABLE one (a INT)");
    run(&mut s, "INSERT INTO one VALUES (1)");
    out.push((
        "sqldb.parse_plan_us",
        micros(SMALL_CALLS, |i| {
            run(&mut s, &format!("SELECT a + {i} FROM one WHERE a <> {i}"))
        }),
    ));
    out.push((
        "sqldb.plan_hit_us",
        micros(SMALL_CALLS, |_| {
            run(&mut s, "SELECT a + 1 FROM one WHERE a <> 1")
        }),
    ));

    run(
        &mut s,
        "CREATE TABLE rank (node INT, rank FLOAT, delta FLOAT)",
    );
    run(
        &mut s,
        "INSERT INTO rank SELECT src, 0.0, 0.15 \
         FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src",
    );
    run(&mut s, "CREATE INDEX rank_node ON rank (node)");
    run(&mut s, "CREATE TABLE msg (node INT, val FLOAT)");
    run(&mut s, "INSERT INTO msg SELECT node, 0.01 FROM rank");
    run(
        &mut s,
        "CREATE TABLE scratch (src INT, dst INT, weight FLOAT)",
    );

    out.push((
        "sqldb.scan_filter_mrows_s",
        mrows_per_s(edges, BULK_CALLS, |_| {
            run(&mut s, "SELECT COUNT(*) FROM edges WHERE weight > 0.9")
        }),
    ));
    out.push((
        "sqldb.join_agg_mrows_s",
        mrows_per_s(edges, BULK_CALLS, |_| {
            run(
                &mut s,
                "SELECT r.node, COALESCE(0.85 * SUM(s.delta * e.weight), 0.0) FROM rank AS r \
                 LEFT JOIN edges AS e ON r.node = e.dst \
                 LEFT JOIN rank AS s ON s.node = e.src GROUP BY r.node",
            )
        }),
    ));
    // each DELETE empties exactly what the INSERT before it put in
    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
    for _ in 0..BULK_CALLS {
        inserts.push(secs(|| {
            run(
                &mut s,
                "INSERT INTO scratch SELECT src, dst, weight FROM edges",
            )
        }));
        deletes.push(secs(|| run(&mut s, "DELETE FROM scratch")));
    }
    out.push((
        "sqldb.insert_select_mrows_s",
        edges as f64 / median(&inserts) / 1e6,
    ));
    out.push((
        "sqldb.delete_mrows_s",
        edges as f64 / median(&deletes) / 1e6,
    ));
    out.push((
        "sqldb.update_from_mrows_s",
        mrows_per_s(nodes, BULK_CALLS, |_| {
            run(
                &mut s,
                "UPDATE rank SET delta = rank.delta + msg.val FROM msg WHERE rank.node = msg.node",
            )
        }),
    ));
    out.push((
        "sqldb.ctas_mrows_s",
        mrows_per_s(edges, BULK_CALLS, |_| {
            run(&mut s, "CREATE TABLE ctas AS SELECT * FROM edges");
            run(&mut s, "DROP TABLE ctas");
        }),
    ));

    let oltp = inputs::oltp_input(scale, seed);
    fill_accounts(loader.as_mut(), &oltp).expect("fill accounts");
    let keys = oltp.accounts.len() as i64;
    let select = s.prepare(POINT_SELECT).expect("prepare");
    let update = s.prepare(POINT_UPDATE).expect("prepare");
    let insert = s.prepare(POINT_INSERT).expect("prepare");
    let key = |i: usize| Value::Int((i as i64 * 7919) % keys);
    out.push((
        "sqldb.point_select_us",
        micros(SMALL_CALLS, |i| {
            black_box(
                s.execute_prepared(&select, &[key(i)])
                    .expect("point select"),
            );
        }),
    ));
    out.push((
        "sqldb.point_update_us",
        micros(SMALL_CALLS, |i| {
            black_box(
                s.execute_prepared(&update, &[Value::Float(0.25), key(i)])
                    .expect("point update"),
            );
        }),
    ));
    out.push((
        "sqldb.point_insert_us",
        micros(SMALL_CALLS, |i| {
            black_box(
                s.execute_prepared(&insert, &[Value::Int(i as i64), key(i), Value::Float(1.0)])
                    .expect("point insert"),
            );
        }),
    ));

    // -- dbcp --------------------------------------------------------------
    let server = Server::bind(db.clone(), "127.0.0.1:0").expect("bind");
    let tcp = TcpDriver::connect(&server.addr().to_string()).expect("tcp connect");
    let mut remote = tcp.connect().expect("tcp connect");
    let select_one = |conn: &mut dyn Connection| {
        black_box(conn.execute("SELECT 1").expect("SELECT 1"));
    };
    let local_call_us = micros(SMALL_CALLS, |_| select_one(loader.as_mut()));
    let tcp_rtt_us = micros(SMALL_CALLS, |_| select_one(remote.as_mut()));
    out.push(("dbcp.local_call_us", local_call_us));
    out.push(("dbcp.tcp_rtt_us", tcp_rtt_us));
    out.push(("dbcp.wire_overhead_us", tcp_rtt_us - local_call_us));
    let (stmt_id, _) = remote.prepare_statement("SELECT 1").expect("prepare");
    out.push((
        "dbcp.prepared_rtt_us",
        micros(SMALL_CALLS, |_| {
            black_box(remote.execute_prepared(stmt_id, &[]).expect("prepared"));
        }),
    ));
    let eight: Vec<PipelineStep> = (0..8)
        .map(|_| PipelineStep::Execute("SELECT 1".into()))
        .collect();
    out.push((
        "dbcp.pipeline8_rtt_us",
        micros(SMALL_CALLS, |_| {
            let outcome = remote.run_pipeline(&eight).expect("pipeline");
            assert!(outcome.error.is_none());
            black_box(outcome);
        }),
    ));
    out.push((
        "dbcp.fetch_mrows_s",
        mrows_per_s(edges, BULK_CALLS, |_| {
            let rows = remote.query("SELECT * FROM edges").expect("fetch");
            assert_eq!(rows.rows.len(), edges);
            black_box(rows);
        }),
    ));
    let pool = Pool::new(local.clone(), 2);
    drop(pool.get(Duration::from_secs(5)).expect("warm the pool"));
    out.push((
        "dbcp.pool_get_us",
        micros(SMALL_CALLS, |_| {
            black_box(pool.get(Duration::from_secs(5)).expect("pool get"));
        }),
    ));
    drop(remote);
    drop(server);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    #[test]
    fn probes_report_listed_names_with_positive_values() {
        let values = run_all(&Scale::SMOKE, 3);
        for (name, value) in &values {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} not in the contract"
            );
            assert!(value.is_finite(), "{name} = {value}");
            if *name != "dbcp.wire_overhead_us" {
                assert!(*value > 0.0, "{name} = {value}");
            }
        }
    }

    /// The two plan-cache probes measure what their names say.
    #[test]
    fn distinct_text_misses_and_repeated_text_hits() {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        run(&mut s, "CREATE TABLE one (a INT)");
        let before = db.plan_cache_stats();
        for i in 0..10 {
            run(&mut s, &format!("SELECT a + {i} FROM one WHERE a <> {i}"));
        }
        let mid = db.plan_cache_stats();
        assert_eq!(
            (mid.misses - before.misses, mid.hits - before.hits),
            (10, 0)
        );
        for _ in 0..10 {
            run(&mut s, "SELECT a + 1 FROM one WHERE a <> 1");
        }
        let after = db.plan_cache_stats();
        assert_eq!((after.misses - mid.misses, after.hits - mid.hits), (0, 10));
    }
}
