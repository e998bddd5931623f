//! Full-stack correctness: the paper's workloads executed through the
//! complete middleware (grammar → analysis → translation → parallel
//! schedulers → engine) and diffed against native in-memory oracles.

use dbcp::{Driver, LocalDriver};
use graphgen::datasets;
use sqldb::{Database, EngineProfile, Value};
use sqloop::{ExecutionMode, PrioritySpec, SQLoop, SqloopConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn setup(profile: EngineProfile, graph: &graphgen::Graph) -> (Database, Arc<LocalDriver>) {
    let db = Database::new(profile);
    let driver = Arc::new(LocalDriver::new(db.clone()));
    let mut conn = driver.connect().unwrap();
    workloads::load_edges(conn.as_mut(), graph).unwrap();
    (db, driver)
}

fn sqloop(driver: &Arc<LocalDriver>, mode: ExecutionMode, priority: PrioritySpec) -> SQLoop {
    SQLoop::new(driver.clone() as Arc<dyn Driver>).with_config(SqloopConfig {
        mode,
        threads: 2,
        partitions: 16,
        priority: Some(priority),
        ..SqloopConfig::default()
    })
}

#[test]
fn pagerank_matches_oracle_in_sync_mode() {
    let dataset = datasets::google_web_like(0.02);
    let oracle = workloads::oracle::pagerank(&dataset.graph, 15);
    let (_, driver) = setup(EngineProfile::Postgres, &dataset.graph);
    let sq = sqloop(
        &driver,
        ExecutionMode::Sync,
        PrioritySpec::highest("SELECT SUM(delta) FROM {}"),
    );
    let out = sq.execute(&workloads::queries::pagerank(15)).unwrap();
    assert_eq!(out.rows.len(), oracle.len());
    for row in &out.rows {
        let node = row[0].as_i64().unwrap() as u64;
        let rank = row[1].as_f64().unwrap();
        let expected = oracle[&node];
        assert!(
            (rank - expected).abs() < 1e-9,
            "node {node}: sql {rank} vs oracle {expected}"
        );
    }
}

#[test]
fn sssp_matches_dijkstra_in_every_mode_and_engine() {
    let dataset = datasets::twitter_like(0.05);
    let oracle = workloads::oracle::sssp(&dataset.graph, 0);
    for profile in EngineProfile::ALL {
        for mode in [
            ExecutionMode::Single,
            ExecutionMode::Sync,
            ExecutionMode::Async,
            ExecutionMode::AsyncPrio,
        ] {
            let (_, driver) = setup(profile, &dataset.graph);
            let sq = sqloop(
                &driver,
                mode,
                PrioritySpec::lowest("SELECT MIN(delta) FROM {}"),
            );
            let out = sq.execute(&workloads::queries::sssp_all(0)).unwrap();
            for row in &out.rows {
                let node = row[0].as_i64().unwrap() as u64;
                let d = row[1].as_f64().unwrap();
                match oracle.get(&node) {
                    Some(&expected) => assert!(
                        (d - expected).abs() < 1e-9,
                        "{profile}/{mode}: node {node} distance {d} vs {expected}"
                    ),
                    None => assert!(
                        d.is_infinite(),
                        "{profile}/{mode}: node {node} should be unreachable, got {d}"
                    ),
                }
            }
        }
    }
}

#[test]
fn descendant_query_matches_bfs() {
    let dataset = datasets::berkstan_like(0.15);
    let hops_limit = 40;
    let oracle = workloads::oracle::descendants(&dataset.graph, 0, hops_limit);
    for mode in [
        ExecutionMode::Single,
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ] {
        let (_, driver) = setup(EngineProfile::MariaDb, &dataset.graph);
        let sq = sqloop(
            &driver,
            mode,
            PrioritySpec::lowest("SELECT MIN(delta) FROM {}"),
        );
        let out = sq
            .execute(&workloads::queries::descendant_query(0, hops_limit))
            .unwrap();
        let got: HashMap<u64, u64> = out
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap() as u64, r[1].as_f64().unwrap() as u64))
            .collect();
        assert_eq!(got, oracle, "{mode}");
    }
}

#[test]
fn descendant_clicks_matches_bfs_distance() {
    let dataset = datasets::berkstan_like(0.1);
    let (target, hops) = dataset.graph.node_at_distance(0, 100).unwrap();
    assert!(hops >= 50, "stand-in graph should be deep, got {hops}");
    let (_, driver) = setup(EngineProfile::Postgres, &dataset.graph);
    let sq = sqloop(
        &driver,
        ExecutionMode::AsyncPrio,
        PrioritySpec::lowest("SELECT MIN(delta) FROM {}"),
    );
    let out = sq
        .execute(&workloads::queries::descendant_clicks(0, target))
        .unwrap();
    assert_eq!(out.rows[0][0], Value::Float(hops as f64));
}

#[test]
fn connected_components_match_oracle() {
    let g = graphgen::uniform_random(120, 200, 3);
    let oracle = workloads::oracle::connected_components(&g);
    let (_, driver) = setup(EngineProfile::Postgres, &g);
    // WCC needs the symmetrized edge view
    let mut conn = driver.connect().unwrap();
    conn.execute(
        "CREATE VIEW both_edges AS SELECT src, dst, weight FROM edges \
         UNION ALL SELECT dst AS src, src AS dst, weight FROM edges",
    )
    .unwrap();
    drop(conn);
    let sq = sqloop(
        &driver,
        ExecutionMode::Single,
        PrioritySpec::lowest("SELECT MIN(delta) FROM {}"),
    );
    let out = sq
        .execute(&workloads::queries::connected_components(200))
        .unwrap();
    for row in &out.rows {
        let node = row[0].as_i64().unwrap() as u64;
        let comp = row[1].as_f64().unwrap() as u64;
        assert_eq!(comp, oracle[&node], "node {node}");
    }
}

#[test]
fn pagerank_identical_across_engines() {
    let dataset = datasets::google_web_like(0.02);
    let query = workloads::queries::pagerank(10);
    let mut results = Vec::new();
    for profile in EngineProfile::ALL {
        let (_, driver) = setup(profile, &dataset.graph);
        let sq = sqloop(
            &driver,
            ExecutionMode::Sync,
            PrioritySpec::highest("SELECT SUM(delta) FROM {}"),
        );
        results.push(sq.execute(&query).unwrap().rows);
    }
    // join algorithms differ per engine, so float summation order (and the
    // last ULP) may differ — compare with a tight tolerance
    for (name, other) in [("MySQL", &results[1]), ("MariaDB", &results[2])] {
        assert_eq!(results[0].len(), other.len(), "{name}");
        for (a, b) in results[0].iter().zip(other) {
            assert_eq!(a[0], b[0], "{name}");
            let (x, y) = (a[1].as_f64().unwrap(), b[1].as_f64().unwrap());
            assert!(
                (x - y).abs() <= 1e-12 * x.abs().max(1.0),
                "{name}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn delta_terminated_pagerank_converges() {
    let dataset = datasets::google_web_like(0.02);
    let (_, driver) = setup(EngineProfile::Postgres, &dataset.graph);
    let sq = sqloop(
        &driver,
        ExecutionMode::Single,
        PrioritySpec::highest("SELECT SUM(delta) FROM {}"),
    );
    let report = sq
        .execute_detailed(&workloads::queries::pagerank_until_converged(0.01))
        .unwrap();
    assert!(
        report.iterations > 3,
        "too few iterations: {}",
        report.iterations
    );
    // converged total rank ≈ node count for a closed graph
    let total: f64 = report
        .result
        .rows
        .iter()
        .map(|r| r[1].as_f64().unwrap())
        .sum();
    let n = report.result.rows.len() as f64;
    assert!((total - n).abs() / n < 0.05, "total {total} vs n {n}");
}

#[test]
fn indegree_count_workload_matches_degree() {
    let g = graphgen::uniform_random(80, 300, 9);
    let mut indeg: HashMap<u64, i64> = HashMap::new();
    for &(_, d) in g.edges() {
        *indeg.entry(d).or_insert(0) += 1;
    }
    let (_, driver) = setup(EngineProfile::MySql, &g);
    let sq = sqloop(
        &driver,
        ExecutionMode::Sync,
        PrioritySpec::highest("SELECT SUM(delta) FROM {}"),
    );
    let out = sq.execute(&workloads::queries::indegree_count()).unwrap();
    for row in &out.rows {
        let node = row[0].as_i64().unwrap() as u64;
        let got = row[1].as_f64().unwrap() as i64;
        assert_eq!(got, *indeg.get(&node).unwrap_or(&0), "node {node}");
    }
}

#[test]
fn hits_like_falls_back_and_matches_oracle() {
    use sqloop::Strategy;
    let g = graphgen::uniform_random(40, 120, 6);
    let oracle = workloads::oracle::hits_like(&g, 3);
    let (_, driver) = setup(EngineProfile::Postgres, &g);
    let sq = sqloop(
        &driver,
        ExecutionMode::Async,
        PrioritySpec::highest("SELECT SUM(delta) FROM {}"),
    );
    let report = sq
        .execute_detailed(&workloads::queries::hits_like(3))
        .unwrap();
    // two aggregated columns → outside the parallelizable class
    match &report.strategy {
        Strategy::IterativeSingle { fallback_reason } => assert!(fallback_reason.is_some()),
        other => panic!("expected fallback, got {other:?}"),
    }
    for row in &report.result.rows {
        let node = row[0].as_i64().unwrap() as u64;
        let (auth, hub) = (row[1].as_f64().unwrap(), row[2].as_f64().unwrap());
        let (ea, eh) = oracle[&node];
        assert!((auth - ea).abs() < 1e-9, "node {node} auth {auth} vs {ea}");
        assert!((hub - eh).abs() < 1e-9, "node {node} hub {hub} vs {eh}");
    }
}
