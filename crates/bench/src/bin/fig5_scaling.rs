//! Figure 5 — "SQLoop using multiple threads and CPUs" (paper §VI-C):
//! convergence/execution time vs worker-thread count (1…16) for PageRank
//! and SSSP on each engine.
//!
//! Usage: `cargo run --release -p sqloop-bench --bin fig5_scaling --
//!         [--exp pr|sssp|all] [--scale f] [--threads 1,2,4,8] [--partitions n]`
//!
//! Expected shape (paper): every engine and method improves with threads
//! (each thread is an extra engine connection), with PostgreSQL reaching
//! up to ~10× at 16 threads; Async stays ahead of Sync at every width.

use sqldb::EngineProfile;
use sqloop::{ExecutionMode, PrioritySpec, SqloopConfig};
use sqloop_bench::{env_with_graph, parse_args, time_it, write_csv, Table};

const MODES: [ExecutionMode; 3] = [
    ExecutionMode::Sync,
    ExecutionMode::Async,
    ExecutionMode::AsyncPrio,
];

/// Engine statements this run executed (per-run delta; `-` over TCP).
fn engine_stmts(report: &sqloop::ExecutionReport) -> String {
    report
        .engine_stats
        .map(|s| s.statements.to_string())
        .unwrap_or_else(|| "-".into())
}

fn main() {
    let args = parse_args();
    println!("== Figure 5: scaling with worker threads ==\n");
    if args.exp == "pr" || args.exp == "all" {
        pr_scaling(&args);
    }
    if args.exp == "sssp" || args.exp == "all" {
        sssp_scaling(&args);
    }
}

fn pr_scaling(args: &sqloop_bench::BenchArgs) {
    let dataset = graphgen::datasets::google_web_like(args.scale);
    println!("PageRank on {} ({})", dataset.name, dataset.graph);
    let query = workloads::queries::pagerank(args.iterations);
    let mut table = Table::new(&[
        "engine",
        "method",
        "threads",
        "time (s)",
        "speedup vs 1",
        "overlap",
        "stmts",
    ]);
    for profile in EngineProfile::ALL {
        for mode in MODES {
            let mut base: Option<f64> = None;
            for &threads in &args.threads {
                let env = env_with_graph(profile, &dataset.graph);
                let sq = env.sqloop(SqloopConfig {
                    mode,
                    threads,
                    partitions: args.partitions,
                    priority: Some(PrioritySpec::highest("SELECT SUM(delta) FROM {}")),
                    ..SqloopConfig::default()
                });
                let (report, elapsed) = time_it(|| sq.execute_detailed(&query).expect("pr run"));
                let secs = elapsed.as_secs_f64();
                let speedup = base.map(|b| b / secs).unwrap_or(1.0);
                base.get_or_insert(secs);
                table.row(vec![
                    profile.name().into(),
                    mode.label().into(),
                    threads.to_string(),
                    format!("{secs:.3}"),
                    format!("{speedup:.2}x"),
                    format!("{:.2}", report.worker_busy.as_secs_f64() / secs),
                    engine_stmts(&report),
                ]);
            }
        }
    }
    println!("{}", table.render());
    if let Some(p) = write_csv("fig5_pr", &table.to_csv()) {
        println!("  wrote {}\n", p.display());
    }
}

fn sssp_scaling(args: &sqloop_bench::BenchArgs) {
    let dataset = graphgen::datasets::twitter_like(args.scale);
    println!("SSSP on {} ({})", dataset.name, dataset.graph);
    let (dest, _) = dataset
        .graph
        .node_at_distance(0, u64::MAX)
        .expect("connected");
    let query = workloads::queries::sssp(0, dest);
    let mut table = Table::new(&[
        "engine",
        "method",
        "threads",
        "time (s)",
        "speedup vs 1",
        "overlap",
        "stmts",
    ]);
    for profile in EngineProfile::ALL {
        for mode in MODES {
            let mut base: Option<f64> = None;
            for &threads in &args.threads {
                let env = env_with_graph(profile, &dataset.graph);
                let sq = env.sqloop(SqloopConfig {
                    mode,
                    threads,
                    partitions: args.partitions,
                    priority: Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}")),
                    ..SqloopConfig::default()
                });
                let (report, elapsed) = time_it(|| sq.execute_detailed(&query).expect("sssp run"));
                let secs = elapsed.as_secs_f64();
                let speedup = base.map(|b| b / secs).unwrap_or(1.0);
                base.get_or_insert(secs);
                table.row(vec![
                    profile.name().into(),
                    mode.label().into(),
                    threads.to_string(),
                    format!("{secs:.3}"),
                    format!("{speedup:.2}x"),
                    format!("{:.2}", report.worker_busy.as_secs_f64() / secs),
                    engine_stmts(&report),
                ]);
            }
        }
    }
    println!("{}", table.render());
    if let Some(p) = write_csv("fig5_sssp", &table.to_csv()) {
        println!("  wrote {}\n", p.display());
    }
}
