//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is generated
//! from these tables (`--print-spec`) and a unit test keeps the two equal,
//! so a name printed by a run is always a name the contract lists.

/// One workload: its name and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "pr_sync",
        why: "bulk iteration: PageRank x20, Sync, 2 workers; sqldb join/aggregate/INSERT..SELECT/UPDATE..FROM do the work, sqloop and dbcp little",
    },
    WorkloadSpec {
        name: "pr_sync_1t",
        why: "pr_sync with 1 worker; pr_sync_1t.fixpoint_s / pr_sync.fixpoint_s is the Fig. 5 speedup, and lock waits vanish here",
    },
    WorkloadSpec {
        name: "pr_script",
        why: "the hand-written PageRank script on one LocalConnection: bypasses sqloop, so a middleware-only change must not move it (Fig. 6)",
    },
    WorkloadSpec {
        name: "sssp_asyncp",
        why: "incremental iteration: SSSP, AsyncPrio, 1 worker; thousands of tiny tasks, so per-task and per-statement fixed cost dominates",
    },
    WorkloadSpec {
        name: "sssp_single",
        why: "same graph and query on the single-threaded executor: a few whole-table statements per round instead of ~100 per-partition ones",
    },
    WorkloadSpec {
        name: "dq_async_tcp",
        why: "descendant query, Async, 2 workers over TcpDriver: ~10k tiny statements across the wire, so dbcp and scheduler hand-off dominate",
    },
    WorkloadSpec {
        name: "oltp_wire",
        why: "2 closed-loop TCP clients, 50% point SELECT / 30% UPDATE / 20% INSERT, prepared: point DML, plan-cache hits, locks, one round trip per op",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated metric a user of the system would see; every workload reports
/// every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "fixpoint_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_mem_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// An ungated metric of one layer, and the end-to-end metric and workloads
/// it is expected to move (README, "How the metrics interact").
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SQLOOP_MOVES: &str =
    "fixpoint_s on sssp_asyncp, dq_async_tcp; pr_sync vs pr_sync_1t; flat on pr_script, oltp_wire";
const DBCP_TRACE_MOVES: &str = "names the statement family that owns fixpoint_s on each workload";
const SQLDB_COUNT_MOVES: &str =
    "rows_scanned on sssp_*/dq_async_tcp sizes delta-driven rounds; lock_waits explains pr_sync vs pr_sync_1t and oltp_wire";
const WIRE_MOVES: &str =
    "fixpoint_s on oltp_wire, dq_async_tcp; flat on the five LocalDriver workloads";
const BULK_MOVES: &str = "fixpoint_s on pr_sync, pr_sync_1t, pr_script";
const POINT_MOVES: &str = "fixpoint_s on oltp_wire";

pub const PER_LAYER: &[PerLayer] = &[
    // traced run: sqloop
    layer("sqloop.rounds", "count", Lower, SQLOOP_MOVES),
    layer("sqloop.computes", "count", Lower, SQLOOP_MOVES),
    layer("sqloop.gathers", "count", Lower, SQLOOP_MOVES),
    layer("sqloop.messages", "count", Lower, SQLOOP_MOVES),
    layer("sqloop.worker_busy_s", "s", Lower, SQLOOP_MOVES),
    layer("sqloop.self_s", "s", Lower, SQLOOP_MOVES),
    layer("sqloop.overlap", "ratio", Higher, SQLOOP_MOVES),
    // traced run: the dbcp boundary
    layer("dbcp.calls", "count", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.statements", "count", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.pipelines", "count", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.stmts_per_pipeline", "ratio", Higher, DBCP_TRACE_MOVES),
    layer("dbcp.connects", "count", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.call_s", "s", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.calls_per_s", "1/s", Higher, POINT_MOVES),
    layer("dbcp.call_p50_us", "us", Lower, POINT_MOVES),
    layer("dbcp.call_p95_us", "us", Lower, POINT_MOVES),
    layer("dbcp.call_p99_us", "us", Lower, POINT_MOVES),
    layer("dbcp.share.select", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.insert_select", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.insert_values", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.update", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.delete", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.ddl", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.txn", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.pipeline", "ratio", Lower, DBCP_TRACE_MOVES),
    layer("dbcp.share.connect", "ratio", Lower, DBCP_TRACE_MOVES),
    // traced run: sqldb counters around the job
    layer("sqldb.statements", "count", Lower, SQLDB_COUNT_MOVES),
    layer("sqldb.rows_scanned", "count", Lower, SQLDB_COUNT_MOVES),
    layer("sqldb.rows_joined", "count", Lower, SQLDB_COUNT_MOVES),
    layer("sqldb.index_lookups", "count", Higher, SQLDB_COUNT_MOVES),
    layer("sqldb.lock_waits", "count", Lower, SQLDB_COUNT_MOVES),
    layer(
        "sqldb.plan_cache_hit_rate",
        "ratio",
        Higher,
        SQLDB_COUNT_MOVES,
    ),
    layer(
        "sqldb.rows_scanned_per_stmt",
        "ratio",
        Lower,
        SQLDB_COUNT_MOVES,
    ),
    // traced run: the tracer itself
    layer(
        "trace.overhead",
        "ratio",
        Lower,
        "none: traced / untraced fixpoint_s - 1",
    ),
    layer(
        "trace.coverage",
        "ratio",
        Higher,
        "none: statements seen at the dbcp boundary / statements the engine counted",
    ),
    // probes: sqloop
    layer(
        "sqloop.frontend_us",
        "us",
        Lower,
        "fixpoint_s on sub-second runs only (dq_async_tcp)",
    ),
    // probes: dbcp
    layer(
        "dbcp.local_call_us",
        "us",
        Lower,
        "fixpoint_s on sssp_asyncp (14k local calls)",
    ),
    layer("dbcp.tcp_rtt_us", "us", Lower, WIRE_MOVES),
    layer("dbcp.wire_overhead_us", "us", Lower, WIRE_MOVES),
    layer("dbcp.prepared_rtt_us", "us", Lower, WIRE_MOVES),
    layer("dbcp.pipeline8_rtt_us", "us", Lower, WIRE_MOVES),
    layer("dbcp.fetch_mrows_s", "Mrows/s", Higher, WIRE_MOVES),
    layer(
        "dbcp.pool_get_us",
        "us",
        Lower,
        "none today: no workload checks connections out of a Pool per call",
    ),
    // probes: sqldb
    layer(
        "sqldb.parse_plan_us",
        "us",
        Lower,
        "nothing while sqldb.plan_cache_hit_rate stays above 0.9",
    ),
    layer("sqldb.plan_hit_us", "us", Lower, POINT_MOVES),
    layer(
        "sqldb.scan_filter_mrows_s",
        "Mrows/s",
        Higher,
        "fixpoint_s on sssp_*, dq_async_tcp (full-partition scans for few live rows)",
    ),
    layer("sqldb.join_agg_mrows_s", "Mrows/s", Higher, BULK_MOVES),
    layer("sqldb.insert_select_mrows_s", "Mrows/s", Higher, BULK_MOVES),
    layer("sqldb.update_from_mrows_s", "Mrows/s", Higher, BULK_MOVES),
    layer("sqldb.delete_mrows_s", "Mrows/s", Higher, BULK_MOVES),
    layer(
        "sqldb.ctas_mrows_s",
        "Mrows/s",
        Higher,
        "fixpoint_s on sssp_single, pr_script",
    ),
    layer("sqldb.point_select_us", "us", Lower, POINT_MOVES),
    layer("sqldb.point_update_us", "us", Lower, POINT_MOVES),
    layer("sqldb.point_insert_us", "us", Lower, POINT_MOVES),
    layer(
        "sqldb.bytes_per_row",
        "B",
        Lower,
        "peak_mem_mb on every workload",
    ),
];

/// How long one driver run measures; also the default for `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let q = crate::report::quote;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            q(w.name),
            q(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            q(m.name),
            q(m.unit),
            q(m.better.as_str()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            q(m.name),
            q(m.unit),
            q(m.better.as_str())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The contract's rule for names: letters, digits, `_`, `.` and `-`,
    /// starting with a letter or digit, at most 64 long.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --print-spec > BENCHMARK.json"
        );
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for bad in ["", ".x", "a b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
