//! Middleware configuration.

use crate::checkpoint::CheckpointConfig;
use crate::parallel::SUPERVISOR_POLL;
use crate::watchdog::WatchdogConfig;
use dbcp::CancelToken;
use std::path::PathBuf;
use std::time::Duration;

/// Trace recording configuration (see DESIGN.md §10).
///
/// When `enabled` is false the executors record nothing and pay only a
/// branch per would-be span/event. `json_path` additionally writes the full
/// machine-readable trace after each iterative run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record spans/events for each run.
    pub enabled: bool,
    /// Where to write the JSON trace document (`None` = keep in memory only).
    pub json_path: Option<PathBuf>,
}

impl TraceConfig {
    /// Tracing on, no JSON file.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            json_path: None,
        }
    }

    /// Tracing on, JSON trace written to `path` after each run.
    pub fn json(path: impl Into<PathBuf>) -> TraceConfig {
        TraceConfig {
            enabled: true,
            json_path: Some(path.into()),
        }
    }

    /// Reads the `SQLOOP_TRACE` environment variable:
    /// unset/empty/`0`/`off` → disabled; `1`/`on`/`text` → in-memory trace;
    /// `json` → trace written to `sqloop_trace.json`; `json:<path>` → trace
    /// written to `<path>`.
    pub fn from_env() -> TraceConfig {
        match std::env::var("SQLOOP_TRACE") {
            Ok(v) => TraceConfig::parse(&v),
            Err(_) => TraceConfig::default(),
        }
    }

    /// Parses an `SQLOOP_TRACE`-style value (see [`TraceConfig::from_env`]).
    pub fn parse(value: &str) -> TraceConfig {
        let v = value.trim();
        match v.to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" => TraceConfig::default(),
            "1" | "on" | "true" | "text" => TraceConfig::on(),
            "json" => TraceConfig::json("sqloop_trace.json"),
            _ => match v.split_once(':') {
                Some(("json", path)) if !path.is_empty() => TraceConfig::json(path),
                _ => TraceConfig::on(),
            },
        }
    }
}

/// Which execution method runs a parallelizable iterative CTE (paper §V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Force the single-threaded executor (the paper's fallback; also the
    /// only option for queries outside the parallelizable class).
    Single,
    /// Two-phase Compute/Gather with a barrier per iteration.
    Sync,
    /// Gather-then-Compute pairs, round-robin, no barrier — uses
    /// intermediate results of the current iteration (the default, as in
    /// the paper's headline results).
    #[default]
    Async,
    /// Async with priority scheduling over partitions (`AsyncP`).
    AsyncPrio,
}

impl ExecutionMode {
    /// Short label used in reports ("Sync", "Async", "AsyncP").
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Single => "Single",
            ExecutionMode::Sync => "Sync",
            ExecutionMode::Async => "Async",
            ExecutionMode::AsyncPrio => "AsyncP",
        }
    }

    /// Parses a label (case-insensitive).
    pub fn parse(s: &str) -> Option<ExecutionMode> {
        match s.to_ascii_lowercase().as_str() {
            "single" => Some(ExecutionMode::Single),
            "sync" => Some(ExecutionMode::Sync),
            "async" => Some(ExecutionMode::Async),
            "asyncp" | "async-prio" | "asyncprio" => Some(ExecutionMode::AsyncPrio),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// User-supplied priority function for `AsyncP` (paper §V-E: "finding a
/// priority function can be difficult and thus, SQLoop uses the user's input
/// to define it").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrioritySpec {
    /// A scalar query template; `{}` is replaced by the partition table
    /// name. Example (PageRank): `SELECT SUM(delta) FROM {}`.
    pub query_template: String,
    /// When `true`, *larger* values are scheduled first (PageRank's
    /// sum-of-delta); when `false`, smaller values win (SSSP's
    /// least-distance).
    pub descending: bool,
}

impl PrioritySpec {
    /// Priority by largest scalar (e.g. PageRank pending rank).
    pub fn highest(query_template: impl Into<String>) -> PrioritySpec {
        PrioritySpec {
            query_template: query_template.into(),
            descending: true,
        }
    }

    /// Priority by smallest scalar (e.g. SSSP least tentative distance).
    pub fn lowest(query_template: impl Into<String>) -> PrioritySpec {
        PrioritySpec {
            query_template: query_template.into(),
            descending: false,
        }
    }

    /// Instantiates the template for one partition table.
    pub fn query_for(&self, partition_table: &str) -> String {
        self.query_template.replace("{}", partition_table)
    }
}

/// Full middleware configuration.
///
/// Defaults follow the paper: 256 partitions, half the available CPUs as
/// worker threads, asynchronous execution. The constant part of the join
/// is always materialized (`Rmjoin`, paper §V-B).
#[derive(Debug, Clone)]
pub struct SqloopConfig {
    /// Parallel execution method.
    pub mode: ExecutionMode,
    /// Worker threads (= engine connections). Default: half the CPUs
    /// (paper §V-B: "SQLoop uses half of the available CPUs").
    pub threads: usize,
    /// Number of hash partitions of `R`. Default 256 (paper §V-B).
    pub partitions: usize,
    /// Priority function for [`ExecutionMode::AsyncPrio`].
    pub priority: Option<PrioritySpec>,
    /// The round cap: a run still going after this many rounds stops
    /// governed with [`crate::SqloopError::BudgetExceeded`], after a final
    /// checkpoint when checkpointing is on, so it can resume under a
    /// larger cap. At least 1.
    pub max_rounds: u64,
    /// Keep scratch tables (partitions, message tables) after execution —
    /// useful for debugging; the final CTE view always remains queryable
    /// until the next run reuses the name.
    pub keep_artifacts: bool,
    /// Progress sampling interval for convergence reports (`None` = off).
    pub sample_interval: Option<Duration>,
    /// Scalar query over the CTE view for the progress sampler, e.g.
    /// `SELECT SUM(rank) FROM {}` (`{}` = CTE name).
    pub progress_query: Option<String>,
    /// Replays of a failed Compute/Gather task on a transient error
    /// (0 = fail on first error). Replay resumes at the failed statement,
    /// which is safe because faults surface before a statement takes
    /// effect; see DESIGN.md "Fault tolerance".
    pub task_retries: u32,
    /// Base backoff between retry attempts (grows exponentially with
    /// seeded jitter).
    pub retry_backoff: Duration,
    /// When parallel execution fails on a transient fault even after
    /// retries, rerun the query on the single-threaded executor instead
    /// of surfacing the error.
    pub downgrade_on_failure: bool,
    /// Trace recording. The default honors the `SQLOOP_TRACE` environment
    /// variable (see [`TraceConfig::from_env`]).
    pub trace: TraceConfig,
    /// Durable checkpointing of iterative loop state (`None` = off). See
    /// DESIGN.md §11.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume an iterative run from a checkpoint directory, `MANIFEST.json`,
    /// or snapshot file instead of running the seed query.
    pub resume_from: Option<PathBuf>,
    /// Wall-clock budget for each execute call. When it expires the run is
    /// cancelled cooperatively: a final checkpoint is written (when
    /// checkpointing is on) and the report carries partial results with
    /// `cancelled = true`.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token shared with the run. Cancel it from
    /// another thread (or a Ctrl-C handler) to stop at the next safe point.
    pub cancel: CancelToken,
    /// Runaway-loop watchdog: numeric-divergence probes and delta-trend
    /// tracking (both off by default). Verdicts abort governed, like the
    /// round cap.
    pub watchdog: WatchdogConfig,
    /// Engine memory budget in bytes (`None` = unlimited), applied through
    /// the driver when it can govern the engine. A run that trips it
    /// aborts governed with [`crate::SqloopError::BudgetExceeded`].
    pub max_mem: Option<u64>,
    /// Per-statement execution deadline pushed onto every connection the
    /// run opens (`None` = off).
    pub statement_timeout: Option<Duration>,
    /// Heartbeat silence after which the supervisor abandons a busy
    /// worker, spawns a replacement, and replays its task (`None` = no
    /// stall remediation; barriers still poll for worker deaths).
    /// Distinct from the numeric watchdog: this is about *liveness* of a
    /// worker thread, not convergence of the iterating state. Set it
    /// comfortably above the worst-case duration of one partition round —
    /// abandoning a worker that is merely slow risks re-executing its
    /// in-flight statements. It must be at least the 20 ms tick at which
    /// barrier waits check worker liveness. See DESIGN.md §16.
    pub stall_timeout: Option<Duration>,
}

impl Default for SqloopConfig {
    fn default() -> SqloopConfig {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        SqloopConfig {
            mode: ExecutionMode::default(),
            threads: (cpus / 2).max(1),
            partitions: 256,
            priority: None,
            max_rounds: 100_000,
            keep_artifacts: false,
            sample_interval: None,
            progress_query: None,
            task_retries: 3,
            retry_backoff: Duration::from_millis(5),
            downgrade_on_failure: true,
            trace: TraceConfig::from_env(),
            checkpoint: None,
            resume_from: None,
            deadline: None,
            cancel: CancelToken::new(),
            watchdog: WatchdogConfig::default(),
            max_mem: None,
            statement_timeout: None,
            stall_timeout: None,
        }
    }
}

impl SqloopConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a message for zero threads/partitions or an `AsyncP` mode
    /// without a priority spec.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if self.partitions == 0 {
            return Err("partitions must be at least 1".into());
        }
        if self.mode == ExecutionMode::AsyncPrio && self.priority.is_none() {
            return Err("AsyncP mode requires a priority specification".into());
        }
        if let Some(ck) = &self.checkpoint {
            if ck.interval == 0 {
                return Err("checkpoint interval must be at least 1 round".into());
            }
            if ck.keep_last == 0 {
                return Err("checkpoint keep_last must be at least 1".into());
            }
        }
        if self.max_rounds == 0 {
            return Err("max_rounds must be at least 1".into());
        }
        if self.watchdog.window == Some(0) {
            return Err("watchdog window must be at least 1 round".into());
        }
        if self.max_mem == Some(0) {
            return Err("max_mem must be at least 1 byte".into());
        }
        if self.stall_timeout.is_some_and(|st| st < SUPERVISOR_POLL) {
            return Err("stall_timeout must be at least the 20 ms supervisor poll".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = SqloopConfig::default();
        assert_eq!(c.partitions, 256);
        assert!(c.threads >= 1);
        assert_eq!(c.mode, ExecutionMode::Async);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn recovery_defaults_are_sane() {
        let c = SqloopConfig::default();
        assert!(c.task_retries >= 1, "tasks should replay by default");
        assert!(c.downgrade_on_failure, "downgrade is the safe default");
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = SqloopConfig {
            threads: 0,
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SqloopConfig {
            partitions: 0,
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = SqloopConfig {
            mode: ExecutionMode::AsyncPrio,
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err());
        c.priority = Some(PrioritySpec::highest("SELECT SUM(delta) FROM {}"));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn checkpoint_validation() {
        let mut c = SqloopConfig {
            checkpoint: Some(CheckpointConfig::new("/tmp/ck")),
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_ok());
        c.checkpoint.as_mut().unwrap().interval = 0;
        assert!(c.validate().is_err());
        c.checkpoint.as_mut().unwrap().interval = 3;
        c.checkpoint.as_mut().unwrap().keep_last = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn governance_validation() {
        let c = SqloopConfig::default();
        assert!(!c.watchdog.is_active(), "watchdog is opt-in");
        assert!(c.max_mem.is_none());
        let c = SqloopConfig {
            max_rounds: 0,
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SqloopConfig {
            watchdog: WatchdogConfig {
                window: Some(0),
                ..WatchdogConfig::default()
            },
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SqloopConfig {
            max_mem: Some(0),
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SqloopConfig {
            max_rounds: 100,
            watchdog: WatchdogConfig {
                window: Some(8),
                numeric_checks: true,
            },
            max_mem: Some(64 << 20),
            statement_timeout: Some(Duration::from_secs(30)),
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn supervision_validation() {
        let c = SqloopConfig::default();
        assert!(c.stall_timeout.is_none(), "stall remediation is opt-in");
        let c = SqloopConfig {
            stall_timeout: Some(Duration::ZERO),
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SqloopConfig {
            stall_timeout: Some(Duration::from_millis(5)),
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_err(), "stall_timeout below the poll tick");
        let c = SqloopConfig {
            stall_timeout: Some(Duration::from_secs(30)),
            ..SqloopConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn priority_template_instantiation() {
        let p = PrioritySpec::lowest("SELECT MIN(delta) FROM {}");
        assert_eq!(p.query_for("sssp__pt3"), "SELECT MIN(delta) FROM sssp__pt3");
        assert!(!p.descending);
    }

    #[test]
    fn trace_config_parses_env_values() {
        assert_eq!(TraceConfig::parse(""), TraceConfig::default());
        assert_eq!(TraceConfig::parse("off"), TraceConfig::default());
        assert_eq!(TraceConfig::parse("0"), TraceConfig::default());
        assert_eq!(TraceConfig::parse("on"), TraceConfig::on());
        assert_eq!(TraceConfig::parse("1"), TraceConfig::on());
        assert_eq!(
            TraceConfig::parse("json"),
            TraceConfig::json("sqloop_trace.json")
        );
        assert_eq!(
            TraceConfig::parse("json:/tmp/t.json"),
            TraceConfig::json("/tmp/t.json")
        );
        // unknown non-empty values mean "the user wanted tracing"
        assert_eq!(TraceConfig::parse("verbose"), TraceConfig::on());
    }

    #[test]
    fn mode_labels_roundtrip() {
        for m in [
            ExecutionMode::Single,
            ExecutionMode::Sync,
            ExecutionMode::Async,
            ExecutionMode::AsyncPrio,
        ] {
            assert_eq!(ExecutionMode::parse(m.label()), Some(m));
        }
        assert_eq!(
            ExecutionMode::parse("AsyncP"),
            Some(ExecutionMode::AsyncPrio)
        );
        assert_eq!(ExecutionMode::parse("turbo"), None);
    }
}
