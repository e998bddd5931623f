//! Middleware error type.

use sqldb::DbError;
use std::fmt;

/// Errors produced by the SQLoop middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqloopError {
    /// The extended CTE grammar could not be parsed.
    Grammar(String),
    /// The query is valid but violates a middleware assumption
    /// (e.g. the iterative part returns a different key set).
    Semantic(String),
    /// Configuration problem (zero partitions, bad priority query, …).
    Config(String),
    /// An underlying engine/driver error.
    Db(DbError),
    /// A worker thread or its channel died unexpectedly (panic, poisoned
    /// state). Retryable: the downgrade path can finish the run on the
    /// single-threaded executor instead of aborting the process.
    Worker(String),
    /// A checkpoint could not be written, read, or validated (corrupt
    /// manifest, checksum mismatch, fingerprint mismatch on resume). Never
    /// retryable — resuming from bad state would give a wrong answer.
    Checkpoint(String),
    /// The watchdog detected numeric divergence in the iterating state:
    /// a NaN/±infinity aggregate, or deltas that stopped shrinking past
    /// the configured window. Never retryable — the same computation
    /// diverges identically; fix the query or its parameters. The run
    /// still quiesces and writes a final checkpoint first.
    NumericDivergence {
        /// The partition where divergence was observed (`None` when
        /// detected on the whole CTE, e.g. single-threaded execution).
        partition: Option<usize>,
        /// The round/iteration at which the verdict fired.
        round: u64,
        /// Human-readable description of the evidence.
        detail: String,
    },
    /// A resource budget (rounds, wall clock, memory) was exhausted at
    /// `round`. Not retryable as-is — but the governed abort writes a
    /// final checkpoint, so the run *resumes* correctly under a larger
    /// budget.
    BudgetExceeded {
        /// Which budget ran out ("max_rounds", "memory", "deadline", …).
        what: String,
        /// The round/iteration at which the budget tripped.
        round: u64,
    },
    /// A worker thread panicked — caught at the worker's `catch_unwind`
    /// boundary, discovered when a worker thread exited mid-task, or
    /// surfaced when every worker died with tasks still in flight.
    /// Retryable: the connection is dropped (the engine session rolls
    /// back on drop), a replacement worker replays the task, and the
    /// downgrade path can finish the run single-threaded.
    WorkerPanic {
        /// The panicking worker's id (`None` when the whole pool died
        /// and no single culprit is known).
        worker: Option<u32>,
        /// The panic payload (or a description of how the death was
        /// detected).
        detail: String,
    },
    /// A worker's heartbeat went silent past the configured
    /// `stall_timeout` while a task was in flight, and the supervisor
    /// abandoned it. Retryable: a replacement worker replays the
    /// partition's round from the failed statement.
    WorkerStalled {
        /// The stalled worker's id.
        worker: u32,
        /// The partition whose task was abandoned.
        partition: usize,
        /// How long the heartbeat had been silent when the verdict fired.
        waited_ms: u64,
    },
    /// A parallel Compute/Gather task failed after `attempt` attempts;
    /// `source` is the error of the last attempt. Produced when the
    /// scheduler's replay budget is exhausted (or immediately for errors
    /// that replay cannot fix).
    Task {
        /// The partition whose task failed.
        partition: usize,
        /// Attempts made (1 = the original dispatch, no replays).
        attempt: u32,
        /// The last attempt's error.
        source: Box<SqloopError>,
    },
    /// The `AsyncP` priority query failed the first time it was evaluated,
    /// so the run has no order to schedule by. Retryable when `source` is
    /// (the downgrade path does not need priorities).
    Priority {
        /// The query as submitted, partition table substituted.
        query: String,
        /// Why it failed.
        source: Box<SqloopError>,
    },
}

impl SqloopError {
    /// True when a retry/replay or a fallback executor could plausibly
    /// succeed: transient connectivity and congestion failures. Grammar,
    /// semantic and configuration errors are deterministic and not
    /// retryable. A [`SqloopError::Task`] delegates to the error of its
    /// last attempt, so "budget exhausted on a transient fault" stays
    /// retryable (the downgrade path uses this) while "task hit a
    /// semantic error" does not.
    pub fn is_retryable(&self) -> bool {
        match self {
            SqloopError::Db(e) => matches!(
                e,
                DbError::Connection(_)
                    | DbError::LockTimeout(_)
                    | DbError::TxnAborted(_)
                    | DbError::Overloaded(_)
            ),
            SqloopError::Task { source, .. } | SqloopError::Priority { source, .. } => {
                source.is_retryable()
            }
            SqloopError::Worker(_) => true,
            SqloopError::WorkerPanic { .. } => true,
            SqloopError::WorkerStalled { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for SqloopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqloopError::Grammar(m) => write!(f, "grammar error: {m}"),
            SqloopError::Semantic(m) => write!(f, "semantic error: {m}"),
            SqloopError::Config(m) => write!(f, "configuration error: {m}"),
            SqloopError::Db(e) => write!(f, "engine error: {e}"),
            SqloopError::Worker(m) => write!(f, "worker failure: {m}"),
            SqloopError::WorkerPanic { worker, detail } => match worker {
                Some(w) => write!(f, "worker {w} panicked: {detail}"),
                None => write!(f, "panic absorbed: {detail}"),
            },
            SqloopError::WorkerStalled {
                worker,
                partition,
                waited_ms,
            } => write!(
                f,
                "worker {worker} stalled on partition {partition}: no heartbeat for {waited_ms}ms"
            ),
            SqloopError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            SqloopError::NumericDivergence {
                partition,
                round,
                detail,
            } => match partition {
                Some(p) => write!(
                    f,
                    "numeric divergence on partition {p} at round {round}: {detail}"
                ),
                None => write!(f, "numeric divergence at round {round}: {detail}"),
            },
            SqloopError::BudgetExceeded { what, round } => {
                write!(f, "{what} budget exhausted at round {round}")
            }
            SqloopError::Task {
                partition,
                attempt,
                source,
            } => write!(
                f,
                "task on partition {partition} failed after {attempt} attempt(s): {source}"
            ),
            SqloopError::Priority { query, source } => {
                write!(f, "priority query `{query}` failed: {source}")
            }
        }
    }
}

impl std::error::Error for SqloopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqloopError::Db(e) => Some(e),
            SqloopError::Task { source, .. } | SqloopError::Priority { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

impl From<DbError> for SqloopError {
    fn from(e: DbError) -> Self {
        SqloopError::Db(e)
    }
}

/// Result alias for middleware operations.
pub type SqloopResult<T> = Result<T, SqloopError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SqloopError::from(DbError::NotFound("table r".into()));
        assert!(e.to_string().contains("not found"));
        assert!(std::error::Error::source(&e).is_some());
        let g = SqloopError::Grammar("expected UNTIL".into());
        assert!(std::error::Error::source(&g).is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SqloopError>();
    }

    #[test]
    fn task_display_and_source() {
        let e = SqloopError::Task {
            partition: 7,
            attempt: 3,
            source: Box::new(SqloopError::from(DbError::Connection("dropped".into()))),
        };
        let text = e.to_string();
        assert!(text.contains("partition 7"), "{text}");
        assert!(text.contains("3 attempt"), "{text}");
        assert!(text.contains("dropped"), "{text}");
        let src = std::error::Error::source(&e).expect("task has a source");
        assert!(src.to_string().contains("dropped"));
    }

    #[test]
    fn retryability_classification() {
        assert!(SqloopError::from(DbError::Connection("x".into())).is_retryable());
        assert!(SqloopError::from(DbError::LockTimeout("x".into())).is_retryable());
        assert!(SqloopError::from(DbError::TxnAborted("x".into())).is_retryable());
        assert!(!SqloopError::from(DbError::Parse("x".into())).is_retryable());
        assert!(!SqloopError::from(DbError::NotFound("x".into())).is_retryable());
        assert!(!SqloopError::Grammar("x".into()).is_retryable());
        assert!(!SqloopError::Semantic("x".into()).is_retryable());
        assert!(!SqloopError::Config("x".into()).is_retryable());
        assert!(SqloopError::Worker("pool died".into()).is_retryable());
        assert!(SqloopError::WorkerPanic {
            worker: Some(2),
            detail: "chaos: injected panic".into(),
        }
        .is_retryable());
        assert!(SqloopError::WorkerPanic {
            worker: None,
            detail: "every worker exited".into(),
        }
        .is_retryable());
        assert!(SqloopError::WorkerStalled {
            worker: 1,
            partition: 4,
            waited_ms: 500,
        }
        .is_retryable());
        assert!(!SqloopError::Checkpoint("bad checksum".into()).is_retryable());
        // load shedding backs off and retries; governance verdicts do not
        assert!(SqloopError::from(DbError::Overloaded("shed".into())).is_retryable());
        assert!(!SqloopError::from(DbError::BudgetExceeded("mem".into())).is_retryable());
        assert!(!SqloopError::from(DbError::Timeout("deadline".into())).is_retryable());
        assert!(!SqloopError::NumericDivergence {
            partition: Some(3),
            round: 9,
            detail: "SUM(rank) is inf".into(),
        }
        .is_retryable());
        assert!(!SqloopError::BudgetExceeded {
            what: "max_rounds".into(),
            round: 50,
        }
        .is_retryable());
    }

    #[test]
    fn governance_errors_display_their_evidence() {
        let d = SqloopError::NumericDivergence {
            partition: Some(3),
            round: 9,
            detail: "SUM(rank) is inf".into(),
        };
        let text = d.to_string();
        assert!(text.contains("partition 3"), "{text}");
        assert!(text.contains("round 9"), "{text}");
        assert!(text.contains("inf"), "{text}");
        let whole = SqloopError::NumericDivergence {
            partition: None,
            round: 2,
            detail: "delta not shrinking".into(),
        };
        assert!(!whole.to_string().contains("partition"), "{whole}");
        let b = SqloopError::BudgetExceeded {
            what: "max_rounds".into(),
            round: 50,
        };
        let text = b.to_string();
        assert!(text.contains("max_rounds"), "{text}");
        assert!(text.contains("round 50"), "{text}");
    }

    #[test]
    fn supervision_errors_display_their_evidence() {
        let p = SqloopError::WorkerPanic {
            worker: Some(3),
            detail: "chaos: injected panic".into(),
        };
        let text = p.to_string();
        assert!(text.contains("worker 3"), "{text}");
        assert!(text.contains("injected panic"), "{text}");
        let pool = SqloopError::WorkerPanic {
            worker: None,
            detail: "every worker exited with 2 task(s) in flight".into(),
        };
        assert!(pool.to_string().contains("every worker exited"), "{pool}");
        let s = SqloopError::WorkerStalled {
            worker: 1,
            partition: 4,
            waited_ms: 750,
        };
        let text = s.to_string();
        assert!(text.contains("worker 1"), "{text}");
        assert!(text.contains("partition 4"), "{text}");
        assert!(text.contains("750ms"), "{text}");
    }

    #[test]
    fn task_retryability_delegates_to_its_source() {
        let transient = SqloopError::Task {
            partition: 0,
            attempt: 4,
            source: Box::new(SqloopError::from(DbError::LockTimeout("busy".into()))),
        };
        assert!(transient.is_retryable());
        let fatal = SqloopError::Task {
            partition: 0,
            attempt: 1,
            source: Box::new(SqloopError::Semantic("bad plan".into())),
        };
        assert!(!fatal.is_retryable());
        // nesting keeps delegating
        let nested = SqloopError::Task {
            partition: 1,
            attempt: 2,
            source: Box::new(transient),
        };
        assert!(nested.is_retryable());
    }
}
