//! # sqloop — iterative SQL middleware (ICDCS 2018 reproduction)
//!
//! SQLoop extends SQL with **iterative CTEs**
//! (`WITH ITERATIVE R AS (R0 ITERATE Ri UNTIL Tc) Qf`) and executes them —
//! plus standard recursive CTEs — against any engine behind a
//! [`dbcp::Driver`], transparently parallelizing iterative queries that
//! contain `SUM`/`MIN`/`MAX`/`COUNT`/`AVG` over a self-join in synchronous
//! (`Sync`), asynchronous (`Async`) and prioritized asynchronous (`AsyncP`)
//! modes.
//!
//! The middleware never computes on the data itself: it manages partitions,
//! message tables, the statements submitted to the target engine, and the
//! thread scheduling — exactly the architecture of the paper (§IV).
//!
//! ## Quick start
//!
//! ```
//! use sqloop::SQLoop;
//!
//! # fn main() -> Result<(), sqloop::SqloopError> {
//! let sqloop = SQLoop::connect("local://postgres")?;
//! sqloop.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")?;
//! sqloop.execute("INSERT INTO edges VALUES (1,2,1.0), (2,1,1.0)")?;
//! // the paper's Example 1: recursive CTE
//! let fib = sqloop.execute(
//!     "WITH RECURSIVE f(n, pn) AS (VALUES (0, 1) UNION ALL \
//!      SELECT n + pn, n FROM f WHERE n < 1000) SELECT SUM(n) FROM f",
//! )?;
//! assert_eq!(fib.rows[0][0], sqldb::Value::Int(4180));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod api;
pub mod checkpoint;
pub mod ckpt_io;
pub mod common;
mod config;
mod error;
pub mod grammar;
pub mod parallel;
pub mod parallel_sql;
pub mod progress;
mod router;
pub mod supervisor;
pub mod translate;
pub mod watchdog;

pub use analysis::{analyze, AnalysisOutcome, ParallelPlan};
pub use api::{DigestReport, ExecutionReport, SQLoop, Strategy, DIGEST_MISS_TOP_K};
pub use checkpoint::{CheckpointConfig, Checkpointer, LoopSnapshot, RecoveredSnapshot};
pub use ckpt_io::{CkptIo, RealFs, StorageFault, TornFs};
pub use config::{ExecutionMode, PrioritySpec, SqloopConfig, TraceConfig};
pub use dbcp::CancelToken;
pub use error::{SqloopError, SqloopResult};
pub use grammar::{parse, IterativeCte, RecursiveCte, SqloopQuery, Termination};
pub use parallel::{run_iterative, IterativeRun, Layout, RunOutcome};
pub use progress::{ProgressSample, RecoveryCounters, Sampler};
pub use router::SqloopRouter;
pub use watchdog::{Watchdog, WatchdogConfig};
