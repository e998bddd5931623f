//! # sqloop-bench — harness utilities for regenerating the paper's figures
//!
//! Shared plumbing for the `fig4_single_thread`, `fig5_scaling`,
//! `fig6_script_vs_sqloop` and `table1_terminations` binaries: environment
//! setup per engine profile, wall-clock timing, convergence-time extraction,
//! plain-text tables and CSV emission (written under `results/`).

#![warn(missing_docs)]

pub mod report;
pub mod runner;

pub use report::{write_csv, Table};
pub use runner::{convergence_time, env_with_graph, parse_args, time_it, BenchArgs, BenchEnv};
