//! Runaway-loop watchdog: numeric-divergence probes and delta-trend
//! tracking (see DESIGN.md §12).
//!
//! Iterative queries are user programs: a damping factor above 1, a
//! negative cycle, or a bad termination condition turns the loop into a
//! CPU-and-memory black hole that `UNTIL` will never stop. Beyond the round
//! cap every run has (`SqloopConfig::max_rounds`), the watchdog watches two
//! signals, each off by default:
//!
//! * **numeric probes** — `SUM` over the float columns of the iterating
//!   state; a NaN/±∞ aggregate means the arithmetic has already diverged
//!   and every further round is wasted work
//!   ([`SqloopError::NumericDivergence`] naming the partition and round);
//! * **delta trend** — the per-round update count of a converging run
//!   shrinks over time; when it stops setting new lows for `window`
//!   consecutive rounds the run is flagged as non-converging (oscillation
//!   or a fixed-point the termination condition cannot see). It is off
//!   under `UNTIL n ITERATIONS`, whose runs update a constant number of
//!   rows per round by design.
//!
//! The scheduler consults it at each round boundary, where it decides once
//! whether the run stops: a verdict ends the run governed, like the cap.

use crate::common::run_query;
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::Termination;
use dbcp::Connection;
use obs::{Counter, MetricsRegistry};
use sqldb::DataType;
use std::sync::Arc;

/// Watchdog settings; the default disables every check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogConfig {
    /// Flag the run as non-converging after this many consecutive rounds
    /// without a new minimum update count (`None` = off).
    pub window: Option<u64>,
    /// Probe float aggregates of the iterating state for NaN/±∞ each
    /// round.
    pub numeric_checks: bool,
}

impl WatchdogConfig {
    /// True when at least one check is enabled.
    pub fn is_active(&self) -> bool {
        self.window.is_some() || self.numeric_checks
    }
}

/// Per-run watchdog state. Create one per executed query with
/// [`Watchdog::new`] and feed it every round boundary.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    /// Delta-trend tracking is senseless under `UNTIL n ITERATIONS`.
    trend_enabled: bool,
    best_updates: Option<u64>,
    stale_rounds: u64,
    /// `sqloop.watchdog.numeric_probes` and `.verdicts` of the run.
    probes: Arc<Counter>,
    verdicts: Arc<Counter>,
}

impl Watchdog {
    /// A watchdog for one run of a query terminated by `termination`,
    /// counting its probes and verdicts into the run's `metrics`.
    pub fn new(cfg: WatchdogConfig, termination: &Termination, metrics: &MetricsRegistry) -> Self {
        let trend_enabled =
            cfg.window.is_some() && !matches!(termination, Termination::Iterations(_));
        Watchdog {
            cfg,
            trend_enabled,
            best_updates: None,
            stale_rounds: 0,
            probes: metrics.counter("sqloop.watchdog.numeric_probes"),
            verdicts: metrics.counter("sqloop.watchdog.verdicts"),
        }
    }

    /// Counts and returns a verdict.
    fn verdict(&self, e: SqloopError) -> SqloopError {
        self.verdicts.inc();
        e
    }

    /// Feeds one completed round (`round` is 1-based, `updates` the rows
    /// the round changed) and renders a verdict.
    ///
    /// # Errors
    /// [`SqloopError::NumericDivergence`] when the update trend has been
    /// flat or growing for the configured window.
    pub fn check_round(&mut self, round: u64, updates: u64) -> SqloopResult<()> {
        if self.trend_enabled && updates > 0 {
            let improved = self.best_updates.is_none_or(|best| updates < best);
            if improved {
                self.best_updates = Some(updates);
                self.stale_rounds = 0;
            } else {
                self.stale_rounds += 1;
                let window = self.cfg.window.unwrap_or(u64::MAX);
                if self.stale_rounds >= window {
                    return Err(self.verdict(SqloopError::NumericDivergence {
                        partition: None,
                        round,
                        detail: format!(
                            "update count has not shrunk for {} rounds \
                             (best {}, current {updates}); the run is not converging",
                            self.stale_rounds,
                            self.best_updates.unwrap_or(updates),
                        ),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Checks one gathered aggregate value for NaN/±∞ (no-op when numeric
    /// checks are off): a verdict naming `partition` and `round`.
    fn check_aggregate(
        &self,
        partition: Option<usize>,
        round: u64,
        label: &str,
        value: f64,
    ) -> SqloopResult<()> {
        if self.cfg.numeric_checks && !value.is_finite() {
            return Err(self.verdict(SqloopError::NumericDivergence {
                partition,
                round,
                detail: format!("{label} is {value}"),
            }));
        }
        Ok(())
    }

    /// Probes every float column of `table` with one `SUM(...)` query and
    /// checks the results for NaN/±∞ (no-op when numeric checks are off or
    /// the table has no float columns). `SUM` is the cheapest aggregate
    /// that poisons on any non-finite input: one ∞ row makes the whole sum
    /// non-finite.
    ///
    /// # Errors
    /// Engine errors from the probe query, or
    /// [`SqloopError::NumericDivergence`] naming `partition` and `round`.
    pub fn probe_table(
        &self,
        conn: &mut dyn Connection,
        table: &str,
        columns: &[String],
        types: &[DataType],
        partition: Option<usize>,
        round: u64,
    ) -> SqloopResult<()> {
        if !self.cfg.numeric_checks {
            return Ok(());
        }
        let float_cols: Vec<&String> = columns
            .iter()
            .zip(types)
            .filter(|(_, t)| matches!(t, DataType::Float))
            .map(|(c, _)| c)
            .collect();
        if float_cols.is_empty() {
            return Ok(());
        }
        let probes = float_cols
            .iter()
            .map(|c| format!("SUM({c})"))
            .collect::<Vec<_>>()
            .join(", ");
        self.probes.inc();
        let result = run_query(conn, &format!("SELECT {probes} FROM {table}"))?;
        if let Some(row) = result.rows.first() {
            for (col, value) in float_cols.iter().zip(row) {
                if let Some(v) = value.as_f64() {
                    self.check_aggregate(partition, round, &format!("SUM({col})"), v)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcp::{Driver, LocalDriver};
    use sqldb::{Database, EngineProfile};

    fn term_updates() -> Termination {
        Termination::Updates(0)
    }

    #[test]
    fn default_config_checks_nothing() {
        let mut w = Watchdog::new(
            WatchdogConfig::default(),
            &term_updates(),
            &obs::MetricsRegistry::new(),
        );
        assert!(!WatchdogConfig::default().is_active());
        for round in 1..=10_000 {
            w.check_round(round, 42).unwrap();
        }
        w.check_aggregate(Some(1), 5, "SUM(rank)", f64::INFINITY)
            .unwrap();
    }

    #[test]
    fn non_finite_aggregate_names_partition_and_round() {
        let cfg = WatchdogConfig {
            numeric_checks: true,
            ..WatchdogConfig::default()
        };
        let w = Watchdog::new(cfg, &term_updates(), &obs::MetricsRegistry::new());
        w.check_aggregate(Some(3), 7, "SUM(rank)", 123.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = w.check_aggregate(Some(3), 7, "SUM(rank)", bad).unwrap_err();
            match err {
                SqloopError::NumericDivergence {
                    partition: Some(3),
                    round: 7,
                    detail,
                } => assert!(detail.contains("SUM(rank)"), "{detail}"),
                other => panic!("expected divergence: {other:?}"),
            }
        }
    }

    #[test]
    fn flat_update_trend_is_flagged_after_the_window() {
        let cfg = WatchdogConfig {
            window: Some(4),
            ..WatchdogConfig::default()
        };
        let mut w = Watchdog::new(cfg, &term_updates(), &obs::MetricsRegistry::new());
        // shrinking updates: healthy convergence, stale counter resets
        for (round, updates) in [(1, 100), (2, 80), (3, 90), (4, 50)] {
            w.check_round(round, updates).unwrap();
        }
        // oscillation: never below 50 again
        for round in 5..8 {
            w.check_round(round, 60).unwrap();
        }
        let err = w.check_round(8, 60).unwrap_err();
        assert!(
            matches!(
                &err,
                SqloopError::NumericDivergence {
                    partition: None,
                    round: 8,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn trend_is_gated_off_for_iteration_termination() {
        let cfg = WatchdogConfig {
            window: Some(2),
            ..WatchdogConfig::default()
        };
        // fixed iteration counts update a constant row set per round by
        // design — not divergence
        let mut w = Watchdog::new(
            cfg,
            &Termination::Iterations(50),
            &obs::MetricsRegistry::new(),
        );
        for round in 1..=40 {
            w.check_round(round, 100).unwrap();
        }
    }

    #[test]
    fn zero_update_rounds_never_count_as_stale() {
        let cfg = WatchdogConfig {
            window: Some(2),
            ..WatchdogConfig::default()
        };
        let mut w = Watchdog::new(cfg, &term_updates(), &obs::MetricsRegistry::new());
        for round in 1..=10 {
            w.check_round(round, 0).unwrap();
        }
    }

    #[test]
    fn probe_table_spots_an_infinite_row() {
        let db = Database::new(EngineProfile::Postgres);
        let mut conn = LocalDriver::new(db).connect().unwrap();
        conn.execute("CREATE TABLE part3 (id INT, rank FLOAT, delta FLOAT)")
            .unwrap();
        conn.execute("INSERT INTO part3 VALUES (1, 0.5, 0.1), (2, 1.5, 0.2)")
            .unwrap();
        let cfg = WatchdogConfig {
            numeric_checks: true,
            ..WatchdogConfig::default()
        };
        let metrics = obs::MetricsRegistry::new();
        let w = Watchdog::new(cfg, &term_updates(), &metrics);
        let columns = vec!["id".to_owned(), "rank".to_owned(), "delta".to_owned()];
        let types = vec![DataType::Int, DataType::Float, DataType::Float];
        w.probe_table(conn.as_mut(), "part3", &columns, &types, Some(3), 2)
            .unwrap();
        conn.execute("INSERT INTO part3 VALUES (3, Infinity, 0.0)")
            .unwrap();
        let err = w
            .probe_table(conn.as_mut(), "part3", &columns, &types, Some(3), 2)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                SqloopError::NumericDivergence {
                    partition: Some(3),
                    round: 2,
                    ..
                }
            ),
            "{err:?}"
        );
        // two probes ran, one of them a verdict
        assert_eq!(metrics.counter("sqloop.watchdog.numeric_probes").get(), 2);
        assert_eq!(metrics.counter("sqloop.watchdog.verdicts").get(), 1);
        // off = free: the same poisoned table passes
        let off = Watchdog::new(
            WatchdogConfig::default(),
            &term_updates(),
            &obs::MetricsRegistry::new(),
        );
        off.probe_table(conn.as_mut(), "part3", &columns, &types, Some(3), 2)
            .unwrap();
    }
}
