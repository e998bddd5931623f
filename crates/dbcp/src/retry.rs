//! Bounded retry with exponential backoff for transient connectivity
//! failures.

use crate::cancel::CancelToken;
use sqldb::{DbError, DbResult};
use std::time::Duration;

/// True for errors worth retrying: connectivity failures, transactional
/// congestion and load shedding that a fresh (backed-off) attempt can
/// clear. Deterministic statement errors (parse, semantic, missing
/// objects) and exhausted budgets are not retried — the same statement
/// against the same limits fails identically.
pub fn is_transient(e: &DbError) -> bool {
    matches!(
        e,
        DbError::Connection(_)
            | DbError::LockTimeout(_)
            | DbError::TxnAborted(_)
            | DbError::Overloaded(_)
    )
}

/// A bounded-attempt retry policy with exponential backoff and
/// deterministic jitter.
///
/// Attempt *n* (0-based) sleeps `base_delay * 2^n` before running, capped
/// at [`RetryPolicy::max_delay`], with up to 25% seeded jitter so callers
/// retrying in lockstep spread out reproducibly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff.
    pub max_delay: Duration,
    /// Seed for the jitter stream; same seed → same delays.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and `base_delay` backoff.
    pub fn new(max_attempts: u32, base_delay: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay,
            ..RetryPolicy::default()
        }
    }

    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy::new(1, Duration::ZERO)
    }

    /// The backoff to sleep before (0-based) retry `attempt`.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        if exp.is_zero() {
            return exp;
        }
        // deterministic jitter in [0, 25%) of the exponential delay
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let jitter = exp.mul_f64((z % 1000) as f64 / 4000.0);
        exp + jitter
    }

    /// Runs `op` until it succeeds, fails non-transiently, or the attempt
    /// budget is exhausted; the closure receives the 0-based attempt index.
    /// Each backoff wait is counted into the caller's `metrics` and is
    /// interruptible: when `cancel` fires mid-wait the pending error is
    /// returned at once instead of finishing the sleep and burning further
    /// attempts. An already-cancelled token still allows the *first*
    /// attempt (callers decide what to do with a cancelled run; this only
    /// stops the policy from waiting on its behalf).
    ///
    /// # Errors
    /// The last error when every attempt fails, the first non-transient
    /// error, or the pending transient error when cancelled mid-backoff.
    pub fn run_with_cancel<T>(
        &self,
        cancel: &CancelToken,
        metrics: &obs::MetricsRegistry,
        mut op: impl FnMut(u32) -> DbResult<T>,
    ) -> DbResult<T> {
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt + 1 < self.max_attempts => {
                    if cancel.cancelled() {
                        return Err(e);
                    }
                    let delay = self.delay_for(attempt);
                    metrics.counter("dbcp.retry.backoff_waits").inc();
                    metrics.histogram("dbcp.retry.backoff_wait").observe(delay);
                    if !cancel.sleep(delay) {
                        return Err(e);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        assert!(is_transient(&DbError::Connection("gone".into())));
        assert!(is_transient(&DbError::LockTimeout("busy".into())));
        assert!(is_transient(&DbError::TxnAborted("deadlock".into())));
        assert!(is_transient(&DbError::Overloaded("shedding".into())));
        assert!(!is_transient(&DbError::Parse("bad".into())));
        assert!(!is_transient(&DbError::NotFound("t".into())));
        assert!(!is_transient(&DbError::Invalid("dup key".into())));
        assert!(!is_transient(&DbError::BudgetExceeded("mem".into())));
        assert!(!is_transient(&DbError::Timeout("deadline".into())));
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let policy = RetryPolicy::new(4, Duration::ZERO);
        let metrics = obs::MetricsRegistry::new();
        let mut calls = 0;
        let out = policy.run_with_cancel(&CancelToken::new(), &metrics, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(DbError::Connection("flaky".into()))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);
        // the two waits land in the caller's registry
        assert_eq!(metrics.counter("dbcp.retry.backoff_waits").get(), 2);
        assert_eq!(metrics.histogram("dbcp.retry.backoff_wait").count(), 2);
    }

    #[test]
    fn gives_up_after_budget() {
        let policy = RetryPolicy::new(3, Duration::ZERO);
        let mut calls = 0;
        let out: DbResult<()> =
            policy.run_with_cancel(&CancelToken::new(), &obs::MetricsRegistry::new(), |_| {
                calls += 1;
                Err(DbError::Connection("still down".into()))
            });
        assert!(matches!(out, Err(DbError::Connection(_))));
        assert_eq!(calls, 3);
    }

    #[test]
    fn non_transient_fails_fast() {
        let policy = RetryPolicy::new(5, Duration::ZERO);
        let mut calls = 0;
        let out: DbResult<()> =
            policy.run_with_cancel(&CancelToken::new(), &obs::MetricsRegistry::new(), |_| {
                calls += 1;
                Err(DbError::Parse("syntax".into()))
            });
        assert!(matches!(out, Err(DbError::Parse(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn cancelled_token_interrupts_backoff() {
        use std::time::Instant;
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_secs(5),
            max_delay: Duration::from_secs(60),
            jitter_seed: 0,
        };
        let cancel = CancelToken::new();
        let canceller = cancel.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            canceller.cancel();
        });
        let started = Instant::now();
        let mut calls = 0;
        let out: DbResult<()> =
            policy.run_with_cancel(&cancel, &obs::MetricsRegistry::new(), |_| {
                calls += 1;
                Err(DbError::Connection("down".into()))
            });
        h.join().unwrap();
        assert!(matches!(out, Err(DbError::Connection(_))));
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "a 5s backoff must be cut short by cancellation"
        );
        assert!(calls <= 2, "no further attempts after cancellation");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            jitter_seed: 7,
        };
        assert!(p.delay_for(0) >= Duration::from_millis(10));
        assert!(p.delay_for(1) >= Duration::from_millis(20));
        // capped at max_delay + 25% jitter
        assert!(p.delay_for(6) <= Duration::from_millis(63));
        // deterministic per seed
        assert_eq!(p.delay_for(3), p.delay_for(3));
    }
}
