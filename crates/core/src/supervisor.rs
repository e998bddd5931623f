//! Worker supervision primitives: lock-free heartbeats and the
//! completion-vs-abandonment handshake (DESIGN.md §16).
//!
//! Each scheduler worker owns one [`HeartbeatSlot`] that it updates with
//! plain atomic stores while it works; the scheduler (running on the
//! master thread) reads the slots every barrier poll tick. Two verdicts
//! come out of those reads:
//!
//! * **dead** — the worker's thread finished while its slot still says
//!   `BUSY` (a panic escaped the task boundary);
//! * **stalled** — the heartbeat has been silent longer than the
//!   configured `stall_timeout`.
//!
//! Either way the scheduler must *abandon* the worker and replay its task
//! on a replacement. The danger is the race where the worker completes in
//! the instant between the verdict and the remediation — replaying a task
//! whose `Done` is about to land would apply the round's non-idempotent
//! final `UPDATE` twice. The slot's state machine makes the decision
//! atomic:
//!
//! ```text
//!             begin_task                    try_complete (worker CAS)
//!   IDLE ────────────────────▶ BUSY ────────────────────▶ DONE_PENDING
//!                                │                             │ finish
//!                                │ try_abandon (master CAS)    ▼
//!                                └───────────▶ ABANDONED     IDLE
//! ```
//!
//! Exactly one of the two compare-and-swaps out of `BUSY` can win. A
//! worker that loses (finds itself `ABANDONED`) discards its result and
//! exits without sending; a supervisor that loses (the worker reached
//! `DONE_PENDING` first) skips remediation because the `Done` is already
//! en route.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Slot state: worker waiting for a task.
pub const STATE_IDLE: u8 = 0;
/// Slot state: worker executing a task.
pub const STATE_BUSY: u8 = 1;
/// Slot state: worker finished the task and is about to send its `Done`.
pub const STATE_DONE_PENDING: u8 = 2;
/// Slot state: the supervisor gave up on this worker; any result it
/// produces must be discarded.
pub const STATE_ABANDONED: u8 = 3;

/// One worker's lock-free heartbeat: last-progress timestamp plus the id
/// of the task it is working on. Written
/// by the worker, read by the scheduler; all accesses are relaxed — the
/// `Done` channel provides the ordering that matters, and a heartbeat
/// read that is a tick stale only delays a verdict by one poll.
#[derive(Debug)]
pub struct HeartbeatSlot {
    state: AtomicU8,
    /// Microseconds since the pool's epoch at the last sign of progress.
    beat_us: AtomicU64,
    task_id: AtomicU64,
}

impl HeartbeatSlot {
    /// A fresh slot in `IDLE` with its heartbeat at `now_us`.
    pub fn new(now_us: u64) -> HeartbeatSlot {
        HeartbeatSlot {
            state: AtomicU8::new(STATE_IDLE),
            beat_us: AtomicU64::new(now_us),
            task_id: AtomicU64::new(0),
        }
    }

    /// Worker: publish the task it just claimed and enter `BUSY`.
    pub fn begin_task(&self, now_us: u64, task_id: u64) {
        self.task_id.store(task_id, Ordering::Relaxed);
        self.beat_us.store(now_us, Ordering::Relaxed);
        self.state.store(STATE_BUSY, Ordering::Relaxed);
    }

    /// Worker: record progress (connect finished, retry about to sleep, …).
    pub fn beat(&self, now_us: u64) {
        self.beat_us.store(now_us, Ordering::Relaxed);
    }

    /// Worker: try to move `BUSY → DONE_PENDING` before sending the
    /// `Done`. Returns `false` when the supervisor abandoned this worker
    /// first — the result must be discarded and the worker should exit.
    pub fn try_complete(&self) -> bool {
        self.state
            .compare_exchange(
                STATE_BUSY,
                STATE_DONE_PENDING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Worker: back to `IDLE` after the `Done` was sent.
    pub fn finish(&self, now_us: u64) {
        self.beat_us.store(now_us, Ordering::Relaxed);
        self.state.store(STATE_IDLE, Ordering::Relaxed);
    }

    /// Supervisor: try to move `BUSY → ABANDONED`. Returns `false` when
    /// the worker completed first (its `Done` is en route) — remediation
    /// must be skipped.
    pub fn try_abandon(&self) -> bool {
        self.state
            .compare_exchange(
                STATE_BUSY,
                STATE_ABANDONED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Current state (one of the `STATE_*` constants).
    pub fn state(&self) -> u8 {
        self.state.load(Ordering::Relaxed)
    }

    /// Last heartbeat, in microseconds since the pool's epoch.
    pub fn beat_us(&self) -> u64 {
        self.beat_us.load(Ordering::Relaxed)
    }

    /// Task id of the (last) task this slot worked on.
    pub fn task_id(&self) -> u64 {
        self.task_id.load(Ordering::Relaxed)
    }
}

/// Microseconds elapsed since `epoch` — the clock heartbeats are stamped
/// with. Saturates instead of panicking on pathological clocks.
pub fn now_us(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Renders a `catch_unwind` payload as text: `&str` and `String` payloads
/// (everything `panic!` produces in practice) come through verbatim.
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn completion_beats_abandonment() {
        let slot = HeartbeatSlot::new(0);
        slot.begin_task(10, 7);
        assert_eq!(slot.state(), STATE_BUSY);
        assert_eq!(slot.task_id(), 7);
        // worker wins the race…
        assert!(slot.try_complete());
        // …so the supervisor must not remediate
        assert!(!slot.try_abandon());
        slot.finish(20);
        assert_eq!(slot.state(), STATE_IDLE);
        assert_eq!(slot.beat_us(), 20);
    }

    #[test]
    fn abandonment_beats_completion() {
        let slot = HeartbeatSlot::new(0);
        slot.begin_task(10, 7);
        // supervisor wins the race…
        assert!(slot.try_abandon());
        assert_eq!(slot.state(), STATE_ABANDONED);
        // …so the worker must discard its result
        assert!(!slot.try_complete());
        // and the verdict is sticky
        assert!(!slot.try_abandon());
    }

    #[test]
    fn exactly_one_side_wins_under_contention() {
        for _ in 0..200 {
            let slot = Arc::new(HeartbeatSlot::new(0));
            slot.begin_task(1, 1);
            let a = Arc::clone(&slot);
            let b = Arc::clone(&slot);
            let t1 = std::thread::spawn(move || a.try_complete());
            let t2 = std::thread::spawn(move || b.try_abandon());
            let completed = t1.join().unwrap();
            let abandoned = t2.join().unwrap();
            assert!(
                completed ^ abandoned,
                "exactly one CAS out of BUSY may succeed (completed={completed}, abandoned={abandoned})"
            );
        }
    }

    #[test]
    fn heartbeat_is_visible_to_the_reader() {
        let slot = HeartbeatSlot::new(5);
        assert_eq!(slot.beat_us(), 5);
        slot.beat(99);
        assert_eq!(slot.beat_us(), 99);
    }

    #[test]
    fn panic_payloads_render() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(panic_detail(p.as_ref()), "boom 42");
        let p = std::panic::catch_unwind(|| panic!("plain")).unwrap_err();
        assert_eq!(panic_detail(p.as_ref()), "plain");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_detail(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn now_us_is_monotonicish() {
        let epoch = Instant::now();
        let a = now_us(epoch);
        let b = now_us(epoch);
        assert!(b >= a);
    }
}
