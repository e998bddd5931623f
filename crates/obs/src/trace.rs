//! Per-run trace recording: timestamped spans (Compute/Gather tasks,
//! single-threaded iterations) and point events (retries, reconnects,
//! downgrades, round boundaries), behind a cheap handle that is a no-op
//! when tracing is off.
//!
//! All timestamps are microseconds since the [`TraceHandle`] was created,
//! so traces from one run are directly comparable and serialize compactly.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A Compute task on one partition (parallel engine).
    Compute,
    /// A Gather task on one partition (parallel engine).
    Gather,
    /// One iteration of the single-threaded executor.
    Iteration,
}

impl SpanKind {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Gather => "gather",
            SpanKind::Iteration => "iteration",
        }
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanOutcome {
    /// The task/iteration completed.
    Ok,
    /// The task attempt failed (it may be replayed as a new span).
    Failed,
}

impl SpanOutcome {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Failed => "failed",
        }
    }
}

/// One timed unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Partition the task ran on (parallel engine only).
    pub partition: Option<u32>,
    /// Iteration / scheduler round the work belonged to.
    pub iteration: Option<u64>,
    /// Worker thread index that ran the task (parallel engine only).
    pub worker: Option<u32>,
    /// 1-based dispatch attempt (> 1 for replays of a failed task).
    pub attempt: u32,
    /// Rows changed/produced by the work.
    pub rows: u64,
    /// How it ended.
    pub outcome: SpanOutcome,
    /// Start, µs since the trace began.
    pub start_us: u64,
    /// End, µs since the trace began.
    pub end_us: u64,
}

/// What a point event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A failed task was re-dispatched (replay).
    Retry,
    /// A worker reopened its engine connection.
    Reconnect,
    /// Parallel execution was abandoned for the single-threaded executor.
    Downgrade,
    /// A scheduler round / iteration boundary.
    Round,
    /// Per-round plan-cache attribution: hit/miss deltas over the round,
    /// tagged with the scheduler mode in the detail string.
    PlanCache,
    /// A Sync-mode phase barrier completed.
    Barrier,
    /// A task attempt failed (transient or not).
    Fault,
    /// The progress sampler failed to take a sample.
    SampleFailed,
    /// A partition's priority query failed mid-run; the partition keeps
    /// the priority it had.
    PriorityFailed,
    /// A durable checkpoint of loop state was written.
    Checkpoint,
    /// A run was restored from a checkpoint manifest.
    Resume,
    /// Cooperative cancellation was observed (deadline or request).
    Cancel,
    /// The resource watchdog rendered a verdict (budget exhausted or
    /// numeric divergence) and the run aborted governed.
    Watchdog,
    /// The supervisor judged a busy worker stalled (heartbeat silent past
    /// the stall timeout) and abandoned it.
    Stall,
    /// A worker panic was absorbed: caught at the task boundary,
    /// discovered at thread join, or a dead-thread verdict mid-task.
    Panic,
    /// A replacement worker was spawned for an abandoned one.
    Replace,
}

impl EventKind {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Retry => "retry",
            EventKind::Reconnect => "reconnect",
            EventKind::Downgrade => "downgrade",
            EventKind::Round => "round",
            EventKind::PlanCache => "plan_cache",
            EventKind::Barrier => "barrier",
            EventKind::Fault => "fault",
            EventKind::SampleFailed => "sample_failed",
            EventKind::PriorityFailed => "priority_failed",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Resume => "resume",
            EventKind::Cancel => "cancel",
            EventKind::Watchdog => "watchdog",
            EventKind::Stall => "stall",
            EventKind::Panic => "panic",
            EventKind::Replace => "replace",
        }
    }
}

/// One point-in-time occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// When, µs since the trace began.
    pub at_us: u64,
    /// Partition involved, when one was.
    pub partition: Option<u32>,
    /// Iteration / round the event belongs to, when known.
    pub iteration: Option<u64>,
    /// Free-form context (error text, counts).
    pub detail: String,
}

/// A finished (or in-progress) trace: everything recorded so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceData {
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Recorded events, in arrival order.
    pub events: Vec<Event>,
    /// µs from trace start to the snapshot.
    pub duration_us: u64,
}

#[derive(Debug)]
struct TraceBuffer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    events: Mutex<Vec<Event>>,
}

/// A cheap, clonable recorder handle. When created disabled, every method
/// returns immediately without taking a timestamp or a lock, so leaving
/// instrumentation in hot paths costs one branch.
///
/// # Examples
/// ```
/// use obs::{EventKind, Span, SpanKind, SpanOutcome, TraceHandle};
///
/// let trace = TraceHandle::new(true);
/// let t0 = trace.now_us();
/// // ... do the work ...
/// trace.span(Span {
///     kind: SpanKind::Compute,
///     partition: Some(3),
///     iteration: Some(1),
///     worker: Some(0),
///     attempt: 1,
///     rows: 42,
///     outcome: SpanOutcome::Ok,
///     start_us: t0,
///     end_us: trace.now_us(),
/// });
/// trace.event(EventKind::Round, None, Some(1), "round complete");
/// let data = trace.data().unwrap();
/// assert_eq!(data.spans.len(), 1);
/// assert_eq!(data.events[0].kind, EventKind::Round);
///
/// let off = TraceHandle::disabled();
/// off.event(EventKind::Retry, None, None, "dropped");
/// assert!(off.data().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Arc<TraceBuffer>>);

impl TraceHandle {
    /// An enabled handle when `enabled`, otherwise a no-op handle.
    pub fn new(enabled: bool) -> TraceHandle {
        if enabled {
            TraceHandle(Some(Arc::new(TraceBuffer {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
            })))
        } else {
            TraceHandle(None)
        }
    }

    /// A handle that records nothing (the `Default`).
    pub fn disabled() -> TraceHandle {
        TraceHandle(None)
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// µs since the trace began (0 when disabled — no clock is read).
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            Some(b) => b.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            None => 0,
        }
    }

    /// Records a finished span.
    pub fn span(&self, span: Span) {
        if let Some(b) = &self.0 {
            b.spans.lock().push(span);
        }
    }

    /// Records a point event at the current time.
    pub fn event(
        &self,
        kind: EventKind,
        partition: Option<u32>,
        iteration: Option<u64>,
        detail: impl Into<String>,
    ) {
        if let Some(b) = &self.0 {
            let at_us = b.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            b.events.lock().push(Event {
                kind,
                at_us,
                partition,
                iteration,
                detail: detail.into(),
            });
        }
    }

    /// A copy of everything recorded so far (`None` when disabled).
    pub fn data(&self) -> Option<TraceData> {
        self.0.as_ref().map(|b| TraceData {
            spans: b.spans.lock().clone(),
            events: b.events.lock().clone(),
            duration_us: b.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reads_no_clock() {
        let t = TraceHandle::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_us(), 0);
        t.span(Span {
            kind: SpanKind::Gather,
            partition: None,
            iteration: None,
            worker: None,
            attempt: 1,
            rows: 0,
            outcome: SpanOutcome::Ok,
            start_us: 0,
            end_us: 0,
        });
        t.event(EventKind::Fault, None, None, "x");
        assert!(t.data().is_none());
    }

    #[test]
    fn enabled_handle_orders_events_and_timestamps() {
        let t = TraceHandle::new(true);
        t.event(EventKind::Retry, Some(1), None, "a");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.event(EventKind::Reconnect, Some(2), None, "b");
        let d = t.data().unwrap();
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].kind, EventKind::Retry);
        assert!(d.events[1].at_us >= d.events[0].at_us);
        assert!(d.duration_us >= d.events[1].at_us);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = TraceHandle::new(true);
        let t2 = t.clone();
        t2.event(EventKind::Round, None, Some(1), "");
        assert_eq!(t.data().unwrap().events.len(), 1);
    }

    #[test]
    fn concurrent_span_recording_loses_nothing() {
        let t = TraceHandle::new(true);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        let start = t.now_us();
                        t.span(Span {
                            kind: SpanKind::Compute,
                            partition: Some(i),
                            iteration: None,
                            worker: Some(w),
                            attempt: 1,
                            rows: 1,
                            outcome: SpanOutcome::Ok,
                            start_us: start,
                            end_us: t.now_us(),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.data().unwrap().spans.len(), 1000);
    }
}
