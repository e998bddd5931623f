//! Observability for the SQLoop reproduction: lock-free metrics
//! (counters/gauges/latency histograms behind a registry per owner) and
//! per-run tracing (Compute/Gather/iteration spans plus retry/reconnect/
//! downgrade events) with text-timeline and JSON exporters.
//!
//! The crate has no heavyweight dependencies (only `parking_lot`) so every
//! layer of the stack — engine, connection pool, executors, CLI, benches —
//! can record into it. Design notes live in `DESIGN.md` §10.
//!
//! # Quick tour
//! ```
//! use obs::{EventKind, Span, SpanKind, SpanOutcome, TraceHandle};
//! use std::time::Duration;
//!
//! // Metrics: cheap atomic handles resolved once, updated lock-free.
//! let reg = obs::MetricsRegistry::new();
//! let hits = reg.counter("demo.cache.hits");
//! hits.inc();
//! reg.histogram("demo.op").observe(Duration::from_micros(120));
//! assert_eq!(reg.snapshot().counters["demo.cache.hits"], 1);
//!
//! // Tracing: spans/events recorded through a handle that is a no-op
//! // (no clock read, no lock) when tracing is off.
//! let trace = TraceHandle::new(true);
//! let start = trace.now_us();
//! trace.span(Span {
//!     kind: SpanKind::Compute,
//!     partition: Some(0),
//!     iteration: Some(1),
//!     worker: Some(0),
//!     attempt: 1,
//!     rows: 42,
//!     outcome: SpanOutcome::Ok,
//!     start_us: start,
//!     end_us: trace.now_us(),
//! });
//! trace.event(EventKind::Round, None, Some(1), "round complete");
//!
//! // Export: summarize, render a per-worker timeline, or emit JSON.
//! let data = trace.data().unwrap();
//! let summary = obs::TraceSummary::from_data(&data);
//! assert_eq!(summary.compute_spans, 1);
//! let doc = obs::trace_to_json(&data, None);
//! assert!(obs::json::parse(&doc).is_ok());
//! ```

#![warn(missing_docs)]

mod export;
pub mod json;
mod metrics;
mod trace;

pub use export::{
    prometheus_label_escape, prometheus_text, timeline, trace_to_json, validate_prometheus_text,
    validate_trace_json, write_trace_json, TraceSummary,
};
pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
    HISTOGRAM_BUCKETS,
};
pub use trace::{Event, EventKind, Span, SpanKind, SpanOutcome, TraceData, TraceHandle};
