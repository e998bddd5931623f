//! The measuring protocol: one discarded warm-up rep, then timed reps until
//! the budget is spent; every value reported is the median of the timed
//! reps. End-to-end numbers come from untraced reps only; the traced run
//! alternates untraced and traced reps so `trace.overhead` compares like
//! with like, then runs the layer probes.

use crate::inputs::Scale;
use crate::jobs::{Prepared, Rep};
use crate::probes;
use crate::report::{median, Metric, Reps, RunResult};
use crate::span::{Class, SpanSink, Trace, TraceSummary};
use crate::spec::{END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::time::Instant;

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Timed reps until this many seconds have passed, and at least
    /// [`MIN_REPS`].
    Seconds(f64),
    /// Exactly this many timed reps.
    Reps(usize),
}

/// A median of fewer reps than this says little.
const MIN_REPS: usize = 3;

impl Budget {
    fn spent(&self, since: Instant, reps: usize) -> bool {
        match *self {
            Budget::Seconds(s) => reps >= MIN_REPS && since.elapsed().as_secs_f64() >= s,
            Budget::Reps(n) => reps >= n.max(1),
        }
    }

    fn halved(&self) -> Budget {
        match *self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            reps => reps,
        }
    }
}

/// Failures and attempts of a run, and the reps that completed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts the rep; a rep whose set-up failed counts as one failed job.
    fn take(&mut self, rep: Result<Rep, String>) -> Option<Rep> {
        match rep {
            Ok(rep) => {
                self.attempted += rep.attempted;
                self.failed += rep.failed;
                Some(rep)
            }
            Err(why) => {
                eprintln!("rep failed before its job ran: {why}");
                self.attempted += 1;
                self.failed += 1;
                None
            }
        }
    }
}

/// Untraced reps; reports every end-to-end metric. `None` when no rep
/// completed, so there is nothing to report.
pub fn end_to_end(prepared: &Prepared, budget: Budget) -> Option<RunResult> {
    let _warm_up = prepared.rep(None);
    let mut tally = Tally::default();
    let mut reps = Vec::new();
    let started = Instant::now();
    while !budget.spent(started, reps.len()) && tally.failed < MIN_REPS as u64 {
        reps.extend(tally.take(prepared.rep(None)));
    }
    if reps.is_empty() {
        return None;
    }
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let samples: Vec<f64> = reps
                .iter()
                .map(|r| match m.name {
                    "setup_s" => r.setup_s,
                    "fixpoint_s" => r.fixpoint_s,
                    "peak_mem_mb" => r.peak_mem_mb,
                    other => unreachable!("end-to-end metric {other} has no sample"),
                })
                .collect();
            let reps = Reps::of(&samples);
            Metric {
                name: m.name,
                unit: m.unit,
                value: reps.median,
                reps: Some(reps),
            }
        })
        .collect();
    let first = &reps[0].layers;
    Some(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        counts: vec![
            ("sqloop.rounds", first.rounds),
            ("sqldb.statements", first.engine.statements),
            ("sqldb.rows_scanned", first.engine.rows_scanned),
        ],
    })
}

/// What one traced rep says about each layer.
fn layer_values(rep: &Rep, trace: &TraceSummary) -> Vec<(&'static str, f64)> {
    let l = &rep.layers;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut out = vec![
        ("sqloop.rounds", l.rounds as f64),
        ("sqloop.computes", l.computes as f64),
        ("sqloop.gathers", l.gathers as f64),
        ("sqloop.messages", l.messages as f64),
        ("sqloop.worker_busy_s", l.worker_busy_s),
        ("sqloop.self_s", trace.self_s),
        ("sqloop.overlap", trace.overlap),
        ("dbcp.calls", trace.calls as f64),
        ("dbcp.statements", trace.statements as f64),
        ("dbcp.pipelines", trace.pipelines as f64),
        (
            "dbcp.stmts_per_pipeline",
            ratio(trace.pipeline_statements as f64, trace.pipelines as f64),
        ),
        ("dbcp.connects", trace.connects as f64),
        ("dbcp.call_s", trace.call_s),
        ("dbcp.calls_per_s", ratio(trace.calls as f64, trace.root_s)),
        ("dbcp.call_p50_us", trace.call_p50_us),
        ("dbcp.call_p95_us", trace.call_p95_us),
        ("dbcp.call_p99_us", trace.call_p99_us),
        ("sqldb.statements", l.engine.statements as f64),
        ("sqldb.rows_scanned", l.engine.rows_scanned as f64),
        ("sqldb.rows_joined", l.engine.rows_joined as f64),
        ("sqldb.index_lookups", l.engine.index_lookups as f64),
        ("sqldb.lock_waits", l.engine.lock_waits as f64),
        (
            "sqldb.plan_cache_hit_rate",
            ratio(l.plan_hits as f64, (l.plan_hits + l.plan_misses) as f64),
        ),
        (
            "sqldb.rows_scanned_per_stmt",
            ratio(l.engine.rows_scanned as f64, l.engine.statements as f64),
        ),
        (
            "trace.coverage",
            ratio(trace.statements as f64, l.engine.statements as f64),
        ),
    ];
    out.extend(
        Class::ALL
            .iter()
            .zip(trace.shares)
            .map(|(class, share)| (class.share_metric(), share)),
    );
    out
}

/// The traced run and the probes; reports every per-layer metric, and hands
/// back the last trace for the trace file.
pub fn per_layer(
    prepared: &Prepared,
    budget: Budget,
    scale: &Scale,
    seed: u64,
) -> Option<(RunResult, Trace)> {
    let _warm_up = prepared.rep(None);
    let mut tally = Tally::default();
    let (mut plain, mut traced, mut last_trace) = (Vec::new(), Vec::new(), None);
    let budget = budget.halved();
    let started = Instant::now();
    while !budget.spent(started, traced.len()) && tally.failed < MIN_REPS as u64 {
        // pairs alternate which kind goes first, so neither kind always
        // inherits the other's caches and the host's idle state
        for traced_now in [traced.len() % 2 == 1, traced.len() % 2 == 0] {
            if !traced_now {
                plain.extend(tally.take(prepared.rep(None)).map(|r| r.fixpoint_s));
                continue;
            }
            let sink = SpanSink::new();
            if let Some(rep) = tally.take(prepared.rep(Some(&sink))) {
                let trace = sink.finish();
                traced.push((rep.fixpoint_s, layer_values(&rep, &trace.summary())));
                last_trace = Some(trace);
            }
        }
    }
    let last_trace = last_trace?;
    if plain.is_empty() {
        return None;
    }

    // every traced rep lists the same metrics in the same order
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    for (i, (name, _)) in traced[0].1.iter().enumerate() {
        let samples: Vec<f64> = traced.iter().map(|(_, rep)| rep[i].1).collect();
        values.insert(name, median(&samples));
    }
    let traced_s: Vec<f64> = traced.iter().map(|(s, _)| *s).collect();
    values.insert("trace.overhead", median(&traced_s) / median(&plain) - 1.0);
    values.extend(probes::run_all(scale, seed));

    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: *values
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name)),
            reps: None,
        })
        .collect();
    Some((
        RunResult {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            counts: Vec::new(),
        },
        last_trace,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_smoke_rep_reports_every_metric_of_both_kinds() {
        let prepared = Prepared::new("dq_async_tcp", Scale::SMOKE, 9).unwrap();
        let run = end_to_end(&prepared, Budget::Reps(1)).unwrap();
        assert_eq!((run.attempted, run.failed), (1, 0));
        let names: Vec<_> = run.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert!(run.metrics.iter().all(|m| m.value > 0.0));

        let (run, trace) = per_layer(&prepared, Budget::Reps(1), &Scale::SMOKE, 9).unwrap();
        assert_eq!((run.attempted, run.failed), (2, 0));
        assert_eq!(run.metrics.len(), PER_LAYER.len());
        assert!(run.value("trace.coverage").unwrap() >= 0.99);
        assert!(run.value("sqloop.rounds").unwrap() >= 1.0);
        assert!(run.value("dbcp.connects").unwrap() >= 3.0);
        assert!(!trace.spans.is_empty());
        let shares: f64 = Class::ALL
            .iter()
            .map(|c| run.value(c.share_metric()).unwrap())
            .sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }
}
