//! Sample statistics and the small amount of JSON the benchmark writes.

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; the sample itself for fewer than 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the `f64` has (`0` for a non-finite one).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Summary of the timed reps of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reps {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub count: usize,
}

impl Reps {
    pub fn of(samples: &[f64]) -> Reps {
        let (q1, q3) = quartiles(samples);
        Reps {
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(samples),
            q3,
            count: samples.len(),
        }
    }
}

/// One metric of a run: its value and unit, and for end-to-end metrics
/// the reps the value summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The timed reps behind the value.
    pub reps: Option<Reps>,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Counts of the first timed rep that repeat exactly on workloads whose
    /// schedule is deterministic (`--agree` compares them).
    pub counts: Vec<(&'static str, u64)>,
}

impl RunResult {
    /// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One `workload metric value unit` line per metric.
    pub fn print_lines(&self, workload: &str) {
        for m in &self.metrics {
            match m.reps {
                Some(r) => println!(
                    "{workload} {} {} {} (min {:.6} q1 {:.6} median {:.6} q3 {:.6} reps {})",
                    m.name,
                    number(m.value),
                    m.unit,
                    r.min,
                    r.q1,
                    r.median,
                    r.q3,
                    r.count
                ),
                None => println!("{workload} {} {} {}", m.name, number(m.value), m.unit),
            }
        }
        println!(
            "{workload} failed_share {} fraction ({} of {})",
            number(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let run = RunResult {
            attempted: 12,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.0123456789,
                reps: None,
            }],
            counts: Vec::new(),
        };
        assert_eq!(
            run.driver_line(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.0123456789, \"unit\": \"s\"}}}"
        );
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(number(f64::NAN), "0");
    }
}
