//! Samples, metrics and the benchmark's output.
//!
//! Every metric carries its sample count. A median is always reported with
//! that count; a higher percentile only when at least [`TAIL_SAMPLES`]
//! samples lie beyond it. A metric a workload cannot produce (an idle layer,
//! too few samples) is explicitly n/a: the report says so and why, and the
//! machine-readable line carries 0 for it.

/// Samples that must lie beyond a percentile above the median before it is
/// reported.
pub const TAIL_SAMPLES: usize = 10;

/// A set of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    samples: Vec<f64>,
}

impl Tally {
    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Tally) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// The `q`-quantile (`0 < q < 1`) by linear interpolation between order
    /// statistics, or `None` without samples. For `q > 0.5` it is also
    /// `None` unless [`TAIL_SAMPLES`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.samples.len();
        // the epsilon keeps 0.1 × 100 from rounding below 10
        if n == 0 || (q > 0.5 && (1.0 - q) * n as f64 + 1e-9 < TAIL_SAMPLES as f64) {
            return None;
        }
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
    }

    /// The median, or `None` without samples.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value, or the reason it is n/a.
    pub value: Result<f64, String>,
    /// How many samples the value rests on.
    pub samples: usize,
}

impl Metric {
    /// A measured value resting on `samples` samples. A non-finite value is
    /// recorded as n/a.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        let value =
            if value.is_finite() { Ok(value) } else { Err(format!("non-finite ({value})")) };
        Metric { name: name.to_string(), unit, value, samples }
    }

    /// A value that exists only if `value` is `Some`; `why` says why not.
    pub fn maybe(
        name: &str,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
        why: &str,
    ) -> Metric {
        match value {
            Some(v) => Metric::new(name, unit, v, samples),
            None => Metric::na(name, unit, why),
        }
    }

    /// An explicitly unavailable metric.
    pub fn na(name: &str, unit: &'static str, why: &str) -> Metric {
        Metric { name: name.to_string(), unit, value: Err(why.to_string()), samples: 0 }
    }

    /// True when the metric is n/a.
    pub fn is_na(&self) -> bool {
        self.value.is_err()
    }

    /// The human-readable report line.
    pub fn line(&self) -> String {
        match &self.value {
            Ok(v) => format!("metric {} = {v} {} (n={})", self.name, self.unit, self.samples),
            Err(why) => format!("metric {} = n/a {} ({why})", self.name, self.unit),
        }
    }
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Jobs submitted in the measured region.
    pub attempted: u64,
    /// Jobs that did not reach `done/` with a correct result.
    pub failed: u64,
    /// Human-readable findings of the output checks (empty when all pass).
    pub failures: Vec<String>,
    /// Informational lines printed before the metrics.
    pub notes: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The last line of the benchmark's standard output. n/a metrics carry
    /// 0; their report line says why.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = m.value.as_ref().copied().unwrap_or(0.0);
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, fmt_num(v), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the `f64` (shortest round-trip form).
fn fmt_num(v: f64) -> String {
    let s = format!("{v:?}");
    // `{:?}` writes `1e-7` style exponents, which JSON accepts; it never
    // writes `inf`/`NaN` here because non-finite values are n/a
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let mut t = Tally::default();
        for i in 0..99 {
            t.add(i as f64);
        }
        assert!(t.quantile(0.9).is_none(), "99 samples leave 9.9 beyond p90");
        t.add(99.0);
        assert!((t.quantile(0.9).expect("100 samples allow a p90") - 89.1).abs() < 1e-9);
        assert_eq!(t.median(), Some(49.5));
    }

    #[test]
    fn median_of_few_samples_is_reported() {
        let mut t = Tally::default();
        t.add(3.0);
        t.add(1.0);
        t.add(2.0);
        assert_eq!(t.median(), Some(2.0));
        assert_eq!(t.count(), 3);
    }

    #[test]
    fn json_line_keeps_all_digits_and_zeroes_na() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            metrics: vec![
                Metric::new("a", "s", 0.123456789012345, 3),
                Metric::na("b", "count", "idle"),
            ],
        };
        let line = out.json_line();
        assert!(line.contains("\"a\": {\"value\": 0.123456789012345, \"unit\": \"s\"}"), "{line}");
        assert!(line.contains("\"b\": {\"value\": 0.0, \"unit\": \"count\"}"), "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
