//! Order statistics and the metric record a run prints.

use std::time::Duration;

/// The `q`-th percentile (0..=100) of `samples` by nearest rank; 0 for
/// no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The geometric mean of positive `values`; 0 if any is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency samples of one kind, by page and by due time.
#[derive(Default)]
pub struct Latencies {
    by_page: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// `(due offset in seconds, latency in ms)`.
    timed: Vec<(f64, f64)>,
}

impl Latencies {
    pub fn push(&mut self, page: &'static str, due: Duration, latency_ms: f64) {
        self.by_page.entry(page).or_default().push(latency_ms);
        self.timed.push((due.as_secs_f64(), latency_ms));
    }

    pub fn len(&self) -> usize {
        self.timed.len()
    }

    /// The geometric mean over pages of each page's median: a mix of
    /// cheap and expensive pages puts the plain median on the boundary
    /// between them, where it jumps from run to run.
    pub fn p50(&self) -> f64 {
        let medians: Vec<f64> = self.by_page.values().map(|v| median(v)).collect();
        geomean(&medians)
    }

    /// The 99th percentile: the median of the p99s of up to 25 equal
    /// spans of the schedule, each holding at least 1000 samples (ten
    /// beyond its p99), so a stall of the shared host moves one span,
    /// not the result; the p99 of all samples when fewer than three
    /// such spans fit.
    pub fn p99(&self) -> f64 {
        let all: Vec<f64> = self.timed.iter().map(|t| t.1).collect();
        let spans = (self.timed.len() / 1000).min(25);
        let end = self.timed.iter().map(|t| t.0).fold(0.0, f64::max);
        if spans < 3 || end <= 0.0 {
            return percentile(&all, 99.0);
        }
        let mut parts = vec![Vec::new(); spans];
        for &(due, latency) in &self.timed {
            parts[(((due / end) * spans as f64) as usize).min(spans - 1)].push(latency);
        }
        let p99s: Vec<f64> = parts.iter().map(|p| percentile(p, 99.0)).collect();
        median(&p99s)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one run of one workload measured and checked.
#[derive(Debug)]
pub struct Report {
    /// No policy leak, no wrong bytes, no lost acknowledged write.
    pub correct: bool,
    /// Operations attempted (requests, page renders, restores, checks).
    pub attempted: u64,
    /// Operations that failed: non-2xx status, transport error, or a
    /// failed correctness check.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// A wrong output: counts as a failed operation and fails the run.
    pub fn wrong(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.correct {
            self.notes.push(format!("INCORRECT: {what}"));
        }
        self.correct = false;
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
