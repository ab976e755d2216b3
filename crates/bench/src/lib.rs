//! `jbench` — shared infrastructure for the evaluation harness.
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's §6 (run with `--release`) and `bench_guard` gates its
//! Table 3 ratios in CI; `loc_report` reproduces the Figure 6
//! lines-of-code analysis; `server_smoke`, `restore_smoke` and `chaos`
//! drive the served and persistent stack end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod http;
pub mod loc;
pub mod report;

use std::time::Instant;

pub use report::Report;

/// Average and median seconds over `reps` timed runs of `f`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TimeStats {
    /// Mean of the per-run wall-clock times.
    pub avg_s: f64,
    /// Median of the per-run wall-clock times (what
    /// `BENCH_results.json` records — robust to scheduler noise).
    pub median_s: f64,
}

/// Times `reps` sequential runs of `f` (after one warm-up run),
/// returning both the paper-protocol average and the median.
pub fn time_stats(reps: usize, mut f: impl FnMut()) -> TimeStats {
    // One warm-up run outside the measurement.
    f();
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    let avg_s = samples.iter().sum::<f64>() / samples.len() as f64;
    samples.sort_by(f64::total_cmp);
    TimeStats {
        avg_s,
        median_s: samples[samples.len() / 2],
    }
}

/// The paper's doubling sweep: 8, 16, …, 1024.
#[must_use]
pub fn doubling_sweep() -> Vec<usize> {
    (3..=10).map(|i| 1usize << i).collect()
}

/// Formats seconds the way the paper's tables do (e.g. `0.241s`).
#[must_use]
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.6}s")
}

/// Prints one table row with aligned columns.
pub fn print_row(cols: &[String]) {
    let widths = [8, 14, 14, 10];
    let mut line = String::new();
    for (i, c) in cols.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        line.push_str(&format!("{c:>w$}  "));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_doubling() {
        assert_eq!(doubling_sweep(), vec![8, 16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(0.2414), "0.241400s");
    }
}
