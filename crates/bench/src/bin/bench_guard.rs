//! Bench-regression guard for CI: compares a freshly measured
//! `experiments --smoke --json` run against the committed
//! `BENCH_results.json` baseline and fails (exit 1) if the Table 3
//! pages regressed.
//!
//! ```text
//! bench_guard --baseline BENCH_results.json --fresh fresh_smoke.json
//! ```
//!
//! Only `table3_*` labels present in *both* files are compared (the
//! committed baseline holds the full sweep, a `--smoke` run only the
//! small sizes). For every sweep size the guard compares the
//! **jacqueline / baseline overhead ratio** of the fresh run against
//! the committed one, and flags a size whose ratio grew by more than
//! 25%. Machine noise (a slow container, a busy CI runner) inflates
//! both rows of a size equally and cancels out of the ratio, while a
//! genuine regression of the faceted hot path — a broken decode
//! cache, say — multiplies the ratio immediately. The ratio is also
//! portable across CI hardware, where absolute medians are not. The
//! committed ratio is clamped at parity: where the faceted page is
//! currently *faster* than the hand-coded one, the contract is "stay
//! at or near parity", not "stay ahead".
//!
//! Two further noise defenses, tuned for `--smoke` runs (the table3
//! measurement takes ≥15 reps precisely because it feeds this gate,
//! but the pages are still microseconds): sizes whose committed
//! jacqueline median is below 10µs sit at the timer noise floor and
//! are skipped, and the guard fails only on a *systemic* regression —
//! at least two comparisons over tolerance, or a single one more than
//! 3× over — because a genuine hot-path breakage inflates every size
//! at once, while scheduler noise spikes one.
//!
//! The serving stack's optimizations (decode-cache deltas, render
//! cache, fragment repair, incremental checkpoints, WAL compaction)
//! are pinned by exact counters in the test suite instead, and the
//! served path by the `perfbench` benchmark.

use std::process::ExitCode;

use jbench::Report;

/// The watched tables.
const PREFIX: &str = "table3_";
/// The largest tolerated growth of one size's ratio.
const TOLERANCE: f64 = 0.25;
/// Committed jacqueline medians below this are timer noise.
const MIN_MEDIAN_S: f64 = 10e-6;

struct Args {
    baseline: String,
    fresh: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: "BENCH_results.json".to_owned(),
        fresh: String::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let flag = pair[0].as_str();
        let value = pair.get(1).ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--baseline" => args.baseline = value.clone(),
            "--fresh" => args.fresh = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.fresh.is_empty() {
        return Err("--fresh <path> is required".to_owned());
    }
    Ok(args)
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Report::parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn median_of(report: &Report, table: &str, label: &str) -> Option<f64> {
    report
        .table(table)?
        .iter()
        .find(|e| e.label == label)
        .map(|e| e.median_s)
}

/// One comparison row: description, committed ratio, fresh ratio.
struct Comparison {
    what: String,
    base: f64,
    fresh: f64,
}

/// The jacqueline/baseline overhead ratio of every size of `table`
/// measured in both files.
fn comparisons(baseline: &Report, fresh: &Report, table: &str) -> Vec<Comparison> {
    let Some(fresh_entries) = fresh.table(table) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for fe in fresh_entries {
        let Some(size) = fe.label.strip_suffix(" jacqueline") else {
            continue;
        };
        let denominator = format!("{size} baseline");
        let fresh_den = median_of(fresh, table, &denominator);
        let base_num = median_of(baseline, table, &fe.label);
        let base_den = median_of(baseline, table, &denominator);
        if let (Some(fd), Some(bn), Some(bd)) = (fresh_den, base_num, base_den) {
            if fd > 0.0 && bd > 0.0 && bn >= MIN_MEDIAN_S {
                out.push(Comparison {
                    what: format!("{table}/{size} overhead-ratio"),
                    base: (bn / bd).max(1.0),
                    fresh: fe.median_s / fd,
                });
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_guard: {e}\nusage: bench_guard --baseline <path> --fresh <path>");
            return ExitCode::FAILURE;
        }
    };
    let (baseline, fresh) = match (load(&args.baseline), load(&args.fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for r in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_guard: {r}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for table in fresh.table_names() {
        if !table.starts_with(PREFIX) {
            continue;
        }
        for c in comparisons(&baseline, &fresh, table) {
            compared += 1;
            let growth = c.fresh / c.base;
            let verdict = if growth > 1.0 + TOLERANCE {
                regressions.push((
                    growth,
                    format!(
                        "{}: {:.4} -> {:.4} ({:.2}x)",
                        c.what, c.base, c.fresh, growth
                    ),
                ));
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{:<44} base {:>10.4} fresh {:>10.4}  {:>5.2}x  {verdict}",
                c.what, c.base, c.fresh, growth
            );
        }
    }

    if compared == 0 {
        eprintln!("bench_guard: nothing to compare (no shared {PREFIX}* labels)");
        return ExitCode::FAILURE;
    }
    // Systemic-regression rule: one noisy outlier is tolerated
    // (unless it is catastrophic); two or more over tolerance fail.
    let catastrophic = 1.0 + 3.0 * TOLERANCE;
    let fail = regressions.len() >= 2 || regressions.iter().any(|(g, _)| *g > catastrophic);
    if regressions.is_empty() {
        println!(
            "bench_guard: {compared} comparisons within {:.0}% of baseline",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else if !fail {
        println!(
            "bench_guard: 1 of {compared} comparisons over tolerance ({}) — \
             tolerated as an isolated outlier",
            regressions[0].1
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_guard: {} of {compared} comparisons regressed >{:.0}%:",
            regressions.len(),
            TOLERANCE * 100.0
        );
        for (_, r) in &regressions {
            eprintln!("  {r}");
        }
        ExitCode::FAILURE
    }
}
