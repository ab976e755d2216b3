//! The repository's benchmark: three workloads over the conference,
//! course and health case studies, each checked for correctness and
//! policy leaks, each reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics from a separate traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_hot|write_mix|paper_pages --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for what each workload and
//! metric is for.

mod client;
mod data;
mod oracle;
mod pages;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::exit;

use stats::Report;

/// End-to-end metrics, in the result line of every untraced run and
/// bounded in `BENCHMARK.json`. Untraced runs also print `read_p50_ms`,
/// `read_p99_ms`, `write_p50_ms`, `write_p99_ms` and `restore_s`, but
/// only in the human-readable lines: over ten seeds on a shared 2-core
/// host their quartile spread exceeded the largest allowed bound (25 %)
/// on at least one workload, so no regression bound on them could hold.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rps", "req/s"),
    ("overhead_x", "ratio"),
    ("store_bytes_per_row", "B/row"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer the
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("wire.parse_us_p50", "us"),
    ("wire.serialize_us_p50", "us"),
    ("auth.authenticate_us_p50", "us"),
    ("executor.queue_us_p50", "us"),
    ("executor.queue_us_p99", "us"),
    ("executor.reply_hop_us_p50", "us"),
    ("executor.sheds", "count"),
    ("server.socket_us_p50", "us"),
    ("executor.service_hit_us_p50", "us"),
    ("executor.service_hit_us_p99", "us"),
    ("executor.service_miss_us_p50", "us"),
    ("executor.service_miss_us_p99", "us"),
    ("executor.service_repair_us_p50", "us"),
    ("executor.service_repair_us_p99", "us"),
    ("executor.service_write_us_p50", "us"),
    ("executor.service_write_us_p99", "us"),
    ("rendercache.hit_ratio", "ratio"),
    ("rendercache.miss_ratio", "ratio"),
    ("rendercache.repair_ratio", "ratio"),
    ("rendercache.fragments_per_repair", "count"),
    ("rendercache.invalidated", "count"),
    ("form.query_us.papers_all", "us"),
    ("form.query_us.users_all", "us"),
    ("form.query_us.papers_one", "us"),
    ("form.query_us.users_one", "us"),
    ("form.query_us.courses_all", "us"),
    ("form.query_us.records_all", "us"),
    ("form.decode_hit_ratio", "ratio"),
    ("form.delta_applies_per_write", "count"),
    ("session.view_us.papers_all", "us"),
    ("session.view_us.users_all", "us"),
    ("session.view_us.papers_one", "us"),
    ("session.view_us.users_one", "us"),
    ("session.view_us.courses_all", "us"),
    ("session.view_us.records_all", "us"),
    ("apps.format_us.papers_all", "us"),
    ("apps.format_us.users_all", "us"),
    ("apps.format_us.papers_one", "us"),
    ("apps.format_us.users_one", "us"),
    ("apps.format_us.courses_all", "us"),
    ("apps.format_us.records_all", "us"),
    ("faceted.memo_hit_ratio", "ratio"),
    ("faceted.nodes_per_1k_req", "count"),
    ("microdb.wal.bytes_per_write", "B/write"),
    ("microdb.wal.records_per_write", "count"),
    ("checkpoint.ms_p50", "ms"),
    ("checkpoint.ms_max", "ms"),
    ("checkpoint.count", "count"),
    ("checkpoint.chunks_written_per_ckpt", "count"),
    ("checkpoint.chunk_reuse_ratio", "ratio"),
    ("checkpoint.restore_wal_applied", "count"),
    ("trace.overhead_pct", "pct"),
    ("harness.gen_late_ms_p99", "ms"),
];

const USAGE: &str = "usage: perfbench --workload read_hot|write_mix|paper_pages --seed N \
                     --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload: need("--workload")?.to_owned(),
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    if cfg!(debug_assertions) {
        eprintln!(
            "refusing to measure a debug build: it runs the fragment byte-identity assert and \
             the footprint checker, which change the cost being measured (build with --release)"
        );
        exit(2);
    }
    let spec = match args.workload.as_str() {
        "read_hot" => Some(&served::READ_HOT),
        "write_mix" => Some(&served::WRITE_MIX),
        "paper_pages" => None,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = data::fresh_dir(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        exit(1);
    }

    let mut report = Report::new();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    report.note(format!(
        "environment: available_cores={cores}, build=release (debug assertions off), seed={}, seconds={}, trace={}",
        args.seed, args.seconds, args.trace
    ));
    report.note(
        "render cache bound: 16 shards x 512 entries = 8192 (rendercache::SHARDS x SHARD_CAP)"
            .to_owned(),
    );
    if !oracle::canary_self_test() {
        report.wrong("the leak canary did not fire on a leaking page".to_owned());
    }
    let result = match spec {
        Some(spec) => served::run(
            spec,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut report,
        ),
        None => pages::run(args.seed, args.seconds, args.trace, &work, &mut report),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    if let Err(e) = result {
        eprintln!("benchmark failed: {e}");
        exit(1);
    }
    if !args.trace {
        report.metric("peak_rss_mb", data::peak_rss_mb(), "MB");
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match report.value(name) {
            Some(v) if v.is_finite() => v,
            _ if args.trace => 0.0,
            other => {
                eprintln!("benchmark bug: end-to-end metric {name} is {other:?}");
                exit(1);
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        let gated = wanted.iter().any(|(n, _)| n == name);
        let mark = if gated {
            ""
        } else {
            "  (reported, not bounded)"
        };
        println!("  {name:<40} {value:>14.4} {unit}{mark}");
    }
    println!(
        "  {:<40} {:>14.6} ratio",
        "failed_frac",
        stats::ratio(report.failed as f64, report.attempted as f64)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, list) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).expect("section present");
            let body = &text[start..text[start..].find(']').map(|e| start + e).unwrap()];
            let names: Vec<&str> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').unwrap()])
                .collect();
            let units: Vec<&str> = body
                .split("\"unit\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').unwrap()])
                .collect();
            let expected: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            let expected_units: Vec<&str> = list.iter().map(|(_, u)| *u).collect();
            assert_eq!(names, expected, "{section} names");
            assert_eq!(units, expected_units, "{section} units");
        }
    }
}
