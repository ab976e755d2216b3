//! Regenerates every table and figure of the paper's evaluation (§6):
//! Figure 6, Figure 9a–c and Tables 3–5, plus the memoization ablation
//! behind Table 5's blow-up.
//!
//! Run with `cargo run --release -p jbench --bin experiments -- --all`
//! (or a subset: `--fig6 --fig9a --fig9b --fig9c --table3 --table4
//! --table5 --memo`). `--smoke` shrinks the sweeps for CI. Any other
//! flag is rejected with a usage line (exit 2). Output mirrors the
//! paper's rows; absolute times are this machine's, the comparison
//! *shapes* are the reproduction target. Alongside the printed tables
//! the run records per-table medians, plus a `host` table with the
//! available cores, and writes them to `BENCH_results.json` (or the
//! path given with `--json <path>`); `bench_guard` gates the `table3_`
//! ratios of a fresh run against that committed file.

use std::path::PathBuf;
use std::time::Instant;

use apps::{conf, courses, health, workload};
use faceted::{Branch, Branches, FacetedList, Label};
use form::GuardedRow;
use jacqueline::Viewer;
use jbench::{doubling_sweep, fmt_secs, print_row, time_stats, Report};
use microdb::Value;

/// Matches the paper's protocol: average over 10 sequential requests.
const REPS: usize = 10;

/// The flags that select individual tables. Running with none of them
/// means `--all`.
const TABLE_FLAGS: [&str; 8] = [
    "--fig6", "--fig9a", "--fig9b", "--fig9c", "--table3", "--table4", "--table5", "--memo",
];

const USAGE: &str = "usage: experiments [--all] [--smoke] [--json <path>] \
                     [--fig6] [--fig9a] [--fig9b] [--fig9c] [--table3] [--table4] [--table5] [--memo]";

/// Sweep sizes and repetition counts, shrunk by `--smoke` for CI.
struct Config {
    sweep: Vec<usize>,
    reps: usize,
    smoke: bool,
}

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Options {
    /// The selected table flags; empty means every table.
    tables: Vec<String>,
    smoke: bool,
    json: PathBuf,
}

impl Options {
    fn want(&self, flag: &str) -> bool {
        self.tables.is_empty() || self.tables.iter().any(|t| t == flag)
    }
}

/// Parses the command line, rejecting any flag not in [`USAGE`] (a
/// typo must not silently select every table, or drop one).
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        tables: Vec::new(),
        smoke: false,
        json: PathBuf::from("BENCH_results.json"),
    };
    let mut all = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--smoke" => options.smoke = true,
            "--json" => {
                let path = args.next().ok_or("--json needs a path")?;
                options.json = PathBuf::from(path);
            }
            flag if TABLE_FLAGS.contains(&flag) => options.tables.push(flag.to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if all {
        options.tables.clear();
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("experiments: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let smoke = options.smoke;
    let cfg = Config {
        sweep: if smoke {
            vec![8, 16, 32]
        } else {
            doubling_sweep()
        },
        reps: if smoke { 3 } else { REPS },
        smoke,
    };
    let mut report = Report::new();

    if options.want("--fig6") {
        fig6();
    }
    if options.want("--table3") || options.want("--fig9a") {
        fig9a_table3(&cfg, &mut report);
    }
    if options.want("--table4") {
        table4(&cfg, &mut report);
    }
    if options.want("--fig9b") {
        fig9b(&cfg, &mut report);
    }
    if options.want("--fig9c") {
        fig9c(&cfg, &mut report);
    }
    if options.want("--table5") {
        table5(&cfg, &mut report);
    }
    if options.want("--memo") {
        memo_ablation(&cfg, &mut report);
    }

    if !report.is_empty() {
        // Timings are read next to the core count they ran on.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        report.record("host", "available_cores", cores as f64);
        match report.write_json(&options.json) {
            Ok(()) => println!("\nwrote {}", options.json.display()),
            Err(e) => eprintln!("\nfailed to write {}: {e}", options.json.display()),
        }
    }
}

/// Times `f`, printing the average (the paper's protocol) and
/// recording the median under `table`/`label`.
fn measure(report: &mut Report, table: &str, label: &str, reps: usize, f: impl FnMut()) -> f64 {
    let stats = time_stats(reps, f);
    report.record(table, label, stats.median_s);
    stats.avg_s
}

/// Figure 6: lines of policy code, Jacqueline vs hand-coded.
fn fig6() {
    println!("\n==== Figure 6: distribution and size of policy code ====");
    for (name, j, v) in [
        ("conference manager", "conf.rs", "conf_vanilla.rs"),
        ("health record manager", "health.rs", "health_vanilla.rs"),
        ("course manager", "courses.rs", "courses_vanilla.rs"),
    ] {
        if let Err(e) = jbench::loc::print_comparison(name, j, v) {
            eprintln!("loc analysis failed for {name}: {e}");
        }
    }
}

/// Figure 9a + Table 3: conference stress tests.
///
/// These medians feed the CI regression gate (`bench_guard`), so even
/// `--smoke` runs take a healthy number of repetitions — the pages
/// are microseconds, and a median over 3 samples is too noisy to
/// gate on.
fn fig9a_table3(cfg: &Config, report: &mut Report) {
    if cfg.reps < 15 {
        println!(
            "\n[table3: raising reps {} -> 15: these medians feed the CI gate]",
            cfg.reps
        );
    }
    let cfg = &Config {
        sweep: cfg.sweep.clone(),
        reps: cfg.reps.max(15),
        smoke: cfg.smoke,
    };
    println!("\n==== Table 3 / Figure 9a: time to view all papers ====");
    print_row(&[
        "# P".into(),
        "Jacq.".into(),
        "Baseline".into(),
        "ratio".into(),
    ]);
    for &n in &cfg.sweep {
        let w = workload::conference(32, n);
        let app = w.app;
        let mut vanilla = w.vanilla;
        let viewer = Viewer::User(w.pc_member);
        let tj = measure(
            report,
            "table3_papers",
            &format!("papers={n} jacqueline"),
            cfg.reps,
            || {
                std::hint::black_box(conf::all_papers(&app, &viewer));
            },
        );
        let tv = measure(
            report,
            "table3_papers",
            &format!("papers={n} baseline"),
            cfg.reps,
            || {
                std::hint::black_box(vanilla.all_papers(&viewer));
            },
        );
        print_row(&[
            n.to_string(),
            fmt_secs(tj),
            fmt_secs(tv),
            format!("{:.2}x", tj / tv),
        ]);
    }

    println!("\n==== Table 3 / Figure 9a: time to view all users ====");
    print_row(&[
        "# U".into(),
        "Jacq.".into(),
        "Baseline".into(),
        "ratio".into(),
    ]);
    for &n in &cfg.sweep {
        let w = workload::conference(n, 8);
        let app = w.app;
        let mut vanilla = w.vanilla;
        let viewer = Viewer::User(w.author);
        let tj = measure(
            report,
            "table3_users",
            &format!("users={n} jacqueline"),
            cfg.reps,
            || {
                std::hint::black_box(conf::all_users(&app, &viewer));
            },
        );
        let tv = measure(
            report,
            "table3_users",
            &format!("users={n} baseline"),
            cfg.reps,
            || {
                std::hint::black_box(vanilla.all_users(&viewer));
            },
        );
        print_row(&[
            n.to_string(),
            fmt_secs(tj),
            fmt_secs(tv),
            format!("{:.2}x", tj / tv),
        ]);
    }
}

/// Table 4: single paper / single user while the table grows.
fn table4(cfg: &Config, report: &mut Report) {
    println!("\n==== Table 4: time to view a single paper ====");
    print_row(&[
        "Papers".into(),
        "Jacq.".into(),
        "Baseline".into(),
        "ratio".into(),
    ]);
    for &n in &cfg.sweep {
        let w = workload::conference(32, n);
        let app = w.app;
        let mut vanilla = w.vanilla;
        let viewer = Viewer::User(w.pc_member);
        let tj = measure(
            report,
            "table4_paper",
            &format!("papers={n} jacqueline"),
            cfg.reps,
            || {
                std::hint::black_box(conf::single_paper(&app, &viewer, 1));
            },
        );
        let tv = measure(
            report,
            "table4_paper",
            &format!("papers={n} baseline"),
            cfg.reps,
            || {
                std::hint::black_box(vanilla.single_paper(&viewer, 1));
            },
        );
        print_row(&[
            n.to_string(),
            fmt_secs(tj),
            fmt_secs(tv),
            format!("{:.2}x", tj / tv),
        ]);
        let w = workload::conference(32, n);
        let mut vanilla = w.vanilla;
        first_visits(
            report,
            "table4_paper",
            &format!("papers={n}"),
            n,
            |id| conf::single_paper(&w.app, &viewer, id),
            |id| vanilla.single_paper(&viewer, id),
        );
    }

    println!("\n==== Table 4: time to view a single user ====");
    print_row(&[
        "Users".into(),
        "Jacq.".into(),
        "Baseline".into(),
        "ratio".into(),
    ]);
    for &n in &cfg.sweep {
        let w = workload::conference(n, 8);
        let app = w.app;
        let mut vanilla = w.vanilla;
        let viewer = Viewer::User(w.author);
        let tj = measure(
            report,
            "table4_user",
            &format!("users={n} jacqueline"),
            cfg.reps,
            || {
                std::hint::black_box(conf::single_user(&app, &viewer, 2));
            },
        );
        let tv = measure(
            report,
            "table4_user",
            &format!("users={n} baseline"),
            cfg.reps,
            || {
                std::hint::black_box(vanilla.single_user(&viewer, 2));
            },
        );
        print_row(&[
            n.to_string(),
            fmt_secs(tj),
            fmt_secs(tv),
            format!("{:.2}x", tj / tv),
        ]);
        let w = workload::conference(n, 8);
        let mut vanilla = w.vanilla;
        first_visits(
            report,
            "table4_user",
            &format!("users={n}"),
            n,
            |id| conf::single_user(&w.app, &viewer, id),
            |id| vanilla.single_user(&viewer, id),
        );
    }
}

/// Table 4's `cold` row: on a fresh app, the first visit of each id
/// `1..=n` — an object the app has not rebuilt yet — then its
/// baseline twin; records and prints the medians. The warm row above
/// it re-renders one id.
fn first_visits(
    report: &mut Report,
    table: &str,
    label: &str,
    n: usize,
    mut jacqueline: impl FnMut(i64) -> String,
    mut baseline: impl FnMut(i64) -> String,
) {
    let (mut tj, mut tv) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for id in 1..=n as i64 {
        let start = Instant::now();
        std::hint::black_box(jacqueline(id));
        tj.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(baseline(id));
        tv.push(start.elapsed().as_secs_f64());
    }
    let median = |mut samples: Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let (tj, tv) = (median(tj), median(tv));
    report.record(table, &format!("{label} jacqueline cold"), tj);
    report.record(table, &format!("{label} baseline cold"), tv);
    print_row(&[
        format!("{n} cold"),
        fmt_secs(tj),
        fmt_secs(tv),
        format!("{:.2}x", tj / tv),
    ]);
}

/// Figure 9b: health-record stress test.
fn fig9b(cfg: &Config, report: &mut Report) {
    println!("\n==== Figure 9b: health records, time to view summaries ====");
    print_row(&[
        "# Users".into(),
        "Jacq.".into(),
        "Baseline".into(),
        "ratio".into(),
    ]);
    for &n in &cfg.sweep {
        let w = workload::health(n);
        let app = w.app;
        let mut vanilla = w.vanilla;
        let viewer = Viewer::User(w.doctor);
        let tj = measure(
            report,
            "fig9b",
            &format!("users={n} jacqueline"),
            cfg.reps,
            || {
                std::hint::black_box(health::all_records_summary(&app, &viewer));
            },
        );
        let tv = measure(
            report,
            "fig9b",
            &format!("users={n} baseline"),
            cfg.reps,
            || {
                std::hint::black_box(vanilla.all_records_summary(&viewer));
            },
        );
        print_row(&[
            n.to_string(),
            fmt_secs(tj),
            fmt_secs(tv),
            format!("{:.2}x", tj / tv),
        ]);
    }
}

/// Figure 9c: course-manager stress test (Early Pruning on).
fn fig9c(cfg: &Config, report: &mut Report) {
    println!("\n==== Figure 9c: courses, time to view all courses ====");
    print_row(&[
        "# C".into(),
        "Jacq.".into(),
        "Baseline".into(),
        "ratio".into(),
    ]);
    for &n in &cfg.sweep {
        let w = workload::courses(n);
        let app = w.app;
        let mut vanilla = w.vanilla;
        let viewer = Viewer::User(w.student);
        let tj = measure(
            report,
            "fig9c",
            &format!("courses={n} jacqueline"),
            cfg.reps,
            || {
                std::hint::black_box(courses::all_courses(&app, &viewer));
            },
        );
        let tv = measure(
            report,
            "fig9c",
            &format!("courses={n} baseline"),
            cfg.reps,
            || {
                std::hint::black_box(vanilla.all_courses(&viewer));
            },
        );
        print_row(&[
            n.to_string(),
            fmt_secs(tj),
            fmt_secs(tv),
            format!("{:.2}x", tj / tv),
        ]);
    }
}

/// Table 5: Early Pruning on vs off.
fn table5(cfg: &Config, report: &mut Report) {
    println!("\n==== Table 5: all courses, with and without Early Pruning ====");
    print_row(&[
        "Courses".into(),
        "w/o pruning".into(),
        "w/ pruning".into(),
        String::new(),
    ]);
    // Without pruning the page is one faceted string whose leaf count
    // doubles per course; like the paper we stop measuring once it
    // blows up and print "—".
    const NO_PRUNE_MAX: usize = 16;
    let sizes: &[usize] = if cfg.smoke {
        &[4, 8, 16, 32, 64]
    } else {
        &[4, 8, 16, 32, 64, 128, 256, 512, 1024]
    };
    for &n in sizes {
        let w = workload::courses(n);
        let app = w.app;
        let viewer = Viewer::User(w.student);
        let slow = if n <= NO_PRUNE_MAX {
            let t = measure(
                report,
                "table5_pruning",
                &format!("courses={n} unpruned"),
                3,
                || {
                    std::hint::black_box(courses::all_courses_no_pruning(&app, &viewer));
                },
            );
            fmt_secs(t)
        } else {
            "—".to_owned()
        };
        let fast = fmt_secs(measure(
            report,
            "table5_pruning",
            &format!("courses={n} pruned"),
            cfg.reps,
            || {
                std::hint::black_box(courses::all_courses(&app, &viewer));
            },
        ));
        print_row(&[n.to_string(), slow, fast, String::new()]);
    }
}

/// A faceted row count over `n` rows with independent singleton
/// guards: the canonical facet-blow-up aggregate. With hash-consing
/// the 2^n-path accumulator is an O(n²)-node DAG, and the memoized
/// `ite`/`assume` walks are linear in *nodes*; without the computed
/// tables the same walks revisit shared nodes once per path.
fn counting_workload(n: u32) -> FacetedList<GuardedRow> {
    (0..n)
        .map(|i| {
            let guard = Branches::new().with(Branch::pos(Label::from_index(i)));
            (
                guard.clone(),
                GuardedRow::new(i64::from(i), guard, vec![Value::Int(1)]),
            )
        })
        .collect()
}

/// Memoization ablation: the `table5_pruning`-style facet blow-up,
/// isolated to the faceted runtime (no database), with the computed
/// tables switched off and on.
fn memo_ablation(cfg: &Config, report: &mut Report) {
    println!("\n==== Memoization ablation: faceted count over n guarded rows ====");
    print_row(&[
        "Rows".into(),
        "memo off".into(),
        "memo on".into(),
        "speedup".into(),
    ]);
    let sizes: &[u32] = if cfg.smoke {
        &[12, 14, 16]
    } else {
        &[12, 14, 16, 18, 20]
    };
    for &n in sizes {
        let rows = counting_workload(n);
        let was = faceted::set_memoization(false);
        let off = measure(
            report,
            "memoization",
            &format!("rows={n} memo_off"),
            3,
            || {
                let count = form::faceted_count(&rows);
                assert_eq!(*count.project(&faceted::View::empty()), 0);
                std::hint::black_box(count);
            },
        );
        faceted::set_memoization(true);
        let on = measure(
            report,
            "memoization",
            &format!("rows={n} memo_on"),
            cfg.reps,
            || {
                let count = form::faceted_count(&rows);
                std::hint::black_box(count);
            },
        );
        faceted::set_memoization(was);
        print_row(&[
            n.to_string(),
            fmt_secs(off),
            fmt_secs(on),
            format!("{:.1}x", off / on),
        ]);
    }
    let stats = faceted::intern_stats::<i64>();
    println!(
        "  [i64 store: {} leaves, {} splits, {} memo entries, {} hits / {} misses]",
        stats.leaves, stats.splits, stats.memo_entries, stats.memo_hits, stats.memo_misses
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // A typo must fail loudly: ignored, a lone one would select
        // no table (so every table), and next to a real flag it would
        // drop the misspelt table.
        assert_eq!(
            parse(&["--tabel3"]),
            Err("unknown flag --tabel3".to_owned())
        );
        assert!(parse(&["--table3", "--tabel5"]).is_err());
        assert!(parse(&["--concurrent"]).is_err());
        assert!(parse(&["--json"]).is_err());
    }

    #[test]
    fn table_flags_select_and_all_overrides() {
        let options = parse(&["--smoke", "--table3", "--json", "out.json"]).unwrap();
        assert!(options.smoke);
        assert_eq!(options.json, PathBuf::from("out.json"));
        assert!(options.want("--table3") && !options.want("--table5"));
        let everything = parse(&[]).unwrap();
        assert!(TABLE_FLAGS.iter().all(|f| everything.want(f)));
        assert!(parse(&["--memo", "--all"]).unwrap().want("--fig6"));
    }
}
