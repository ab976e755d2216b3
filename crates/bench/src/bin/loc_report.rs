//! Figure 6 as a standalone tool: lines of policy vs non-policy code
//! in the Jacqueline and hand-coded case studies. With `--workspace`
//! it instead prints the non-blank Rust lines of every workspace crate
//! and their total (`vendor/` and `perfbench/` excluded).
//!
//! Run with `cargo run -p jbench --bin loc_report [-- --workspace]`.

use std::path::Path;

fn main() {
    if std::env::args().skip(1).any(|a| a == "--workspace") {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        match jbench::loc::workspace_loc(&root) {
            Ok(counts) => {
                println!("non-blank Rust lines per crate (vendor/ and perfbench/ excluded)");
                for (name, lines) in &counts {
                    println!("  {name:<20} {lines:>7}");
                }
                let total: usize = counts.iter().map(|(_, n)| n).sum();
                println!("  {:<20} {total:>7}", "total");
            }
            Err(e) => {
                eprintln!("workspace loc failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!("Figure 6 — distribution and size of policy code");
    println!("(policy regions are the `// <policy>` blocks in crates/apps/src)");
    for (name, j, v) in [
        ("conference manager", "conf.rs", "conf_vanilla.rs"),
        ("health record manager", "health.rs", "health_vanilla.rs"),
        ("course manager", "courses.rs", "courses_vanilla.rs"),
    ] {
        if let Err(e) = jbench::loc::print_comparison(name, j, v) {
            eprintln!("loc analysis failed for {name}: {e}");
            std::process::exit(1);
        }
    }
}
