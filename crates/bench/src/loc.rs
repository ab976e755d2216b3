//! Figure 6: lines-of-code analysis of the two conference-manager
//! implementations (and the other case studies).
//!
//! Policy code is delimited by `// <policy>` / `// </policy>` markers
//! in the application sources; `// [section: models]` and
//! `// [section: views]` split each file the way the paper splits
//! `models.py` / `views.py`.

use std::fmt;
use std::path::Path;

/// Line counts for one section of one implementation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SectionCounts {
    /// Policy lines (inside `<policy>` regions).
    pub policy: usize,
    /// Non-policy, non-blank code lines.
    pub non_policy: usize,
}

impl SectionCounts {
    /// Total lines in the section.
    #[must_use]
    pub fn total(&self) -> usize {
        self.policy + self.non_policy
    }
}

/// The Figure 6 numbers for one implementation (one source file).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LocReport {
    /// The models section (`models.py`).
    pub models: SectionCounts,
    /// The views section (`views.py`).
    pub views: SectionCounts,
}

impl LocReport {
    /// Total policy lines across both sections.
    #[must_use]
    pub fn policy_total(&self) -> usize {
        self.models.policy + self.views.policy
    }

    /// The auditable surface: every line of a section that contains
    /// any policy code (the paper's trusted-computing-base argument —
    /// auditing `models.py` alone vs `models.py` + `views.py`).
    #[must_use]
    pub fn audit_surface(&self) -> usize {
        let mut total = 0;
        if self.models.policy > 0 {
            total += self.models.total();
        }
        if self.views.policy > 0 {
            total += self.views.total();
        }
        total
    }
}

impl fmt::Display for LocReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "models: {} policy / {} other; views: {} policy / {} other",
            self.models.policy, self.models.non_policy, self.views.policy, self.views.non_policy
        )
    }
}

/// Analyzes one application source file.
///
/// Counts non-blank, non-test lines (everything up to a `#[cfg(test)]`
/// module), classifying by the `<policy>` markers and the
/// `[section: …]` markers. Marker lines themselves are not counted.
#[must_use]
pub fn analyze_source(source: &str) -> LocReport {
    let mut report = LocReport::default();
    let mut in_policy = false;
    let mut in_views = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.contains("#[cfg(test)]") {
            break; // tests are not application code
        }
        if trimmed.contains("// [section: views]") {
            in_views = true;
            continue;
        }
        if trimmed.contains("// [section: models]") {
            in_views = false;
            continue;
        }
        if trimmed.contains("// <policy>") {
            in_policy = true;
            continue;
        }
        if trimmed.contains("// </policy>") {
            in_policy = false;
            continue;
        }
        if trimmed.is_empty() {
            continue;
        }
        let section = if in_views {
            &mut report.views
        } else {
            &mut report.models
        };
        if in_policy {
            section.policy += 1;
        } else {
            section.non_policy += 1;
        }
    }
    report
}

/// Analyzes a source file on disk.
///
/// # Errors
///
/// I/O errors reading the file.
pub fn analyze_file(path: &Path) -> std::io::Result<LocReport> {
    Ok(analyze_source(&std::fs::read_to_string(path)?))
}

/// Locates the `crates/apps/src` directory relative to the workspace.
#[must_use]
pub fn apps_src_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the apps sources are a sibling.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../apps/src")
        .canonicalize()
        .unwrap_or_else(|_| Path::new("crates/apps/src").to_path_buf())
}

/// Prints the Figure 6 comparison for one case-study pair.
///
/// # Errors
///
/// I/O errors reading the sources.
pub fn print_comparison(
    name: &str,
    jacqueline_file: &str,
    vanilla_file: &str,
) -> std::io::Result<()> {
    let dir = apps_src_dir();
    let jacq = analyze_file(&dir.join(jacqueline_file))?;
    let van = analyze_file(&dir.join(vanilla_file))?;
    println!("--- {name} ---");
    println!("                         models(policy/other)   views(policy/other)   policy total   audit surface");
    for (label, r) in [("Jacqueline", jacq), ("hand-coded", van)] {
        println!(
            "  {label:<12} {:>10} / {:<6} {:>12} / {:<6} {:>10} {:>14}",
            r.models.policy,
            r.models.non_policy,
            r.views.policy,
            r.views.non_policy,
            r.policy_total(),
            r.audit_surface(),
        );
    }
    println!(
        "  => Jacqueline confines policy to models: {} views-policy lines vs {} in the baseline",
        jacq.views.policy, van.views.policy
    );
    Ok(())
}

/// Non-blank lines across every `.rs` file under `dir`, recursing
/// into subdirectories except `target` and hidden ones, and except
/// any name in `skip` (the root package skips the member crates and
/// the out-of-workspace directories).
fn non_blank_rust_lines(dir: &Path, skip: &[&str]) -> std::io::Result<usize> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') && !skip.contains(&name) {
                total += non_blank_rust_lines(&path, &[])?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)?;
            total += text.lines().filter(|l| !l.trim().is_empty()).count();
        }
    }
    Ok(total)
}

/// Non-blank Rust lines per workspace crate — sources, tests,
/// benches and examples — in name order, with the root package
/// (`src/`, `tests/`, `examples/`) first. `vendor/` and `perfbench/`
/// are not the reproduction's own code and are left out.
///
/// # Errors
///
/// I/O errors walking the tree.
pub fn workspace_loc(root: &Path) -> std::io::Result<Vec<(String, usize)>> {
    let mut out = vec![(
        "(root package)".to_owned(),
        non_blank_rust_lines(root, &["crates", "vendor", "perfbench"])?,
    )];
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    crates.sort();
    for dir in crates.into_iter().filter(|d| d.is_dir()) {
        let name = dir
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        out.push((format!("crates/{name}"), non_blank_rust_lines(&dir, &[])?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
use x;
// [section: models]
fn model() {
    // <policy>
    check();
    more_check();
    // </policy>
    plain();
}
// [section: views]
fn view() {
    // <policy>
    inline_check();
    // </policy>
    render();
}
#[cfg(test)]
mod tests { fn ignored() {} }
";

    #[test]
    fn sample_counts() {
        let r = analyze_source(SAMPLE);
        assert_eq!(r.models.policy, 2);
        // `use x;`, `fn model() {`, `plain();`, `}` = 4 non-policy.
        assert_eq!(r.models.non_policy, 4);
        assert_eq!(r.views.policy, 1);
        assert_eq!(r.views.non_policy, 3);
        assert_eq!(r.policy_total(), 3);
        assert_eq!(r.audit_surface(), 6 + 4);
    }

    #[test]
    fn real_sources_have_expected_shape() {
        let dir = apps_src_dir();
        let jacq = analyze_file(&dir.join("conf.rs")).unwrap();
        let van = analyze_file(&dir.join("conf_vanilla.rs")).unwrap();
        // The paper's headline claims, structurally:
        // 1. Jacqueline has no policy code in views — the paper's
        //    centralization claim.
        assert_eq!(jacq.views.policy, 0, "jacqueline views must be policy-free");
        // 2. The baseline has policy code in *both* sections
        //    (repeated checks at call sites, Figure 8).
        assert!(van.views.policy > 0);
        assert!(van.models.policy > 0);
        // 3. The audit surface shrinks: auditing Jacqueline means the
        //    models section only; the baseline needs the whole file.
        assert!(jacq.audit_surface() < van.audit_surface());
        // Note: absolute policy-line totals are close in this Rust
        // rendition (closure boilerplate — cf. the paper's own remark
        // that "Jacqueline counts are bloated"); the per-view marginal
        // policy cost is the durable difference: zero for Jacqueline,
        // one region per protected field per view for the baseline.
    }

    #[test]
    fn all_case_studies_analyzable() {
        let dir = apps_src_dir();
        for f in [
            "conf.rs",
            "conf_vanilla.rs",
            "health.rs",
            "health_vanilla.rs",
            "courses.rs",
            "courses_vanilla.rs",
        ] {
            let r = analyze_file(&dir.join(f)).unwrap();
            assert!(r.models.total() > 0, "{f} has content");
            assert!(r.policy_total() > 0, "{f} declares policies");
        }
    }
}
