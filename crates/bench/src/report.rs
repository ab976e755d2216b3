//! Machine-readable benchmark results.
//!
//! The `experiments` binary prints the paper-style tables *and*
//! records per-table medians here, emitting a `BENCH_results.json`.
//! The committed copy of that file is the baseline `bench_guard`
//! compares a fresh `--smoke` run against (CI archives the fresh run
//! as an artifact). The JSON is hand-rolled: the build
//! environment is offline, so no serde.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One measured row of a table.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Row label, e.g. `"papers=64 jacqueline"`.
    pub label: String,
    /// Median seconds over the measurement repetitions.
    pub median_s: f64,
}

/// A collection of benchmark tables, each a list of labelled medians.
#[derive(Clone, Debug, Default)]
pub struct Report {
    tables: BTreeMap<String, Vec<Entry>>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Report {
        Report::default()
    }

    /// Records one measurement under `table`.
    pub fn record(&mut self, table: &str, label: &str, median_s: f64) {
        self.tables
            .entry(table.to_owned())
            .or_default()
            .push(Entry {
                label: label.to_owned(),
                median_s,
            });
    }

    /// The recorded entries of a table, if any (used by assertions in
    /// tests and by the summary printer).
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&[Entry]> {
        self.tables.get(name).map(Vec::as_slice)
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Renders the report as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"jacqueline-bench/1\",\n  \"tables\": {");
        for (ti, (table, entries)) in self.tables.iter().enumerate() {
            if ti > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: [", json_string(table));
            for (ei, e) in entries.iter().enumerate() {
                if ei > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{\"label\": {}, \"median_s\": {}}}",
                    json_string(&e.label),
                    json_number(e.median_s)
                );
            }
            out.push_str("\n    ]");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Parses a document produced by [`Report::to_json`] (the
    /// regression guard reads the committed `BENCH_results.json` with
    /// this). Line-oriented: it understands exactly the shape this
    /// module emits — one table header or one `{"label": …,
    /// "median_s": …}` entry per line — which is all it needs, since
    /// both sides of the comparison are written by this module.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse_json(text: &str) -> Result<Report, String> {
        let mut report = Report::new();
        let mut current: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim().trim_end_matches(',');
            if let Some(rest) = line.strip_prefix('"') {
                // `"table": [`  or the schema line `"schema": "…"`.
                let Some((name, tail)) = rest.split_once('"') else {
                    return Err(format!("line {}: unterminated name", lineno + 1));
                };
                if tail.trim_start().starts_with(": [") {
                    current = Some(name.to_owned());
                }
            } else if line.starts_with("{\"label\":") {
                let table = current
                    .clone()
                    .ok_or_else(|| format!("line {}: entry outside a table", lineno + 1))?;
                let label = line
                    .split_once("\"label\": \"")
                    .and_then(|(_, t)| t.split_once('"'))
                    .map(|(l, _)| l.to_owned())
                    .ok_or_else(|| format!("line {}: no label", lineno + 1))?;
                let median: f64 = line
                    .split_once("\"median_s\": ")
                    .map(|(_, t)| t.trim_end_matches(['}', ',']).trim())
                    .ok_or_else(|| format!("line {}: no median_s", lineno + 1))?
                    .parse()
                    .map_err(|e| format!("line {}: bad median_s ({e})", lineno + 1))?;
                report.record(&table, &label, median);
            }
        }
        if report.is_empty() {
            return Err("no tables found (is this a jacqueline-bench JSON?)".to_owned());
        }
        Ok(report)
    }

    /// Names of all recorded tables.
    #[must_use]
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }
}

/// Minimal JSON string escaping (labels are ASCII identifiers, but be
/// correct anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN/Infinity; clamp to null for robustness.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.9}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut r = Report::new();
        r.record("table5", "n=4 pruned", 0.001);
        r.record("table5", "n=4 unpruned", 0.25);
        r.record("host", "available_cores", 2.0);
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"jacqueline-bench/1\""));
        assert!(json.contains("\"table5\": ["));
        assert!(json.contains("{\"label\": \"n=4 pruned\", \"median_s\": 0.001000000}"));
        assert!(json.contains("\"host\""));
        assert_eq!(r.table("table5").unwrap().len(), 2);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn parse_inverts_to_json() {
        let mut r = Report::new();
        r.record("table3_users", "users=8 jacqueline", 0.000052216);
        r.record("table3_users", "users=8 baseline", 0.00001191);
        r.record("host", "available_cores", 1.0);
        let parsed = Report::parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed.table("table3_users"), r.table("table3_users"));
        assert_eq!(parsed.table_names(), vec!["host", "table3_users"]);
        assert!(Report::parse_json("{}").is_err());
    }

    #[test]
    fn round_trips_to_disk() {
        let mut r = Report::new();
        r.record("t", "row", 0.5);
        let path = std::env::temp_dir().join("jbench_report_test.json");
        r.write_json(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, r.to_json());
        let _ = std::fs::remove_file(&path);
    }
}
