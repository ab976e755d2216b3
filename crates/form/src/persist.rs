//! FORM metadata serialization: the state that lives *outside* the
//! relational engine but is required to reopen a faceted database.
//!
//! The physical rows (with their `jid`/`jvars` meta columns) and the
//! policy-binding rows are ordinary tables; what they do **not**
//! capture is the **per-table `jid` cursors**: logical object ids
//! must not be reused, and an object whose rows were deleted leaves
//! no trace of its id in any row. The cursors fit in a tiny
//! line-oriented text block ([`FormMeta`]), written into the
//! checkpoint manifest.

use std::collections::BTreeMap;

use microdb::snapshot::{escape_token, unescape_token};

use crate::error::{FormError, FormResult};

/// The FORM's serializable metadata.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FormMeta {
    /// Per-table next logical object id.
    pub next_jid: BTreeMap<String, i64>,
}

impl FormMeta {
    /// Renders the metadata block.
    ///
    /// ```text
    /// form-meta v2 <n-jid-cursors>
    /// j <next-jid> <table>
    /// ```
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "form-meta v2 {}", self.next_jid.len());
        for (table, next) in &self.next_jid {
            let _ = writeln!(out, "j {next} {}", escape_token(table));
        }
        out
    }

    /// Parses a block produced by [`FormMeta::to_text`].
    ///
    /// # Errors
    ///
    /// [`FormError::Db`] (as a persistence error) on malformed input.
    pub fn from_text(text: &str) -> FormResult<FormMeta> {
        FormMeta::from_lines(&mut text.lines())
    }

    /// Parses the block from a line iterator, consuming exactly its
    /// own lines (the header declares the count) — the checkpoint
    /// reader embeds this section inside a larger file.
    ///
    /// # Errors
    ///
    /// Same as [`FormMeta::from_text`].
    pub fn from_lines<'a>(lines: &mut impl Iterator<Item = &'a str>) -> FormResult<FormMeta> {
        let bad = |what: &str| FormError::Db(microdb::DbError::Persist(what.to_owned()));
        let header = lines.next().ok_or_else(|| bad("empty form-meta"))?;
        let n_jids: usize = header
            .strip_prefix("form-meta v2 ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad("bad form-meta header"))?;
        let mut meta = FormMeta::default();
        for _ in 0..n_jids {
            let line = lines.next().ok_or_else(|| bad("truncated jid cursors"))?;
            let rest = line
                .strip_prefix("j ")
                .ok_or_else(|| bad("expected a jid line"))?;
            let (next, table) = rest
                .split_once(' ')
                .ok_or_else(|| bad("bad jid cursor line"))?;
            let next: i64 = next.parse().map_err(|_| bad("bad jid cursor value"))?;
            meta.next_jid.insert(unescape_token(table)?, next);
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        let mut meta = FormMeta::default();
        meta.next_jid.insert("paper".into(), 42);
        meta.next_jid.insert("user profile".into(), 7);
        let text = meta.to_text();
        assert_eq!(FormMeta::from_text(&text).unwrap(), meta);
    }

    #[test]
    fn empty_meta_round_trips() {
        let meta = FormMeta::default();
        assert_eq!(FormMeta::from_text(&meta.to_text()).unwrap(), meta);
    }

    #[test]
    fn malformed_meta_is_rejected() {
        for bad in [
            "",
            // The v1 block also listed label names.
            "form-meta v1 0 0",
            "form-meta v2 1",
            "form-meta v2 1\nj x t",
            "form-meta v2 1\nl name",
        ] {
            assert!(FormMeta::from_text(bad).is_err(), "{bad:?}");
        }
    }
}
