//! Snapshots: a captured copy of a whole database.
//!
//! A [`Snapshot`] captures every table **including its bookkeeping** —
//! schema, rows, hash-index declarations, the auto-increment cursor,
//! and crucially the monotonic [`Table::generation`] write stamp — so
//! a restored database is *operationally* identical to the original,
//! not merely row-equal: caching layers keyed on generation stamps
//! (the FORM's decode cache) can revalidate instead of flushing, and
//! the [write log](crate::wal) can tell which of its records a
//! snapshot already contains.
//!
//! [`Database::snapshot`] takes `&self`: it acquires each table's
//! read lock in turn, so every *table* is internally consistent even
//! under concurrent writers. Cross-table consistency (no table
//! reflecting a write that another table's copy predates) is the
//! caller's responsibility — the executor's quiescent-point hook
//! holds all request-level table locks shared while snapshotting.
//!
//! This module also owns the whitespace-free token codec
//! ([`encode_value`], [`escape_token`], [`encode_column`]) that the
//! on-disk formats share: the write log's records and the chunked
//! checkpoint's manifest and row chunks.

use std::collections::BTreeMap;
use std::sync::RwLock;

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, Schema};
use crate::table::{Row, Table};
use crate::value::{ColumnType, Value};

/// Escapes a string into a whitespace-free token: short backslash
/// escapes for `\\`, space, tab, CR, LF, and `\x<hex>;` for **every
/// other Unicode whitespace character** (NBSP, vertical tab, line
/// separator, …) — the log and checkpoint decoders tokenize with
/// `split_whitespace`, which splits on all of `char::is_whitespace`,
/// so a single unescaped exotic space would shear a record in two.
/// The empty string encodes as `\e` so every token is at least one
/// character.
#[must_use]
pub fn escape_token(s: &str) -> String {
    use std::fmt::Write as _;
    if s.is_empty() {
        return "\\e".to_owned();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c if c.is_whitespace() => {
                let _ = write!(out, "\\x{:x};", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_token`].
///
/// # Errors
///
/// [`DbError::Persist`] on a dangling or unknown escape.
pub fn unescape_token(s: &str) -> DbResult<String> {
    if s == "\\e" {
        return Ok(String::new());
    }
    let bad = |what: &str| DbError::Persist(format!("bad escape in token {s:?}: {what}"));
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('x') => {
                let hex: String = chars.by_ref().take_while(|&c| c != ';').collect();
                let c = u32::from_str_radix(&hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| bad("\\x with invalid code point"))?;
                out.push(c);
            }
            other => {
                return Err(bad(&format!(
                    "\\{}",
                    other.map_or_else(String::new, |c| c.to_string())
                )))
            }
        }
    }
    Ok(out)
}

/// Encodes a cell value as a single whitespace-free token: `~` NULL,
/// `T`/`F` booleans, `i<decimal>` integers, `f<bits-hex>` floats
/// (exact, via the IEEE bit pattern), `s<escaped>` strings.
#[must_use]
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "~".to_owned(),
        Value::Bool(true) => "T".to_owned(),
        Value::Bool(false) => "F".to_owned(),
        Value::Int(i) => format!("i{i}"),
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        Value::Str(s) => format!("s{}", escape_token(s)),
    }
}

/// Inverse of [`encode_value`].
///
/// # Errors
///
/// [`DbError::Persist`] on malformed tokens.
pub fn decode_value(token: &str) -> DbResult<Value> {
    let bad = || DbError::Persist(format!("bad value token {token:?}"));
    match token.split_at_checked(1) {
        Some(("~", "")) => Ok(Value::Null),
        Some(("T", "")) => Ok(Value::Bool(true)),
        Some(("F", "")) => Ok(Value::Bool(false)),
        Some(("i", rest)) => rest.parse().map(Value::Int).map_err(|_| bad()),
        Some(("f", rest)) => u64::from_str_radix(rest, 16)
            .map(|bits| Value::Float(f64::from_bits(bits)))
            .map_err(|_| bad()),
        Some(("s", rest)) => unescape_token(rest).map(Value::Str),
        _ => Err(bad()),
    }
}

/// The captured state of one table.
#[derive(Clone, Debug, PartialEq)]
pub struct TableSnapshot {
    /// Table name.
    pub name: String,
    /// Column definitions, in schema order.
    pub columns: Vec<ColumnDef>,
    /// Names of columns with declared hash indexes.
    pub indexes: Vec<String>,
    /// The monotonic write stamp at capture time.
    pub generation: u64,
    /// The auto-increment cursor at capture time.
    pub next_auto: i64,
    /// Every physical row, in storage order.
    pub rows: Vec<Row>,
}

/// A captured database: every table's [`TableSnapshot`], in name
/// order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// The captured tables.
    pub tables: Vec<TableSnapshot>,
}

impl Snapshot {
    /// The captured state of one table, by name.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TableSnapshot> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Total physical rows across all captured tables.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }
}

/// Renders one column definition as the space-separated token run
/// used after a `c ` prefix in the chunked-manifest format:
/// `TYPE nullable auto name`.
#[must_use]
pub fn encode_column(c: &ColumnDef) -> String {
    format!(
        "{} {} {} {}",
        c.column_type(),
        u8::from(c.is_nullable()),
        u8::from(c.is_auto_increment()),
        escape_token(c.name())
    )
}

/// Parses the token run produced by [`encode_column`].
///
/// # Errors
///
/// [`DbError::Persist`] on any malformed field.
pub fn parse_column(spec: &str) -> DbResult<ColumnDef> {
    let bad = || DbError::Persist(format!("bad column line {spec:?}"));
    let mut parts = spec.splitn(4, ' ');
    let ty = match parts.next().ok_or_else(bad)? {
        "BOOL" => ColumnType::Bool,
        "INT" => ColumnType::Int,
        "FLOAT" => ColumnType::Float,
        "TEXT" => ColumnType::Str,
        _ => return Err(bad()),
    };
    let nullable = parts.next() == Some("1");
    let auto = {
        let tok = parts.next().ok_or_else(bad)?;
        tok == "1"
    };
    let name = unescape_token(parts.next().ok_or_else(bad)?)?;
    let mut def = ColumnDef::new(&name, ty);
    if nullable {
        def = def.nullable();
    }
    if auto {
        def = def.auto_increment();
    }
    Ok(def)
}

impl Database {
    /// Captures every table under its read lock. Each table is
    /// internally consistent; callers needing a cross-table-consistent
    /// point must block writers for the duration (see the module
    /// docs).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            tables: self
                .table_names()
                .iter()
                .map(|name| {
                    let t = self.table(name).expect("listed table exists");
                    TableSnapshot {
                        name: (*name).to_owned(),
                        columns: t.schema().columns().to_vec(),
                        indexes: t
                            .indexed_columns()
                            .iter()
                            .map(|c| (*c).to_owned())
                            .collect(),
                        generation: t.generation(),
                        next_auto: t.next_auto(),
                        rows: t.rows().to_vec(),
                    }
                })
                .collect(),
        }
    }

    /// Replaces this database's entire contents with a snapshot's,
    /// preserving generation stamps and auto-increment cursors (the
    /// restored database is operationally identical to the captured
    /// one). Structural, hence `&mut self`; any attached write log
    /// stays attached.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] / validation errors if the snapshot is
    /// internally inconsistent (a row not matching its schema, an
    /// index on a missing column). On error the database is left
    /// unchanged.
    pub fn restore(&mut self, snapshot: &Snapshot) -> DbResult<()> {
        let mut tables = BTreeMap::new();
        for ts in &snapshot.tables {
            let mut table = Table::from_parts(
                &ts.name,
                Schema::new(ts.columns.clone()),
                ts.rows.clone(),
                ts.next_auto,
                ts.generation,
            )?;
            for col in &ts.indexes {
                table.create_index(col)?;
            }
            if tables.insert(ts.name.clone(), RwLock::new(table)).is_some() {
                return Err(DbError::Persist(format!(
                    "snapshot names table {:?} twice",
                    ts.name
                )));
            }
        }
        self.replace_tables(tables);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "people",
            Schema::new(vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("score", ColumnType::Float).nullable(),
                ColumnDef::new("active", ColumnType::Bool),
            ]),
        )
        .unwrap();
        db.create_table(
            "empty",
            Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]),
        )
        .unwrap();
        db.table_mut("people")
            .unwrap()
            .create_index("name")
            .unwrap();
        db.insert(
            "people",
            vec![
                Value::Null,
                Value::from("alice with spaces"),
                Value::Float(1.5),
                Value::Bool(true),
            ],
        )
        .unwrap();
        db.insert(
            "people",
            vec![
                Value::Null,
                Value::from("tab\tnewline\nback\\slash"),
                Value::Null,
                Value::Bool(false),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn value_tokens_round_trip() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(0.1),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Str("  spaced  out \t\n\\ ".into()),
            // Exotic Unicode whitespace: split_whitespace splits on
            // all of these, so every one must be escaped or a logged
            // record shears in two.
            Value::Str("non\u{a0}breaking\u{2028}line\u{b}vtab\u{3000}ideographic".into()),
        ];
        for v in values {
            let tok = encode_value(&v);
            assert!(
                !tok.chars().any(char::is_whitespace),
                "token {tok:?} contains whitespace"
            );
            let back = decode_value(&tok).unwrap();
            // NaN round-trips bit-exactly; Value's total order treats
            // NaN == NaN, so plain equality suffices.
            assert_eq!(back, v, "{tok}");
            if let (Value::Float(a), Value::Float(b)) = (&v, &back) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact float round trip");
            }
        }
        for bad in ["", "x", "izzz", "fzz", "\\q"] {
            assert!(decode_value(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn restore_is_operationally_identical() {
        let db = sample_db();
        let snap = db.snapshot();
        let mut restored = Database::new();
        restored.restore(&snap).unwrap();
        // Rows, generations and auto-increment cursors all match.
        assert_eq!(restored.table_names(), db.table_names());
        for name in db.table_names() {
            let a = db.table(name).unwrap();
            let b = restored.table(name).unwrap();
            assert_eq!(a.rows(), b.rows(), "{name}");
            assert_eq!(a.generation(), b.generation(), "{name}");
            assert_eq!(a.next_auto(), b.next_auto(), "{name}");
        }
        // Index declarations survive: probes answer without a scan.
        assert!(restored
            .table("people")
            .unwrap()
            .index_probe_ref("name", &Value::from("alice with spaces"))
            .is_some());
        // The next insert continues the id sequence.
        restored
            .insert(
                "people",
                vec![Value::Null, "carol".into(), Value::Null, Value::Bool(true)],
            )
            .unwrap();
        let t = restored.table("people").unwrap();
        assert_eq!(t.rows()[2][0], Value::Int(3));
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut snap = sample_db().snapshot();
        snap.tables[1].rows.push(vec![Value::from("not an int")]);
        assert!(Database::new().restore(&snap).is_err());
        let mut snap2 = sample_db().snapshot();
        snap2.tables[1].indexes.push("zzz".into());
        assert!(Database::new().restore(&snap2).is_err());
    }

    #[test]
    fn snapshot_takes_shared_access() {
        // &self capture under a concurrently held *read* guard of an
        // unrelated table — snapshot never needs &mut.
        let db = sample_db();
        let held = db.table("empty").unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.tables.len(), 2);
        drop(held);
    }
}
