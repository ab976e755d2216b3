//! The append-only write log: row-level durability between
//! snapshots, and the one serialized change stream of the engine.
//!
//! A [`Snapshot`](crate::Snapshot) is a full copy; taking one per
//! write would be absurd. Instead a [`WriteLog`] can be attached to a
//! [`Database`] ([`Database::attach_wal`]): every committed batch —
//! a single-statement write, or an atomic multi-statement object
//! write ([`Database::apply_batch_locked`]) — appends one line, and
//! restore becomes *load the last snapshot, then replay the log's
//! suffix*.
//!
//! # What a record holds
//!
//! A record is the serialized form of the [`RowDelta`]s the batch
//! produced, captured as they were produced (so a rewrite too large
//! for the in-memory journal window is still logged whole), one
//! section per table the batch wrote:
//!
//! ```text
//! <section> {; <section>} .
//! <section> = <table> <from> <to> {a <w> {<v>} | r <n> {<ix> <w> {<v>}} | d <n> {<ix>}}
//! ```
//!
//! * `from`/`to` are the table's generation before and after the
//!   batch; each delta is one generation bump, so `to - from` deltas
//!   follow;
//! * `a` appends a row, `r` rewrites rows in place by physical index,
//!   `d` removes rows by (pre-removal, ascending) physical index —
//!   **new images only**: replay has the old rows in hand;
//! * a batch over several tables — an object creation writes its
//!   facet rows and its policy-binding row — has one section per
//!   table, so all of it reaches the disk in one append or none of it
//!   does;
//! * the `.` terminator turns a crash-truncated line, which could
//!   otherwise still parse as a shorter record, into a detected torn
//!   tail.
//!
//! # Replay
//!
//! [`WriteLog::replay`] applies records *physically*, each section
//! checked by generation against its restored table: a section with
//! `to` at or below the table's generation is already in the snapshot
//! and is skipped (so the crash window between "snapshot renamed into
//! place" and "log compacted" cannot double-apply anything); one with
//! `from` equal to it applies; anything else is a gap — a lost record
//! — and fails the replay. Writers append under the write locks of
//! the tables they write, so one table's sections appear in
//! generation order; records of different tables interleave freely,
//! and replay does not depend on their relative order.
//!
//! # Durability window
//!
//! Each append is **flushed** to the OS but, under the default
//! [`SyncPolicy::Never`], not fsynced. The window this opens is
//! precise: a *process* crash (panic, kill -9) loses nothing — the
//! bytes are in the kernel page cache and reach disk on the OS's
//! schedule — but a *power loss / kernel panic* can lose every record
//! appended since the last checkpoint's `sync_all`. Checkpoints
//! themselves are fsynced (file + directory), so the exposure is
//! exactly the WAL tail. [`SyncPolicy::EveryN`] bounds that tail to N
//! records; [`SyncPolicy::Always`] closes it at one `fdatasync` per
//! write.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::faults::{self, FaultKind, FaultPoint};
use crate::snapshot::{decode_value, encode_value, escape_token, unescape_token};
use crate::table::{Row, RowDelta};

/// One physical change as the log stores it: a [`RowDelta`] without
/// its old row images.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoggedDelta {
    /// A row appended at the end of the table.
    Append(Row),
    /// In-place rewrites `(physical index, new row)`, ascending.
    Rewrite(Vec<(usize, Row)>),
    /// Removals by pre-removal physical index, ascending.
    Remove(Vec<usize>),
}

impl From<&RowDelta> for LoggedDelta {
    fn from(delta: &RowDelta) -> LoggedDelta {
        match delta {
            RowDelta::Append(row) => LoggedDelta::Append(row.clone()),
            RowDelta::Rewrite(rw) => LoggedDelta::Rewrite(
                rw.iter()
                    .map(|(ix, _old, new)| (*ix, new.clone()))
                    .collect(),
            ),
            RowDelta::Remove(rm) => LoggedDelta::Remove(rm.iter().map(|(ix, _)| *ix).collect()),
        }
    }
}

/// One table's part of a [`BatchRecord`]: the deltas the batch
/// committed to that table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSection {
    /// The table every delta applies to.
    pub table: String,
    /// The table's generation before the batch.
    pub from: u64,
    /// The table's generation after the batch (`from` + one per
    /// delta).
    pub to: u64,
    /// The deltas, in application order.
    pub deltas: Vec<LoggedDelta>,
}

/// One decoded log line: a committed batch, one section per table it
/// wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRecord {
    /// The sections, in the order the batch's tables were locked.
    pub sections: Vec<TableSection>,
}

fn push_row(out: &mut String, row: &Row) {
    out.push(' ');
    out.push_str(&row.len().to_string());
    for v in row {
        out.push(' ');
        out.push_str(&encode_value(v));
    }
}

/// Renders one batch as a log line (no trailing newline) in the
/// format of the [module docs](self).
fn record_line(sections: &[TableSection]) -> String {
    let mut out = String::new();
    for (i, section) in sections.iter().enumerate() {
        if i > 0 {
            out.push_str(" ; ");
        }
        out.push_str(&format!(
            "{} {} {}",
            escape_token(&section.table),
            section.from,
            section.to
        ));
        for delta in &section.deltas {
            match delta {
                LoggedDelta::Append(row) => {
                    out.push_str(" a");
                    push_row(&mut out, row);
                }
                LoggedDelta::Rewrite(rw) => {
                    out.push_str(&format!(" r {}", rw.len()));
                    for (ix, row) in rw {
                        out.push_str(&format!(" {ix}"));
                        push_row(&mut out, row);
                    }
                }
                LoggedDelta::Remove(ixs) => {
                    out.push_str(&format!(" d {}", ixs.len()));
                    for ix in ixs {
                        out.push_str(&format!(" {ix}"));
                    }
                }
            }
        }
    }
    out.push_str(" .");
    out
}

fn parse_err(what: &str) -> DbError {
    DbError::Persist(format!("bad write-log record: {what}"))
}

impl BatchRecord {
    /// Parses one log line (the format of the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] on any malformed record, including a
    /// section whose delta count disagrees with its generation span
    /// and a table with two sections.
    pub fn parse(line: &str) -> DbResult<BatchRecord> {
        let mut tokens = line.split_whitespace();
        let mut next = |what: &str| {
            tokens
                .next()
                .ok_or_else(|| parse_err(&format!("truncated {what}")))
        };
        fn num<T: std::str::FromStr>(tok: &str, what: &str) -> DbResult<T> {
            tok.parse().map_err(|_| parse_err(&format!("bad {what}")))
        }
        fn row<'a>(next: &mut impl FnMut(&str) -> DbResult<&'a str>) -> DbResult<Row> {
            let width: usize = num(next("row width")?, "row width")?;
            (0..width).map(|_| decode_value(next("value")?)).collect()
        }
        let mut sections: Vec<TableSection> = Vec::new();
        loop {
            let table = unescape_token(next("table")?)?;
            let from: u64 = num(next("from-generation")?, "from-generation")?;
            let to: u64 = num(next("to-generation")?, "to-generation")?;
            let mut deltas = Vec::new();
            let last = loop {
                match next("delta")? {
                    "." => break true,
                    ";" => break false,
                    "a" => deltas.push(LoggedDelta::Append(row(&mut next)?)),
                    "r" => {
                        let n: usize = num(next("rewrite count")?, "rewrite count")?;
                        let mut rw = Vec::new();
                        for _ in 0..n {
                            let ix = num(next("row index")?, "row index")?;
                            rw.push((ix, row(&mut next)?));
                        }
                        deltas.push(LoggedDelta::Rewrite(rw));
                    }
                    "d" => {
                        let n: usize = num(next("remove count")?, "remove count")?;
                        let ixs = (0..n)
                            .map(|_| num(next("row index")?, "row index"))
                            .collect::<DbResult<_>>()?;
                        deltas.push(LoggedDelta::Remove(ixs));
                    }
                    other => return Err(parse_err(&format!("unknown delta {other:?}"))),
                }
            };
            if from.checked_add(deltas.len() as u64) != Some(to) || from == to {
                return Err(parse_err(&format!(
                    "{} deltas cannot take {table:?} from generation {from} to {to}",
                    deltas.len()
                )));
            }
            if sections.iter().any(|s| s.table == table) {
                return Err(parse_err(&format!("two sections for {table:?}")));
            }
            sections.push(TableSection {
                table,
                from,
                to,
                deltas,
            });
            if last {
                break;
            }
        }
        if tokens.next().is_some() {
            return Err(parse_err("trailing tokens after the terminator"));
        }
        Ok(BatchRecord { sections })
    }
}

/// What a replay did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records applied.
    pub applied: usize,
    /// Records skipped because the snapshot already contained them.
    pub skipped: usize,
    /// Whether a torn (crash-truncated) final line was discarded.
    pub torn_tail: bool,
}

/// When (if ever) an append is fsynced, not just flushed. See the
/// module-level *Durability window* note: the default trades power-
/// loss durability of the WAL tail for write latency, exactly like
/// `synchronous=NORMAL` databases.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Flush to the OS only (the historical behavior). Survives
    /// process crashes; a power loss can lose the whole WAL tail
    /// since the last checkpoint.
    Never,
    /// `fdatasync` every Nth append: bounds power-loss exposure to at
    /// most N-1 records. `EveryN(1)` is equivalent to [`Always`].
    ///
    /// [`Always`]: SyncPolicy::Always
    EveryN(u32),
    /// `fdatasync` every append: no durability window, one disk
    /// round-trip per write.
    Always,
}

/// The append-only log: one flushed line per committed batch,
/// compaction after a checkpoint, and torn-tail-aware replay.
/// `Send + Sync`; appends serialize on an internal mutex (callers
/// additionally hold the target table's write lock, which is what
/// orders one table's records).
pub struct WriteLog {
    path: PathBuf,
    file: Mutex<BufWriter<File>>,
    policy: SyncPolicy,
    /// Appends since the last fsync (only tracked for `EveryN`).
    since_sync: AtomicU64,
    /// Total fsyncs issued — observability for tests and stats.
    syncs: AtomicU64,
    /// Records in the file — seeded from the file at open, bumped per
    /// append, reset by truncation/compaction. Drives checkpoint
    /// scheduling ("every N records") and observability.
    records: AtomicU64,
    /// Bytes in the file, maintained alongside `records`.
    bytes: AtomicU64,
}

impl fmt::Debug for WriteLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteLog")
            .field("path", &self.path)
            .finish()
    }
}

impl WriteLog {
    /// Opens (creating if absent) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<WriteLog> {
        WriteLog::open_with_policy(path, SyncPolicy::Never)
    }

    /// Opens (creating if absent) the log at `path` with an explicit
    /// [`SyncPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open_with_policy(
        path: impl AsRef<Path>,
        policy: SyncPolicy,
    ) -> std::io::Result<WriteLog> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Seed the pressure counters from whatever the file already
        // holds, so scheduling thresholds account for a pre-existing
        // (e.g. post-restore) backlog.
        let (records, bytes) = match std::fs::read(&path) {
            Ok(existing) => (
                existing.iter().filter(|&&b| b == b'\n').count() as u64,
                existing.len() as u64,
            ),
            Err(_) => (0, 0),
        };
        Ok(WriteLog {
            path,
            file: Mutex::new(BufWriter::new(file)),
            policy,
            since_sync: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            records: AtomicU64::new(records),
            bytes: AtomicU64::new(bytes),
        })
    }

    /// The log's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The log's fsync policy.
    #[must_use]
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Total fsyncs this log has issued (0 under
    /// [`SyncPolicy::Never`]).
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Records appended since the log was last truncated or compacted
    /// (seeded from the file at open). The checkpoint scheduler's
    /// "every N records" pressure gauge.
    #[must_use]
    pub fn records_since_truncate(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Bytes appended since the log was last truncated or compacted
    /// (seeded from the file at open).
    #[must_use]
    pub fn bytes_since_truncate(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Appends one line (no embedded newlines) and flushes it to the
    /// OS, so a *process* crash after the append returns cannot lose
    /// it; whether it also survives power loss is the [`SyncPolicy`]'s
    /// call (see the module-level *Durability window* note).
    ///
    /// This is the [`FaultPoint::WalAppend`] injection site: an armed
    /// [`FaultKind::Error`] fails before any byte is written (disk
    /// full); an armed [`FaultKind::ShortWrite`] leaves a torn,
    /// newline-less prefix in the file — exactly the tail shape
    /// [`WriteLog::replay`] must discard — then fails.
    fn append_line(&self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "records are single lines");
        let mut file = self.file.lock().expect("write log poisoned");
        match faults::check(FaultPoint::WalAppend, &self.path) {
            Some(FaultKind::Error) => return Err(faults::injected_err("append")),
            Some(FaultKind::ShortWrite) => {
                let cut = line.len() / 2;
                file.write_all(&line.as_bytes()[..cut])
                    .and_then(|()| file.flush())?;
                return Err(faults::injected_err("append torn mid-record"));
            }
            None => {}
        }
        writeln!(file, "{line}").and_then(|()| file.flush())?;
        let due = match self.policy {
            SyncPolicy::Never => false,
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => {
                let seen = self.since_sync.fetch_add(1, Ordering::Relaxed) + 1;
                if seen >= u64::from(n.max(1)) {
                    self.since_sync.store(0, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        };
        if due {
            file.get_ref().sync_data()?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends one committed batch as one record and flushes it to
    /// the OS: either the whole batch — every table's section — is in
    /// the log or none of it is.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] wrapping the I/O failure — callers treat
    /// an unloggable write as a failed write.
    pub(crate) fn append(&self, sections: &[TableSection]) -> DbResult<()> {
        self.append_line(&record_line(sections))
            .map_err(|e| DbError::Persist(format!("write log append: {e}")))
    }

    /// Truncates the log — called right after a snapshot superseding
    /// every logged record has been renamed into place.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn truncate(&self) -> std::io::Result<()> {
        let mut file = self.file.lock().expect("write log poisoned");
        file.flush()?;
        let f = file.get_mut();
        f.set_len(0)?;
        f.seek(std::io::SeekFrom::Start(0))?;
        self.records.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Compacts the log against a checkpoint's generation vector:
    /// keeps exactly the records with a section *newer* than
    /// `floor[table]` (the generation the checkpoint captured for that
    /// table; replay skips the record's older sections), drops records
    /// the checkpoint already reflects, records for tables the vector
    /// does not name (their tables are fully captured or gone), lines that do
    /// not parse (corruption the checkpoint has superseded; keeping it
    /// would poison the next replay) and any torn tail. At quiescence
    /// this degenerates to an empty file, like [`WriteLog::truncate`],
    /// but it is also safe against records that raced in after the
    /// floor was captured. The rewrite happens under the append mutex
    /// and is fsynced before returning. Returns `(kept, dropped)`.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] wrapping I/O failure. On error the file
    /// may hold a prefix of the kept lines — every one a complete
    /// record newer than the floor, so replay is still sound.
    pub fn compact(&self, floor: &BTreeMap<String, u64>) -> DbResult<(u64, u64)> {
        let io = |e: std::io::Error| DbError::Persist(format!("write log compact: {e}"));
        let mut file = self.file.lock().expect("write log poisoned");
        file.flush().map_err(io)?;
        let mut text = String::new();
        File::open(&self.path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(io)?;
        let (lines, complete_tail) = split_lines(&text);
        let complete = if complete_tail {
            &lines[..]
        } else {
            &lines[..lines.len() - 1]
        };
        let f = file.get_mut();
        f.set_len(0).map_err(io)?;
        f.seek(std::io::SeekFrom::Start(0)).map_err(io)?;
        self.records.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        let (mut kept, mut bytes) = (0u64, 0u64);
        for line in complete {
            let newer = BatchRecord::parse(line).is_ok_and(|r| {
                r.sections
                    .iter()
                    .any(|s| floor.get(&s.table).is_some_and(|&g| s.to > g))
            });
            if newer {
                writeln!(f, "{line}").map_err(io)?;
                kept += 1;
                bytes += line.len() as u64 + 1;
            }
        }
        f.flush().map_err(io)?;
        f.sync_data().map_err(io)?;
        self.records.store(kept, Ordering::Relaxed);
        self.bytes.store(bytes, Ordering::Relaxed);
        Ok((kept, lines.len() as u64 - kept))
    }

    /// Replays the log at `path` onto `db`, applying each section's
    /// deltas physically under the generation check of the
    /// [module docs](self): at or below the table's generation skips,
    /// exactly at it applies, past it is a gap and an error. A torn
    /// final line (the crash was mid-append) is discarded; a malformed
    /// line anywhere else is an error. A missing file replays nothing.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] for unreadable or corrupt logs and for a
    /// generation gap; table errors if a record no longer applies
    /// (e.g. its table is gone or an index is out of range).
    pub fn replay(path: impl AsRef<Path>, db: &Database) -> DbResult<ReplayStats> {
        let mut text = String::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => f
                .read_to_string(&mut text)
                .map_err(|e| DbError::Persist(format!("write log read: {e}")))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplayStats::default()),
            Err(e) => return Err(DbError::Persist(format!("write log read: {e}"))),
        };
        let (lines, complete_tail) = split_lines(&text);
        let mut stats = ReplayStats::default();
        for (i, line) in lines.iter().enumerate() {
            let record = match BatchRecord::parse(line) {
                Ok(r) => r,
                Err(_) if i + 1 == lines.len() && !complete_tail => {
                    stats.torn_tail = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            let mut applied = false;
            for section in record.sections {
                let mut t = db.table_mut(&section.table)?;
                let current = t.generation();
                if section.to <= current {
                    continue;
                }
                if section.from != current {
                    return Err(DbError::Persist(format!(
                        "write log gap: {:?} is at generation {current}, but the next record \
                         starts at {}",
                        section.table, section.from
                    )));
                }
                for delta in section.deltas {
                    t.apply_logged(delta)?;
                }
                applied = true;
            }
            if applied {
                stats.applied += 1;
            } else {
                stats.skipped += 1;
            }
        }
        Ok(stats)
    }
}

/// The non-empty lines of `text`, plus whether it ended in a newline
/// (`false` marks the last line as a torn-tail candidate: the crash
/// was mid-append).
fn split_lines(text: &str) -> (Vec<&str>, bool) {
    let complete_tail = text.is_empty() || text.ends_with('\n');
    let lines = text.lines().filter(|l| !l.trim().is_empty()).collect();
    (lines, complete_tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Statement;
    use crate::predicate::{Operand, Predicate};
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{ColumnType, Value};
    use std::sync::Arc;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("microdb_wal_{name}_{}", std::process::id()))
    }

    fn fresh_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("x", ColumnType::Str),
            ]),
        )
        .unwrap();
        db
    }

    fn append_row(id: i64, x: &str) -> LoggedDelta {
        LoggedDelta::Append(vec![Value::Int(id), Value::from(x)])
    }

    fn section(table: &str, from: u64, to: u64, deltas: Vec<LoggedDelta>) -> TableSection {
        TableSection {
            table: table.into(),
            from,
            to,
            deltas,
        }
    }

    /// A one-table record's line.
    fn line(table: &str, from: u64, to: u64, deltas: Vec<LoggedDelta>) -> String {
        record_line(&[section(table, from, to, deltas)])
    }

    #[test]
    fn records_round_trip() {
        let records = [
            BatchRecord {
                sections: vec![section(
                    "a table",
                    16,
                    17,
                    vec![LoggedDelta::Append(vec![
                        Value::Int(1),
                        Value::from("x y"),
                        Value::Null,
                    ])],
                )],
            },
            // A web form can deliver any Unicode whitespace; the
            // record must survive the split_whitespace tokenizer.
            BatchRecord {
                sections: vec![section(
                    "t",
                    0,
                    3,
                    vec![
                        LoggedDelta::Append(vec![Value::from("non\u{a0}breaking\u{2028}title")]),
                        LoggedDelta::Rewrite(vec![
                            (0, vec![Value::Float(2.5)]),
                            (4, vec![Value::Bool(false)]),
                        ]),
                        LoggedDelta::Remove(vec![1, 2, 7]),
                    ],
                )],
            },
        ];
        for record in records {
            let line = record_line(&record.sections);
            assert!(!line.contains('\n'));
            assert_eq!(BatchRecord::parse(&line).unwrap(), record, "{line}");
        }
        for bad in [
            "",
            "t 1 2 z .",
            "t notanumber 2 a 1 i1 .",
            "t 1 2 d 1 nope .",
            "t 1 2 r 1 0 2 i1 .",
            // A truncated-but-well-formed prefix: the terminator is
            // what rejects it.
            "t 1 2 a 2 i2 sto",
            "t 1 2 d 0",
            // The delta count must match the generation span.
            "t 1 3 a 1 i1 .",
            "t 1 1 .",
            "t 1 2 a 1 i1 . extra",
            // A section separator must be followed by a section.
            "t 1 2 a 1 i1 ; .",
        ] {
            assert!(BatchRecord::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn attached_log_captures_and_replays_writes() {
        let path = temp_path("capture");
        let _ = std::fs::remove_file(&path);
        let mut db = fresh_db();
        let snapshot = db.snapshot(); // empty baseline
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));
        db.insert("t", vec![Value::Null, Value::from("one")])
            .unwrap();
        db.insert("t", vec![Value::Null, Value::from("two")])
            .unwrap();
        db.update(
            "t",
            &Predicate::eq(Operand::col("x"), Operand::lit("one")),
            &[("x".to_owned(), Value::from("ONE"))],
        )
        .unwrap();
        db.delete("t", &Predicate::eq(Operand::col("x"), Operand::lit("two")))
            .unwrap();

        let mut restored = Database::new();
        restored.restore(&snapshot).unwrap();
        let stats = WriteLog::replay(&path, &restored).unwrap();
        assert_eq!(stats.applied, 4);
        assert_eq!(stats.skipped, 0);
        assert!(!stats.torn_tail);
        assert_eq!(
            restored.table("t").unwrap().rows(),
            db.table("t").unwrap().rows()
        );
        assert_eq!(
            restored.generation("t").unwrap(),
            db.generation("t").unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_skips_records_the_snapshot_contains() {
        let path = temp_path("skip");
        let _ = std::fs::remove_file(&path);
        let mut db = fresh_db();
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));
        db.insert("t", vec![Value::Null, Value::from("pre")])
            .unwrap();
        // Snapshot taken *after* the first write; the log still holds
        // its record (the crash window between rename and compaction).
        let snapshot = db.snapshot();
        db.insert("t", vec![Value::Null, Value::from("post")])
            .unwrap();

        let mut restored = Database::new();
        restored.restore(&snapshot).unwrap();
        let stats = WriteLog::replay(&path, &restored).unwrap();
        assert_eq!((stats.applied, stats.skipped), (1, 1));
        assert_eq!(restored.table("t").unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_rejects_a_record_that_does_not_start_at_the_table_generation() {
        // A record starting past the table's generation means the one
        // in between was lost: replay must fail, not skip ahead.
        let path = temp_path("gap");
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n",
                line("t", 0, 1, vec![append_row(1, "a")]),
                line("t", 2, 3, vec![append_row(3, "c")]),
            ),
        )
        .unwrap();
        let err = WriteLog::replay(&path, &fresh_db()).unwrap_err();
        assert!(
            matches!(&err, DbError::Persist(m) if m.contains("gap")),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replayed_inserts_advance_the_auto_increment_cursor() {
        // The restore-then-insert hazard: WAL records store rows "as
        // stored" (auto-increment columns resolved), so a restore
        // whose cursor trailed the replayed rows would hand out
        // duplicate ids on the next insert.
        let path = temp_path("cursor");
        let _ = std::fs::remove_file(&path);
        let mut db = fresh_db();
        let snapshot = db.snapshot(); // cursor = 1 in the baseline
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));
        for s in ["one", "two", "three"] {
            db.insert("t", vec![Value::Null, Value::from(s)]).unwrap();
        }
        assert_eq!(db.table("t").unwrap().next_auto(), 4);

        let mut restored = Database::new();
        restored.restore(&snapshot).unwrap();
        WriteLog::replay(&path, &restored).unwrap();
        assert_eq!(
            restored.table("t").unwrap().next_auto(),
            4,
            "replayed explicit ids must advance the cursor"
        );
        // The next Null insert gets a fresh id, not a duplicate.
        let pos = restored
            .insert("t", vec![Value::Null, Value::from("four")])
            .unwrap();
        assert_eq!(restored.table("t").unwrap().rows()[pos][0], Value::Int(4));
        let ids: Vec<i64> = restored
            .table("t")
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4], "no id collision after restore");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn no_op_updates_and_deletes_are_not_logged() {
        // A zero-row write does not bump the generation, so it has no
        // deltas to log — the log must not grow.
        let path = temp_path("noop");
        let _ = std::fs::remove_file(&path);
        let mut db = fresh_db();
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));
        db.insert("t", vec![Value::Null, Value::from("row")])
            .unwrap();
        db.update(
            "t",
            &Predicate::eq(Operand::col("x"), Operand::lit("absent")),
            &[("x".to_owned(), Value::from("y"))],
        )
        .unwrap();
        db.delete(
            "t",
            &Predicate::eq(Operand::col("x"), Operand::lit("absent")),
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "only the insert was logged");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_but_midfile_corruption_is_an_error() {
        let path = temp_path("torn");
        std::fs::write(
            &path,
            format!(
                "{}\nt 1 2 a 2 i2 sto",
                line("t", 0, 1, vec![append_row(1, "whole")])
            ),
        )
        .unwrap();
        let db = fresh_db();
        let stats = WriteLog::replay(&path, &db).unwrap();
        assert!(stats.torn_tail);
        assert_eq!(stats.applied, 1);
        assert_eq!(db.table("t").unwrap().len(), 1);

        // The same broken record mid-file (newline-terminated, another
        // record after it) is corruption, not a torn tail.
        std::fs::write(&path, "zzz not-a-record .\nt 0 1 a 2 i1 sok .\n").unwrap();
        assert!(WriteLog::replay(&path, &fresh_db()).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_resets_the_log() {
        let path = temp_path("truncate");
        let _ = std::fs::remove_file(&path);
        let log = WriteLog::open(&path).unwrap();
        log.append(&[section("t", 0, 1, vec![append_row(1, "a")])])
            .unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        log.truncate().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // Appends continue after a truncate.
        log.append(&[section("t", 0, 1, vec![append_row(1, "b")])])
            .unwrap();
        let db = fresh_db();
        let stats = WriteLog::replay(&path, &db).unwrap();
        assert_eq!(stats.applied, 1);
        assert_eq!(db.table("t").unwrap().rows()[0][1], Value::from("b"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_log_replays_nothing() {
        let stats = WriteLog::replay(temp_path("never-created"), &fresh_db()).unwrap();
        assert_eq!(stats, ReplayStats::default());
    }

    #[test]
    fn batch_records_round_trip() {
        // A create: its facet rows and its binding row, one section
        // per table, in one record.
        let sections = vec![
            section(
                "t",
                9,
                13,
                vec![
                    LoggedDelta::Remove(vec![0]),
                    append_row(3, "a b"),
                    append_row(4, ""),
                    LoggedDelta::Rewrite(vec![(1, vec![Value::Int(4), Value::from("v")])]),
                ],
            ),
            section(
                "_bind_t",
                2,
                3,
                vec![LoggedDelta::Append(vec![
                    Value::Int(3),
                    Value::from("a b"),
                    Value::Int(12),
                ])],
            ),
        ];
        let line = record_line(&sections);
        assert_eq!(BatchRecord::parse(&line).unwrap(), BatchRecord { sections });
        // A truncated batch (no terminator, or cut at the section
        // separator) is rejected, and so is a table with two sections.
        assert!(BatchRecord::parse(line.trim_end_matches(" .")).is_err());
        let cut = &line[..line.find(" ; ").unwrap() + 2];
        assert!(BatchRecord::parse(cut).is_err(), "{cut:?}");
        assert!(BatchRecord::parse("t 1 2 a 1 i1 ; t 2 3 a 1 i2 .").is_err());
    }

    /// Each section replays under its own table's generation check: a
    /// record whose first table the snapshot already holds applies
    /// only its second section.
    #[test]
    fn sections_skip_or_apply_per_table() {
        let path = temp_path("sections");
        let mut db = fresh_db();
        db.create_table("u", Schema::new(vec![ColumnDef::new("y", ColumnType::Int)]))
            .unwrap();
        db.insert("t", vec![Value::Null, Value::from("held")])
            .unwrap();
        std::fs::write(
            &path,
            format!(
                "{}\n",
                record_line(&[
                    section("t", 0, 1, vec![append_row(1, "held")]),
                    section("u", 0, 1, vec![LoggedDelta::Append(vec![Value::Int(7)])]),
                ])
            ),
        )
        .unwrap();
        let stats = WriteLog::replay(&path, &db).unwrap();
        assert_eq!((stats.applied, stats.skipped), (1, 0));
        assert_eq!(db.table("t").unwrap().len(), 1, "t's section skipped");
        assert_eq!(db.table("u").unwrap().rows(), &[vec![Value::Int(7)]]);
        let stats = WriteLog::replay(&path, &db).unwrap();
        assert_eq!((stats.applied, stats.skipped), (0, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_replay_skips_or_applies_as_a_unit() {
        let path = temp_path("batch");
        let _ = std::fs::remove_file(&path);
        let mut db = fresh_db();
        let snapshot = db.snapshot();
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));
        // An object write: two inserts, one record.
        {
            let mut t = db.table_mut("t").unwrap();
            let stmts: Vec<Statement> = ["r1", "r2"]
                .iter()
                .map(|x| Statement::Insert {
                    table: "t".into(),
                    row: vec![Value::Null, Value::from(*x)],
                })
                .collect();
            db.apply_batch_locked(&mut [&mut *t], stmts).unwrap();
        }

        let mut restored = Database::new();
        restored.restore(&snapshot).unwrap();
        let stats = WriteLog::replay(&path, &restored).unwrap();
        assert_eq!((stats.applied, stats.skipped), (1, 0));
        assert_eq!(
            restored.table("t").unwrap().rows(),
            db.table("t").unwrap().rows()
        );
        // Replaying onto the already-current database skips the batch.
        let stats2 = WriteLog::replay(&path, &restored).unwrap();
        assert_eq!((stats2.applied, stats2.skipped), (0, 1));
        assert_eq!(restored.table("t").unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_short_write_leaves_a_replayable_torn_tail() {
        let path = temp_path("fault_short");
        let _ = std::fs::remove_file(&path);
        let log = WriteLog::open(&path).unwrap();
        log.append(&[section("t", 0, 1, vec![append_row(1, "whole")])])
            .unwrap();

        // Path-scoped so a parallel test's appends can't trip it; one-
        // shot so it is inert afterwards (no disarm needed, which
        // would clear other tests' plans).
        faults::arm_at(
            FaultPoint::WalAppend,
            0,
            FaultKind::ShortWrite,
            "fault_short",
        );
        let err = log
            .append(&[section("t", 1, 2, vec![append_row(2, "torn")])])
            .unwrap_err();
        assert!(format!("{err}").contains("injected"), "{err}");

        let db = fresh_db();
        let stats = WriteLog::replay(&path, &db).unwrap();
        assert!(stats.torn_tail, "{stats:?}");
        assert_eq!(stats.applied, 1);
        assert_eq!(db.table("t").unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_policy_every_n_counts_fsyncs() {
        let path = temp_path("sync_policy");
        let _ = std::fs::remove_file(&path);
        let log = WriteLog::open_with_policy(&path, SyncPolicy::EveryN(2)).unwrap();
        assert_eq!(log.sync_policy(), SyncPolicy::EveryN(2));
        for i in 0..5 {
            log.append_line(&format!("line{i}")).unwrap();
        }
        assert_eq!(log.sync_count(), 2, "5 appends at EveryN(2) -> 2 syncs");

        let always = WriteLog::open_with_policy(&path, SyncPolicy::Always).unwrap();
        always.append_line("x").unwrap();
        assert_eq!(always.sync_count(), 1);

        let never = WriteLog::open_with_policy(&path, SyncPolicy::Never).unwrap();
        never.append_line("y").unwrap();
        assert_eq!(never.sync_count(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pressure_counters_track_appends_and_survive_reopen() {
        let path = temp_path("pressure");
        let _ = std::fs::remove_file(&path);
        let log = WriteLog::open(&path).unwrap();
        assert_eq!(log.records_since_truncate(), 0);
        log.append_line("one").unwrap();
        log.append_line("two").unwrap();
        assert_eq!(log.records_since_truncate(), 2);
        assert_eq!(log.bytes_since_truncate(), 8, "`one\\n` + `two\\n`");
        drop(log);

        // A reopen (restore path) seeds the gauges from the file.
        let log = WriteLog::open(&path).unwrap();
        assert_eq!(log.records_since_truncate(), 2);
        assert_eq!(log.bytes_since_truncate(), 8);
        log.truncate().unwrap();
        assert_eq!(log.records_since_truncate(), 0);
        assert_eq!(log.bytes_since_truncate(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_keeps_only_records_above_the_floor() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let log = Arc::new(WriteLog::open(&path).unwrap());
        log.append(&[section("t", 0, 1, vec![append_row(1, "a")])])
            .unwrap();
        log.append(&[section("t", 1, 2, vec![append_row(2, "b")])])
            .unwrap();
        log.append(&[section("t", 2, 3, vec![append_row(3, "c")])])
            .unwrap();
        log.append(&[section(
            "u",
            4,
            5,
            vec![LoggedDelta::Append(vec![Value::Int(9)])],
        )])
        .unwrap();

        // Checkpoint captured t@2; table u is not in the vector (fully
        // captured), so its records drop too.
        let floor: BTreeMap<String, u64> = [("t".to_owned(), 2)].into();
        let (kept, dropped) = log.compact(&floor).unwrap();
        assert_eq!((kept, dropped), (1, 3));
        assert_eq!(log.records_since_truncate(), 1);

        // The survivor replays on top of a table at the floor.
        let db = fresh_db();
        for x in ["a", "b"] {
            db.insert("t", vec![Value::Null, Value::from(x)]).unwrap();
        }
        let stats = WriteLog::replay(&path, &db).unwrap();
        assert_eq!(stats.applied, 1, "only t@3 survives and replays");
        assert_eq!(db.table("t").unwrap().rows()[2][1], Value::from("c"));

        // At quiescence the vector matches live generations and the
        // file degenerates to empty.
        let floor: BTreeMap<String, u64> = [("t".to_owned(), 3)].into();
        let (kept, _) = log.compact(&floor).unwrap();
        assert_eq!(kept, 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
