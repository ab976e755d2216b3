//! Physical tables: row storage plus hash indexes.

use std::collections::{HashMap, VecDeque};

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::Value;
use crate::wal::LoggedDelta;

/// A stored row: one value per schema column.
pub type Row = Vec<Value>;

/// One logical write, recorded in the table's change journal. Each
/// generation bump produces exactly one delta, so a caching layer
/// holding a snapshot at generation `g` can replay
/// [`Table::deltas_since`]`(g)` instead of re-reading every row.
///
/// Deltas are self-contained: rewrites and removals carry the *old*
/// row images, so consumers can invalidate derived per-row state (e.g.
/// decoded-object memos keyed by a column of the old row) without
/// consulting any other copy of the table.
#[derive(Clone, Debug, PartialEq)]
pub enum RowDelta {
    /// A row appended at the end of the table (physical position =
    /// previous row count), auto-increment columns already resolved.
    Append(Row),
    /// In-place rewrites: `(physical index, old row, new row)` for
    /// every row the update matched, in ascending index order.
    Rewrite(Vec<(usize, Row, Row)>),
    /// Removals: `(pre-removal physical index, removed row)` in
    /// ascending index order. Replaying requires removing in
    /// *descending* order so earlier indices stay valid.
    Remove(Vec<(usize, Row)>),
}

impl RowDelta {
    /// Rows touched — the unit the journal's sliding window is
    /// bounded in.
    fn cost(&self) -> usize {
        match self {
            RowDelta::Append(_) => 1,
            RowDelta::Rewrite(v) => v.len(),
            RowDelta::Remove(v) => v.len(),
        }
    }
}

/// Rows (not entries) a table's change journal retains before the
/// oldest deltas slide out of the window. Sized so the common
/// single-row write stream keeps ~a thousand generations replayable
/// while a bulk rewrite of a huge table evicts itself immediately —
/// consumers always fall back to a full re-read when the window has
/// slid past their snapshot.
const JOURNAL_ROW_BUDGET: usize = 1024;

/// Bounded sliding window of [`RowDelta`]s. Entry `i` describes the
/// write that produced generation `first + i`.
#[derive(Clone, Debug, Default)]
struct ChangeJournal {
    /// Generation of the oldest retained entry.
    first: u64,
    entries: VecDeque<RowDelta>,
    /// Sum of `cost()` over `entries`.
    cost: usize,
}

impl ChangeJournal {
    fn starting_at(first: u64) -> ChangeJournal {
        ChangeJournal {
            first,
            entries: VecDeque::new(),
            cost: 0,
        }
    }

    fn push(&mut self, delta: RowDelta) {
        self.cost += delta.cost();
        self.entries.push_back(delta);
        while self.cost > JOURNAL_ROW_BUDGET {
            let Some(old) = self.entries.pop_front() else {
                break;
            };
            self.cost -= old.cost();
            self.first += 1;
        }
    }

    /// Drops the entries past generation `g` (which the window must
    /// still reach), newest first, returning them newest first.
    fn pop_after(&mut self, g: u64) -> Vec<RowDelta> {
        let keep = usize::try_from(g + 1 - self.first).expect("window reaches g");
        let mut popped = Vec::with_capacity(self.entries.len() - keep);
        while self.entries.len() > keep {
            let delta = self.entries.pop_back().expect("len > keep");
            self.cost -= delta.cost();
            popped.push(delta);
        }
        popped
    }
}

/// A hash index over a single column.
#[derive(Clone, Debug, Default)]
struct HashIndex {
    column: usize,
    map: HashMap<Value, Vec<usize>>,
    dirty: bool,
}

impl HashIndex {
    fn rebuild(&mut self, rows: &[Row]) {
        self.map.clear();
        for (i, r) in rows.iter().enumerate() {
            self.map.entry(r[self.column].clone()).or_default().push(i);
        }
        self.dirty = false;
    }
}

/// A single table: schema, rows, and optional hash indexes.
///
/// Mutation goes through [`Table::insert`], [`Table::update_where`] and
/// [`Table::delete_where`]; reads go through [`Table::rows`] or an
/// index probe. Indexes update incrementally on insert and rebuild
/// lazily after updates/deletes.
///
/// Every mutation that changes at least one row bumps a monotonic
/// [`Table::generation`] stamp and records a [`RowDelta`] in a bounded
/// change journal, giving caching layers (e.g. the FORM's decoded-row
/// cache) both a cheap staleness check — a cache entry captured at
/// generation `g` is valid exactly while `generation() == g` — and a
/// cheap *repair* path: [`Table::deltas_since`]`(g)` replays the
/// writes between a stale snapshot and the present.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    indexes: Vec<HashIndex>,
    next_auto: i64,
    generation: u64,
    journal: ChangeJournal,
    /// While `Some`, every committed delta is also collected here in
    /// its log form — how a logged batch captures exactly the deltas
    /// it produced, including ones too large for the journal window.
    capture: Option<Vec<LoggedDelta>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(name: &str, schema: Schema) -> Table {
        Table {
            name: name.to_owned(),
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
            next_auto: 1,
            generation: 0,
            journal: ChangeJournal::starting_at(1),
            capture: None,
        }
    }

    /// The table's monotonic write stamp: bumped by every call to
    /// [`Table::insert`], and by [`Table::update_where`] /
    /// [`Table::delete_where`] **when at least one row changed**. A
    /// write that matches zero rows leaves the stamp (and therefore
    /// every warm cache slot keyed on it) untouched — the stamp
    /// changes exactly when the physical rows do, which is also the
    /// invariant the change journal depends on: one [`RowDelta`] per
    /// bump.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The deltas for generations `g+1 ..= generation()`, oldest
    /// first — what a consumer holding a snapshot at generation `g`
    /// must replay to catch up. Returns `None` when the journal's
    /// sliding window no longer reaches back to `g` (or `g` is from
    /// the future); the caller falls back to a full re-read, so
    /// correctness never depends on journal retention.
    pub fn deltas_since(&self, g: u64) -> Option<impl Iterator<Item = &RowDelta>> {
        if g > self.generation || g + 1 < self.journal.first {
            return None;
        }
        let skip = usize::try_from(g + 1 - self.journal.first).ok()?;
        Some(self.journal.entries.iter().skip(skip))
    }

    /// The table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All rows, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Declares a hash index on `column`. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchColumn`] if the column does not exist.
    pub fn create_index(&mut self, column: &str) -> DbResult<()> {
        let ix = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn(column.to_owned()))?;
        if self.indexes.iter().any(|i| i.column == ix) {
            return Ok(());
        }
        let mut index = HashIndex {
            column: ix,
            map: HashMap::new(),
            dirty: false,
        };
        index.rebuild(&self.rows);
        self.indexes.push(index);
        Ok(())
    }

    /// Inserts a row, filling auto-increment columns that are `Null`.
    /// Returns the row's physical position.
    ///
    /// # Errors
    ///
    /// Returns schema-validation errors from [`Schema::check_row`].
    pub fn insert(&mut self, mut values: Row) -> DbResult<usize> {
        self.schema.check_row(&values)?;
        for (i, c) in self.schema.columns().iter().enumerate() {
            if c.is_auto_increment() && values[i].is_null() {
                values[i] = Value::Int(self.next_auto);
                self.next_auto += 1;
            } else if c.is_auto_increment() {
                if let Value::Int(v) = values[i] {
                    self.next_auto = self.next_auto.max(v + 1);
                }
            }
        }
        let pos = self.rows.len();
        for index in &mut self.indexes {
            if !index.dirty {
                index
                    .map
                    .entry(values[index.column].clone())
                    .or_default()
                    .push(pos);
            }
        }
        self.commit(RowDelta::Append(values.clone()));
        self.rows.push(values);
        Ok(pos)
    }

    /// Updates every row satisfying `pred`, assigning `assignments`
    /// (column name → new value). Returns the number of updated rows.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchColumn`] for unknown assignment targets
    /// and [`DbError::TypeMismatch`] for ill-typed values.
    pub fn update_where(
        &mut self,
        mut pred: impl FnMut(&Row) -> bool,
        assignments: &[(String, Value)],
    ) -> DbResult<usize> {
        let mut resolved = Vec::with_capacity(assignments.len());
        for (name, v) in assignments {
            let ix = self
                .schema
                .column_index(name)
                .ok_or_else(|| DbError::NoSuchColumn(name.clone()))?;
            if !self.schema.columns()[ix].accepts(v) {
                return Err(DbError::TypeMismatch {
                    column: name.clone(),
                    expected: self.schema.columns()[ix].column_type(),
                    got: v.clone(),
                });
            }
            resolved.push((ix, v.clone()));
        }
        let mut rewrites = Vec::new();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if pred(row) {
                let old = row.clone();
                for (ix, v) in &resolved {
                    row[*ix] = v.clone();
                }
                rewrites.push((i, old, row.clone()));
            }
        }
        let n = rewrites.len();
        if n > 0 {
            self.commit(RowDelta::Rewrite(rewrites));
        }
        Ok(n)
    }

    /// Deletes every row satisfying `pred`; returns how many were
    /// removed.
    pub fn delete_where(&mut self, mut pred: impl FnMut(&Row) -> bool) -> usize {
        let mut removals = Vec::new();
        let mut i = 0;
        self.rows.retain(|r| {
            let keep = !pred(r);
            if !keep {
                removals.push((i, r.clone()));
            }
            i += 1;
            keep
        });
        let removed = removals.len();
        if removed > 0 {
            self.commit(RowDelta::Remove(removals));
        }
        removed
    }

    /// Probes the hash index on `column` for rows equal to `value`.
    /// Returns `None` when no index exists (caller falls back to a
    /// scan). Rebuilds a dirty index first.
    pub fn index_probe(&mut self, column: &str, value: &Value) -> Option<Vec<usize>> {
        let ix = self.schema.column_index(column)?;
        let rows = &self.rows;
        let index = self.indexes.iter_mut().find(|i| i.column == ix)?;
        if index.dirty {
            index.rebuild(rows);
        }
        Some(index.map.get(value).cloned().unwrap_or_default())
    }

    /// Read-only index probe for the shared-access query path: returns
    /// `None` when no index exists **or** the index is dirty (the
    /// caller falls back to a scan instead of mutating shared state).
    /// Writers keep indexes fresh via [`Table::refresh_indexes`], so a
    /// dirty index is only seen between a mutation and its refresh.
    ///
    /// There is deliberately **no size threshold**: an index declared
    /// via [`Table::create_index`] is built eagerly and probed at any
    /// row count, so single-object lookups cost the same at 8 rows as
    /// at 8 million (a `table4_paper` sweep anomaly was once suspected
    /// to be a small-`n` probe→scan crossover here; no such crossover
    /// exists — the pre-cache anomaly was unmarshalling noise at
    /// microsecond scale, and the post-cache sweep is flat).
    #[must_use]
    pub fn index_probe_ref(&self, column: &str, value: &Value) -> Option<&[usize]> {
        let ix = self.schema.column_index(column)?;
        let index = self.indexes.iter().find(|i| i.column == ix)?;
        if index.dirty {
            return None;
        }
        Some(index.map.get(value).map_or(&[], Vec::as_slice))
    }

    /// How many distinct values the hash index on `column` holds, or
    /// `None` when the column has no index or it is dirty.
    #[must_use]
    pub fn index_keys(&self, column: &str) -> Option<usize> {
        let ix = self.schema.column_index(column)?;
        let index = self.indexes.iter().find(|i| i.column == ix)?;
        (!index.dirty).then_some(index.map.len())
    }

    /// Rebuilds every dirty index now, so subsequent read-only probes
    /// ([`Table::index_probe_ref`]) stay on the fast path. Called by
    /// writers after updates/deletes: the writer pays the rebuild,
    /// concurrent readers never mutate.
    pub fn refresh_indexes(&mut self) {
        let rows = &self.rows;
        for index in &mut self.indexes {
            if index.dirty {
                index.rebuild(rows);
            }
        }
    }

    /// Whether `column` has an index (used by the planner).
    #[must_use]
    pub fn has_index(&self, column: &str) -> bool {
        self.schema
            .column_index(column)
            .is_some_and(|ix| self.indexes.iter().any(|i| i.column == ix))
    }

    /// Names of the columns with declared hash indexes, in declaration
    /// order (snapshots persist these so restored tables keep their
    /// probe plans).
    #[must_use]
    pub fn indexed_columns(&self) -> Vec<&str> {
        self.indexes
            .iter()
            .map(|i| self.schema.columns()[i.column].name())
            .collect()
    }

    /// The auto-increment cursor: the id the next `Null` insert into
    /// an auto column would receive.
    #[must_use]
    pub fn next_auto(&self) -> i64 {
        self.next_auto
    }

    /// Undoes one journaled delta (the newest first — callers walk
    /// the journal tail in reverse).
    fn undo_delta(&mut self, delta: &RowDelta) {
        match delta {
            RowDelta::Append(row) => {
                let popped = self.rows.pop();
                debug_assert_eq!(popped.as_ref(), Some(row), "undo out of order");
            }
            RowDelta::Rewrite(rw) => {
                for (ix, old, _new) in rw {
                    self.rows[*ix] = old.clone();
                }
            }
            RowDelta::Remove(rm) => {
                // Indices are pre-removal positions in ascending
                // order, so re-inserting ascending restores them.
                for (ix, row) in rm {
                    self.rows.insert(*ix, row.clone());
                }
            }
        }
    }

    /// Rolls the table back to generation `g` by undoing the journal
    /// tail — the in-memory half of an atomic multi-statement write
    /// that failed (a bad row, or a WAL append on a full disk).
    /// Returns `false` (and changes nothing) if the journal window no
    /// longer reaches `g`; object writes are a handful of rows, far
    /// inside the budget, so that only happens for pathological
    /// batches.
    ///
    /// On success rows, stamp and journal are exactly as they were at
    /// `g`, so the next logged write continues the log's generation
    /// chain without a gap. That is sound because a batch runs under
    /// the table's write lock from its first statement to its
    /// rollback: no reader can have observed, or stamped a cache
    /// with, an intermediate generation. The auto-increment cursor is
    /// deliberately left advanced: skipped ids are harmless, reused
    /// ids are not.
    pub fn rollback_to(&mut self, g: u64) -> bool {
        if g == self.generation {
            return true; // nothing applied, nothing to undo
        }
        if self.deltas_since(g).is_none() {
            return false;
        }
        for delta in self.journal.pop_after(g) {
            self.undo_delta(&delta);
        }
        self.generation = g;
        for index in &mut self.indexes {
            index.dirty = true;
        }
        self.refresh_indexes();
        true
    }

    /// Records one applied write: bumps the generation, marks the
    /// indexes dirty unless the write was an append (inserts maintain
    /// them incrementally), and journals — and, while capturing,
    /// collects — its delta.
    fn commit(&mut self, delta: RowDelta) {
        self.generation += 1;
        if !matches!(delta, RowDelta::Append(_)) {
            for index in &mut self.indexes {
                index.dirty = true;
            }
        }
        if let Some(capture) = &mut self.capture {
            capture.push(LoggedDelta::from(&delta));
        }
        self.journal.push(delta);
    }

    /// Starts collecting every committed delta in its log form.
    pub(crate) fn start_capture(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// Stops collecting, returning the deltas committed since
    /// [`Table::start_capture`].
    pub(crate) fn take_capture(&mut self) -> Vec<LoggedDelta> {
        self.capture.take().unwrap_or_default()
    }

    /// Applies one logged delta physically — the replay half of the
    /// write log. The journal records the full [`RowDelta`], old
    /// images taken from the rows in hand, so delta consumers see a
    /// replayed write exactly like a live one.
    ///
    /// # Errors
    ///
    /// Schema-validation errors for a row that does not fit;
    /// [`DbError::Persist`] for a row index outside the table or out
    /// of ascending order. The table is unchanged on error.
    pub(crate) fn apply_logged(&mut self, delta: LoggedDelta) -> DbResult<()> {
        let len = self.rows.len();
        let bad = |what: &str| {
            DbError::Persist(format!(
                "logged delta of {} {what} (the table has {len} rows)",
                self.name
            ))
        };
        match delta {
            LoggedDelta::Append(row) => {
                self.insert(row)?;
            }
            LoggedDelta::Rewrite(rw) => {
                for (ix, row) in &rw {
                    if *ix >= len {
                        return Err(bad(&format!("rewrites row {ix}")));
                    }
                    self.schema.check_row(row)?;
                }
                let rewrites = rw
                    .into_iter()
                    .map(|(ix, new)| (ix, std::mem::replace(&mut self.rows[ix], new.clone()), new))
                    .collect();
                self.commit(RowDelta::Rewrite(rewrites));
            }
            LoggedDelta::Remove(ixs) => {
                if ixs.windows(2).any(|w| w[0] >= w[1]) || ixs.last().is_some_and(|&ix| ix >= len) {
                    return Err(bad(&format!("removes rows {ixs:?}")));
                }
                let mut removals: Vec<(usize, Row)> = ixs
                    .iter()
                    .rev()
                    .map(|&ix| (ix, self.rows.remove(ix)))
                    .collect();
                removals.reverse();
                self.commit(RowDelta::Remove(removals));
            }
        }
        Ok(())
    }

    /// Rebuilds a table from persisted parts, preserving the write
    /// stamp and auto-increment cursor — the restore half of the
    /// snapshot subsystem. Every row is validated against the schema;
    /// indexes are *not* created here (callers re-declare them via
    /// [`Table::create_index`], which builds eagerly). The change
    /// journal restarts empty at `generation + 1`: deltas from before
    /// the snapshot are unreplayable (consumers at older generations
    /// fall back to a full read), while writes replayed on top — e.g.
    /// WAL records after a restore — journal normally.
    ///
    /// # Errors
    ///
    /// Schema-validation errors for any row that does not fit.
    pub fn from_parts(
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
        next_auto: i64,
        generation: u64,
    ) -> DbResult<Table> {
        for row in &rows {
            schema.check_row(row)?;
        }
        Ok(Table {
            name: name.to_owned(),
            schema,
            rows,
            indexes: Vec::new(),
            next_auto,
            generation,
            journal: ChangeJournal::starting_at(generation + 1),
            capture: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;

    fn people() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int).auto_increment(),
            ColumnDef::new("name", ColumnType::Str),
            ColumnDef::new("age", ColumnType::Int),
        ]);
        let mut t = Table::new("people", schema);
        t.insert(vec![Value::Null, "alice".into(), Value::Int(30)])
            .unwrap();
        t.insert(vec![Value::Null, "bob".into(), Value::Int(25)])
            .unwrap();
        t.insert(vec![Value::Null, "carol".into(), Value::Int(30)])
            .unwrap();
        t
    }

    #[test]
    fn auto_increment_assigns_sequential_ids() {
        let t = people();
        let ids: Vec<i64> = t.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn explicit_id_advances_counter() {
        let mut t = people();
        t.insert(vec![Value::Int(10), "dave".into(), Value::Int(40)])
            .unwrap();
        t.insert(vec![Value::Null, "eve".into(), Value::Int(22)])
            .unwrap();
        assert_eq!(t.rows()[4][0], Value::Int(11));
    }

    #[test]
    fn insert_rejects_bad_rows() {
        let mut t = people();
        assert!(t
            .insert(vec![Value::Null, Value::Int(5), Value::Int(1)])
            .is_err());
        assert!(t.insert(vec![Value::Null, "x".into()]).is_err());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn update_where_applies_assignments() {
        let mut t = people();
        let n = t
            .update_where(
                |r| r[2] == Value::Int(30),
                &[("age".to_owned(), Value::Int(31))],
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.rows()[0][2], Value::Int(31));
        assert_eq!(t.rows()[1][2], Value::Int(25));
    }

    #[test]
    fn update_rejects_unknown_column_and_bad_type() {
        let mut t = people();
        assert!(matches!(
            t.update_where(|_| true, &[("nope".to_owned(), Value::Int(0))]),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            t.update_where(|_| true, &[("age".to_owned(), Value::Str("x".into()))]),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn delete_where_removes_rows() {
        let mut t = people();
        assert_eq!(t.delete_where(|r| r[1] == Value::from("bob")), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.delete_where(|_| false), 0);
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut t = people();
        t.create_index("age").unwrap();
        let hits = t.index_probe("age", &Value::Int(30)).unwrap();
        assert_eq!(hits, vec![0, 2]);
        assert!(t.index_probe("age", &Value::Int(99)).unwrap().is_empty());
        assert!(t.index_probe("name", &Value::from("alice")).is_none());
    }

    #[test]
    fn index_stays_fresh_across_mutation() {
        let mut t = people();
        t.create_index("age").unwrap();
        t.insert(vec![Value::Null, "dave".into(), Value::Int(30)])
            .unwrap();
        assert_eq!(
            t.index_probe("age", &Value::Int(30)).unwrap(),
            vec![0, 2, 3]
        );
        t.update_where(
            |r| r[1] == Value::from("alice"),
            &[("age".to_owned(), Value::Int(99))],
        )
        .unwrap();
        assert_eq!(t.index_probe("age", &Value::Int(30)).unwrap(), vec![2, 3]);
        t.delete_where(|r| r[1] == Value::from("dave"));
        assert_eq!(t.index_probe("age", &Value::Int(30)).unwrap(), vec![2]);
    }

    #[test]
    fn index_probe_is_size_independent() {
        // Pins the "no build threshold" contract: the probe answers
        // from the hash index at every table size, tiny ones included.
        for n in [2i64, 8, 1024] {
            let schema = Schema::new(vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("k", ColumnType::Int),
            ]);
            let mut t = Table::new("t", schema);
            t.create_index("k").unwrap();
            for i in 0..n {
                t.insert(vec![Value::Null, Value::Int(i % 7)]).unwrap();
            }
            let probed = t.index_probe_ref("k", &Value::Int(1));
            assert!(probed.is_some(), "probe must not degrade at n={n}");
            let expected: Vec<usize> = t
                .rows()
                .iter()
                .enumerate()
                .filter(|(_, r)| r[1] == Value::Int(1))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(probed.unwrap(), expected);
        }
    }

    #[test]
    fn generation_bumps_exactly_when_rows_change() {
        let mut t = people();
        let g0 = t.generation();
        assert_eq!(g0, 3, "three seed inserts");
        t.insert(vec![Value::Null, "dave".into(), Value::Int(40)])
            .unwrap();
        assert_eq!(t.generation(), g0 + 1);
        // Regression: writes that match zero rows must NOT bump — a
        // spurious bump evicts warm cache slots for no reason.
        t.update_where(|_| false, &[("age".to_owned(), Value::Int(1))])
            .unwrap();
        assert_eq!(t.generation(), g0 + 1, "no-op updates must not bump");
        t.delete_where(|_| false);
        assert_eq!(t.generation(), g0 + 1, "no-op deletes must not bump");
        // Effective update/delete writes do bump.
        t.update_where(
            |r| r[1] == Value::from("dave"),
            &[("age".to_owned(), Value::Int(41))],
        )
        .unwrap();
        assert_eq!(t.generation(), g0 + 2);
        t.delete_where(|r| r[1] == Value::from("dave"));
        assert_eq!(t.generation(), g0 + 3);
        // Reads and index maintenance never bump.
        t.create_index("age").unwrap();
        let _ = t.index_probe("age", &Value::Int(40));
        t.refresh_indexes();
        assert_eq!(t.generation(), g0 + 3);
        // Failed validation mutates nothing and does not bump.
        assert!(t.insert(vec![Value::Null, Value::Int(5)]).is_err());
        assert_eq!(t.generation(), g0 + 3);
    }

    /// Replays `deltas` on top of `rows`, the way a cache layer would.
    fn apply_deltas(rows: &mut Vec<Row>, deltas: Vec<RowDelta>) {
        for d in deltas {
            match d {
                RowDelta::Append(row) => rows.push(row),
                RowDelta::Rewrite(rw) => {
                    for (ix, _, new) in rw {
                        rows[ix] = new;
                    }
                }
                RowDelta::Remove(rm) => {
                    for (ix, _) in rm.into_iter().rev() {
                        rows.remove(ix);
                    }
                }
            }
        }
    }

    #[test]
    fn deltas_since_replays_to_current_rows() {
        let mut t = people();
        let g0 = t.generation();
        let mut snapshot = t.rows().to_vec();
        t.insert(vec![Value::Null, "dave".into(), Value::Int(40)])
            .unwrap();
        t.update_where(
            |r| r[2] == Value::Int(30),
            &[("age".to_owned(), Value::Int(31))],
        )
        .unwrap();
        t.delete_where(|r| r[1] == Value::from("bob"));
        let deltas: Vec<RowDelta> = t.deltas_since(g0).unwrap().cloned().collect();
        assert_eq!(deltas.len(), 3, "one delta per generation bump");
        apply_deltas(&mut snapshot, deltas);
        assert_eq!(snapshot, t.rows());
        // Old row images ride along on rewrites and removals.
        let deltas: Vec<RowDelta> = t.deltas_since(g0).unwrap().cloned().collect();
        match &deltas[1] {
            RowDelta::Rewrite(rw) => {
                assert_eq!(rw.len(), 2);
                assert_eq!(rw[0].1[2], Value::Int(30), "old image preserved");
                assert_eq!(rw[0].2[2], Value::Int(31));
            }
            other => panic!("expected rewrite, got {other:?}"),
        }
        match &deltas[2] {
            RowDelta::Remove(rm) => assert_eq!(rm[0].1[1], Value::from("bob")),
            other => panic!("expected remove, got {other:?}"),
        }
        // Caught-up consumers get an empty (but present) window.
        assert_eq!(t.deltas_since(t.generation()).unwrap().count(), 0);
        // Future generations are unanswerable.
        assert!(t.deltas_since(t.generation() + 1).is_none());
    }

    #[test]
    fn journal_window_slides_and_reports_overflow() {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int).auto_increment(),
            ColumnDef::new("k", ColumnType::Int),
        ]);
        let mut t = Table::new("t", schema);
        let total = JOURNAL_ROW_BUDGET + 64;
        for i in 0..total {
            t.insert(vec![Value::Null, Value::Int(i as i64)]).unwrap();
        }
        // Generation 0 slid out of the window long ago.
        assert!(t.deltas_since(0).is_none());
        // The newest JOURNAL_ROW_BUDGET generations stay replayable.
        let g = t.generation() - JOURNAL_ROW_BUDGET as u64;
        let kept: Vec<RowDelta> = t.deltas_since(g).unwrap().cloned().collect();
        assert_eq!(kept.len(), JOURNAL_ROW_BUDGET);
        let mut snapshot = t.rows()[..total - JOURNAL_ROW_BUDGET].to_vec();
        apply_deltas(&mut snapshot, kept);
        assert_eq!(snapshot, t.rows());
        assert!(t.deltas_since(g - 1).is_none(), "window edge is exact");
        // A bulk rewrite larger than the whole budget evicts itself:
        // nothing older than "now" is replayable afterwards.
        t.update_where(|_| true, &[("k".to_owned(), Value::Int(-1))])
            .unwrap();
        assert!(t.deltas_since(t.generation() - 1).is_none());
        assert_eq!(t.deltas_since(t.generation()).unwrap().count(), 0);
    }

    #[test]
    fn restored_table_journals_fresh_writes_only() {
        let t = people();
        let restored = Table::from_parts(
            t.name(),
            t.schema().clone(),
            t.rows().to_vec(),
            t.next_auto(),
            t.generation(),
        )
        .unwrap();
        let g = restored.generation();
        // Pre-snapshot history is gone...
        assert!(restored.deltas_since(g - 1).is_none());
        // ...but the restored stamp itself is a valid (empty) window,
        // and writes on top journal normally.
        assert_eq!(restored.deltas_since(g).unwrap().count(), 0);
        let mut restored = restored;
        restored
            .insert(vec![Value::Null, "dave".into(), Value::Int(40)])
            .unwrap();
        let deltas: Vec<RowDelta> = restored.deltas_since(g).unwrap().cloned().collect();
        assert_eq!(deltas.len(), 1);
        assert!(matches!(&deltas[0], RowDelta::Append(r) if r[1] == Value::from("dave")));
    }

    #[test]
    fn rollback_to_undoes_the_journal_tail() {
        let mut t = people();
        t.create_index("age").unwrap();
        let g0 = t.generation();
        let before = t.rows().to_vec();
        // A mixed tail: delete + two inserts + a rewrite, like a
        // faceted object save.
        t.delete_where(|r| r[1] == Value::from("bob"));
        t.insert(vec![Value::Null, "dave".into(), Value::Int(40)])
            .unwrap();
        t.insert(vec![Value::Null, "erin".into(), Value::Int(41)])
            .unwrap();
        t.update_where(
            |r| r[2] == Value::Int(30),
            &[("age".to_owned(), Value::Int(31))],
        )
        .unwrap();
        assert!(t.rollback_to(g0));
        assert_eq!(t.rows(), before);
        // Stamp and journal are back at g0 exactly, so the next write
        // continues the generation chain without a gap.
        assert_eq!(t.generation(), g0);
        assert_eq!(t.deltas_since(g0).unwrap().count(), 0);
        // Indexes were refreshed, not left dirty.
        assert_eq!(
            t.index_probe_ref("age", &Value::Int(30)).unwrap(),
            vec![0, 2]
        );
        // The next write journals on top of g0 normally.
        t.insert(vec![Value::Null, "fay".into(), Value::Int(42)])
            .unwrap();
        assert_eq!(t.deltas_since(g0).unwrap().count(), 1);
        // Rolling back to the current generation is a no-op.
        let g = t.generation();
        assert!(t.rollback_to(g));
        assert_eq!(t.generation(), g);
        // An unreachable generation is refused.
        assert!(!t.rollback_to(g + 5));
    }

    #[test]
    fn create_index_is_idempotent() {
        let mut t = people();
        t.create_index("age").unwrap();
        t.create_index("age").unwrap();
        assert!(t.has_index("age"));
        assert!(!t.has_index("name"));
        assert!(t.create_index("zzz").is_err());
    }
}
