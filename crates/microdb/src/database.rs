//! The database: a named collection of tables behind per-table locks.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{DbError, DbResult};
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::Value;
use crate::wal::{TableSection, WriteLog};

/// Shared (read) access to one table.
pub type TableRef<'a> = RwLockReadGuard<'a, Table>;
/// Exclusive (write) access to one table.
pub type TableMut<'a> = RwLockWriteGuard<'a, Table>;

/// One row-level statement of an atomic batch
/// ([`Database::apply_batch_locked`]). An in-memory operation only:
/// the write log records the physical deltas a batch produced, never
/// the statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// A single-row insert.
    Insert {
        /// Target table.
        table: String,
        /// The row (`Null` auto-increment columns are filled in).
        row: Row,
    },
    /// A predicate update.
    Update {
        /// Target table.
        table: String,
        /// The WHERE clause.
        pred: Predicate,
        /// `column → value` assignments.
        assignments: Vec<(String, Value)>,
    },
    /// A predicate delete.
    Delete {
        /// Target table.
        table: String,
        /// The WHERE clause.
        pred: Predicate,
    },
}

impl Statement {
    /// The table this statement mutates.
    #[must_use]
    pub fn table(&self) -> &str {
        match self {
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => table,
        }
    }
}

/// An in-memory relational database.
///
/// # Concurrency
///
/// Storage is sharded at table granularity: every table sits behind
/// its own `RwLock`, so a write to one table never serializes reads
/// (or writes) of another. Row-level mutation therefore takes `&self`
/// — [`Database::insert`], [`Database::update`] and
/// [`Database::delete`] acquire the target table's write lock
/// internally — while *structural* changes ([`Database::create_table`]
/// / [`Database::drop_table`]) still require `&mut self`. Callers that
/// need multi-statement isolation (a reader that must not observe a
/// half-applied multi-table write) coordinate above this layer, e.g.
/// via the executor's footprint locks; the per-table locks here
/// guarantee that individual statements are atomic and that the map
/// of tables itself is never mutated under a reader.
///
/// Lock discipline for callers holding several guards at once (query
/// joins do): per-statement writers only ever hold one table lock at
/// a time, so multi-guard *readers* cannot deadlock against them. A
/// multi-table batch ([`Database::apply_batch_locked`]) holds several
/// write locks; its callers lock in one fixed order, and the tables
/// it adds to a batch (the FORM's binding tables) are never among a
/// multi-guard reader's.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), microdb::DbError> {
/// use microdb::{ColumnDef, ColumnType, Database, Schema, Value};
///
/// let mut db = Database::new();
/// db.create_table("t", Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]))?;
/// db.insert("t", vec![Value::Int(1)])?;
/// assert_eq!(db.table("t")?.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, RwLock<Table>>,
    /// Optional append-only write log: when attached, every committed
    /// write appends one durable record (see [`crate::wal`]).
    wal: Option<Arc<WriteLog>>,
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            tables: self
                .tables
                .iter()
                .map(|(n, t)| (n.clone(), RwLock::new(read_guard(n, t).clone())))
                .collect(),
            // A clone is a divergent copy; sharing the log would
            // interleave two histories into one file.
            wal: None,
        }
    }
}

/// Acquires a read guard, panicking with the table name if a prior
/// writer panicked mid-mutation (the table may be half-written).
fn read_guard<'a>(name: &str, lock: &'a RwLock<Table>) -> RwLockReadGuard<'a, Table> {
    lock.read()
        .unwrap_or_else(|_| panic!("table {name} lock poisoned"))
}

fn write_guard<'a>(name: &str, lock: &'a RwLock<Table>) -> RwLockWriteGuard<'a, Table> {
    lock.write()
        .unwrap_or_else(|_| panic!("table {name} lock poisoned"))
}

impl Database {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableExists`] if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<()> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        self.tables
            .insert(name.to_owned(), RwLock::new(Table::new(name, schema)));
        Ok(())
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchTable`] if absent.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Shared access to a table (the table's read lock, held for the
    /// guard's lifetime).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchTable`] if absent.
    pub fn table(&self, name: &str) -> DbResult<TableRef<'_>> {
        self.tables
            .get(name)
            .map(|t| read_guard(name, t))
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Exclusive access to a table (the table's write lock). Note the
    /// `&self` receiver: writes to different tables proceed in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchTable`] if absent.
    pub fn table_mut(&self, name: &str) -> DbResult<TableMut<'_>> {
        self.tables
            .get(name)
            .map(|t| write_guard(name, t))
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Attaches an append-only write log: from now on every committed
    /// write appends one durable record (see [`crate::wal`]).
    pub fn attach_wal(&mut self, wal: Arc<WriteLog>) {
        self.wal = Some(wal);
    }

    /// Detaches the write log, returning it if one was attached.
    pub fn detach_wal(&mut self) -> Option<Arc<WriteLog>> {
        self.wal.take()
    }

    /// The attached write log, if any.
    #[must_use]
    pub fn wal(&self) -> Option<&Arc<WriteLog>> {
        self.wal.as_ref()
    }

    /// Whether a table exists.
    #[must_use]
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables, sorted.
    #[must_use]
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// The write stamp of one table (see [`Table::generation`]).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchTable`] if absent.
    pub fn generation(&self, table: &str) -> DbResult<u64> {
        Ok(self.table(table)?.generation())
    }

    /// Runs `write` on **already write-locked** tables as one atomic,
    /// logged unit — the single commit path of every write. With a
    /// write log attached, the deltas `write` produced are captured as
    /// they are produced and appended as *one* record, one section per
    /// table that changed (a write that changed no row logs nothing).
    /// If `write` fails — or the append does — every table is rolled
    /// back to its pre-write state, so neither memory nor the log ever
    /// holds a torn write.
    fn commit_locked<R>(
        &self,
        tables: &mut [&mut Table],
        write: impl FnOnce(&mut [&mut Table]) -> DbResult<R>,
    ) -> DbResult<R> {
        let from: Vec<u64> = tables.iter().map(|t| t.generation()).collect();
        let result = match &self.wal {
            None => write(tables),
            Some(wal) => {
                for t in tables.iter_mut() {
                    t.start_capture();
                }
                let result = write(tables);
                let sections: Vec<TableSection> = tables
                    .iter_mut()
                    .zip(&from)
                    .filter_map(|(t, &from)| {
                        let deltas = t.take_capture();
                        (t.generation() > from).then(|| TableSection {
                            table: t.name().to_owned(),
                            from,
                            to: t.generation(),
                            deltas,
                        })
                    })
                    .collect();
                result.and_then(|r| {
                    if !sections.is_empty() {
                        wal.append(&sections)?;
                    }
                    Ok(r)
                })
            }
        };
        if let Err(e) = result {
            let mut overflowed = Vec::new();
            for (t, &g) in tables.iter_mut().zip(&from) {
                if !t.rollback_to(g) {
                    overflowed.push(t.name().to_owned());
                }
            }
            if !overflowed.is_empty() {
                return Err(DbError::Persist(format!(
                    "write failed ({e}) and the rollback window overflowed: \
                     in-memory tables {overflowed:?} may be ahead of the log"
                )));
            }
            return Err(e);
        }
        result
    }

    /// Applies `stmts` to **already write-locked** tables as one atomic
    /// unit, logged as a *single* record; each statement runs on the
    /// locked table it names. If any statement fails — or the WAL
    /// append does — every table is rolled back to its pre-batch rows,
    /// so neither memory nor the log ever holds a torn multi-row
    /// write. This is what makes a faceted object save all-or-nothing,
    /// and an object creation's facet rows and policy-binding row
    /// durable together: after a disk-full fault, reads serve the
    /// intact pre-write state and a restore replays exactly the writes
    /// that were acknowledged. Callers lock the tables in one fixed
    /// order (an object's table before its binding table).
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] for a statement naming a table not in
    /// `tables`, the failing statement's error, or
    /// [`DbError::Persist`] from the log append. The tables are
    /// unchanged on error unless the rollback window overflowed
    /// (batches beyond ~1k rows), which upgrades the error to a
    /// `Persist` describing the overflow.
    pub fn apply_batch_locked(
        &self,
        tables: &mut [&mut Table],
        stmts: Vec<Statement>,
    ) -> DbResult<()> {
        self.commit_locked(tables, |tables| {
            for stmt in stmts {
                let t = tables
                    .iter_mut()
                    .find(|t| t.name() == stmt.table())
                    .ok_or_else(|| DbError::NoSuchTable(stmt.table().to_owned()))?;
                match stmt {
                    Statement::Insert { row, .. } => {
                        t.insert(row)?;
                    }
                    Statement::Update {
                        pred, assignments, ..
                    } => {
                        update_matching(t, &pred, &assignments)?;
                    }
                    Statement::Delete { pred, .. } => {
                        delete_matching(t, &pred)?;
                    }
                }
            }
            Ok(())
        })
    }

    /// Inserts a row into `table`, returning its physical position.
    ///
    /// # Errors
    ///
    /// Table lookup and schema validation errors.
    pub fn insert(&self, table: &str, row: Row) -> DbResult<usize> {
        let mut t = self.table_mut(table)?;
        self.commit_locked(&mut [&mut *t], |t| t[0].insert(row))
    }

    /// Inserts many rows, each its own logged write.
    ///
    /// # Errors
    ///
    /// Stops at the first failing row.
    pub fn insert_many<I: IntoIterator<Item = Row>>(
        &self,
        table: &str,
        rows: I,
    ) -> DbResult<usize> {
        let mut t = self.table_mut(table)?;
        let mut n = 0;
        for r in rows {
            self.commit_locked(&mut [&mut *t], |t| t[0].insert(r))?;
            n += 1;
        }
        Ok(n)
    }

    /// Updates rows of `table` matching `pred`; returns the count.
    ///
    /// # Errors
    ///
    /// Table/column resolution, type and predicate-evaluation errors.
    pub fn update(
        &self,
        table: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> DbResult<usize> {
        let mut t = self.table_mut(table)?;
        self.commit_locked(&mut [&mut *t], |t| update_matching(t[0], pred, assignments))
    }

    /// Deletes rows of `table` matching `pred`; returns the count.
    ///
    /// # Errors
    ///
    /// Table resolution and predicate-evaluation errors.
    pub fn delete(&self, table: &str, pred: &Predicate) -> DbResult<usize> {
        let mut t = self.table_mut(table)?;
        self.commit_locked(&mut [&mut *t], |t| delete_matching(t[0], pred))
    }

    /// Wholesale table replacement — the restore path of
    /// [`crate::Snapshot`].
    pub(crate) fn replace_tables(&mut self, tables: BTreeMap<String, RwLock<Table>>) {
        self.tables = tables;
    }

    /// Total number of physical rows across all tables (used by the
    /// space-overhead experiments).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.tables
            .iter()
            .map(|(n, t)| read_guard(n, t).len())
            .sum()
    }
}

/// `UPDATE t SET assignments WHERE pred` on a locked table. A
/// predicate that fails to evaluate on some row surfaces as the error
/// instead of silently skipping the row (the caller rolls back).
fn update_matching(
    t: &mut Table,
    pred: &Predicate,
    assignments: &[(String, Value)],
) -> DbResult<usize> {
    let schema = t.schema().clone();
    let mut err = None;
    let n = t.update_where(
        |row| match pred.eval(&schema, row) {
            Ok(b) => b,
            Err(e) => {
                err = Some(e);
                false
            }
        },
        assignments,
    )?;
    err.map_or(Ok(n), Err)
}

/// `DELETE FROM t WHERE pred` on a locked table; predicate errors
/// surface like [`update_matching`]'s.
fn delete_matching(t: &mut Table, pred: &Predicate) -> DbResult<usize> {
    let schema = t.schema().clone();
    let mut err = None;
    let n = t.delete_where(|row| match pred.eval(&schema, row) {
        Ok(b) => b,
        Err(e) => {
            err = Some(e);
            false
        }
    });
    err.map_or(Ok(n), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Operand;
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("x", ColumnType::Int),
            ]),
        )
        .unwrap();
        db.insert_many("t", (0..5).map(|i| vec![Value::Null, Value::Int(i)]))
            .unwrap();
        db
    }

    #[test]
    fn create_and_drop() {
        let mut db = db();
        assert!(db.has_table("t"));
        assert!(matches!(
            db.create_table("t", Schema::new(vec![])),
            Err(DbError::TableExists(_))
        ));
        db.drop_table("t").unwrap();
        assert!(!db.has_table("t"));
        assert!(matches!(db.drop_table("t"), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn update_via_predicate() {
        let db = db();
        let n = db
            .update(
                "t",
                &Predicate::ge(Operand::col("x"), Operand::lit(3i64)),
                &[("x".to_owned(), Value::Int(100))],
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.total_rows(), 5);
    }

    #[test]
    fn delete_via_predicate() {
        let db = db();
        let n = db
            .delete("t", &Predicate::lt(Operand::col("x"), Operand::lit(2i64)))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.table("t").unwrap().len(), 3);
    }

    #[test]
    fn predicate_errors_propagate() {
        let db = db();
        assert!(db
            .update(
                "t",
                &Predicate::eq(Operand::col("zzz"), Operand::lit(1i64)),
                &[("x".to_owned(), Value::Int(0))],
            )
            .is_err());
        assert!(db
            .delete("t", &Predicate::eq(Operand::col("zzz"), Operand::lit(1i64)))
            .is_err());
    }

    #[test]
    fn table_names_sorted() {
        let mut db = db();
        db.create_table("a", Schema::new(vec![ColumnDef::new("y", ColumnType::Int)]))
            .unwrap();
        assert_eq!(db.table_names(), vec!["a", "t"]);
    }

    #[test]
    fn generation_tracks_writes_per_table() {
        let mut db = db();
        db.create_table("u", Schema::new(vec![ColumnDef::new("y", ColumnType::Int)]))
            .unwrap();
        let gt = db.generation("t").unwrap();
        let gu = db.generation("u").unwrap();
        db.insert("u", vec![Value::Int(1)]).unwrap();
        assert_eq!(db.generation("t").unwrap(), gt, "writes are per-table");
        assert_eq!(db.generation("u").unwrap(), gu + 1);
    }

    #[test]
    fn clone_is_deep() {
        let db = db();
        let copy = db.clone();
        db.insert("t", vec![Value::Null, Value::Int(99)]).unwrap();
        assert_eq!(copy.table("t").unwrap().len(), 5);
        assert_eq!(db.table("t").unwrap().len(), 6);
    }

    #[test]
    fn batch_rolls_back_memory_when_the_wal_append_fails() {
        use crate::faults::{self, FaultKind, FaultPoint};
        use crate::wal::WriteLog;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("microdb_batchfault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let mut db = db();
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));

        // A healthy batch commits atomically: one line, all rows.
        {
            let mut t = db.table_mut("t").unwrap();
            db.apply_batch_locked(
                &mut [&mut *t],
                vec![
                    Statement::Insert {
                        table: "t".into(),
                        row: vec![Value::Null, Value::Int(100)],
                    },
                    Statement::Insert {
                        table: "t".into(),
                        row: vec![Value::Null, Value::Int(101)],
                    },
                ],
            )
            .unwrap();
        }
        assert_eq!(db.table("t").unwrap().len(), 7);
        let lines = std::fs::read_to_string(&path).unwrap();
        assert_eq!(lines.lines().count(), 1, "one record for the whole batch");

        // Now the append fails: memory must roll back to match the
        // log — no torn object on either side.
        let rows_before = db.table("t").unwrap().rows().to_vec();
        faults::arm_at(FaultPoint::WalAppend, 0, FaultKind::Error, "batchfault");
        let err = {
            let mut t = db.table_mut("t").unwrap();
            db.apply_batch_locked(
                &mut [&mut *t],
                vec![
                    Statement::Insert {
                        table: "t".into(),
                        row: vec![Value::Null, Value::Int(200)],
                    },
                    Statement::Insert {
                        table: "t".into(),
                        row: vec![Value::Null, Value::Int(201)],
                    },
                ],
            )
            .unwrap_err()
        };
        assert!(format!("{err}").contains("injected"), "{err}");
        assert_eq!(db.table("t").unwrap().rows(), rows_before.as_slice());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap().lines().count(),
            1,
            "failed batch left no log record"
        );

        // A failing statement mid-batch rolls back without touching
        // the log at all (the append never ran).
        let err = {
            let mut t = db.table_mut("t").unwrap();
            db.apply_batch_locked(
                &mut [&mut *t],
                vec![
                    Statement::Insert {
                        table: "t".into(),
                        row: vec![Value::Null, Value::Int(300)],
                    },
                    Statement::Insert {
                        table: "t".into(),
                        row: vec![Value::Null, Value::from("not an int")],
                    },
                ],
            )
            .unwrap_err()
        };
        assert!(matches!(err, DbError::TypeMismatch { .. }), "{err:?}");
        assert_eq!(db.table("t").unwrap().rows(), rows_before.as_slice());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn concurrent_writes_to_distinct_tables_do_not_block() {
        // A writer holding table "a"'s write lock must not stop a
        // write (or read) of table "b" — the heart of lock sharding.
        let mut db = Database::new();
        for name in ["a", "b"] {
            db.create_table(
                name,
                Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]),
            )
            .unwrap();
        }
        let held = db.table_mut("a").unwrap();
        db.insert("b", vec![Value::Int(1)]).unwrap();
        assert_eq!(db.table("b").unwrap().len(), 1);
        drop(held);
    }
}
