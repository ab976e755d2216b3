//! Query building and execution.
//!
//! A [`Query`] is a SELECT statement: source (table or joins), WHERE
//! predicate, projection, ORDER BY, DISTINCT and LIMIT. Execution is
//! index-aware for single-table equality filters and uses hash joins
//! for equi-joins.

use std::collections::HashMap;

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::predicate::{resolve_column, Predicate};
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::Value;

/// Sort direction for ORDER BY.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// A join clause: another table plus the equi-join condition.
#[derive(Clone, Debug)]
struct JoinClause {
    table: String,
    /// Left column (resolved against the accumulated schema).
    on_left: String,
    /// Right column (resolved against the joined table).
    on_right: String,
}

/// A SELECT query under construction.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), microdb::DbError> {
/// use microdb::{ColumnDef, ColumnType, Database, Operand, Predicate, Query, Schema, Value};
///
/// let mut db = Database::new();
/// db.create_table("events", Schema::new(vec![
///     ColumnDef::new("id", ColumnType::Int).auto_increment(),
///     ColumnDef::new("location", ColumnType::Str),
/// ]))?;
/// db.insert("events", vec![Value::Null, "Schloss Dagstuhl".into()])?;
/// db.insert("events", vec![Value::Null, "Undisclosed location".into()])?;
///
/// let rows = Query::from("events")
///     .filter(Predicate::eq(Operand::col("location"), Operand::lit("Schloss Dagstuhl")))
///     .execute(&mut db)?;
/// assert_eq!(rows.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Query {
    table: String,
    joins: Vec<JoinClause>,
    filter: Predicate,
    projection: Option<Vec<String>>,
    order_by: Vec<(String, SortOrder)>,
    distinct: bool,
    limit: Option<usize>,
}

impl Query {
    /// Starts a query reading from `table`.
    #[must_use]
    pub fn from(table: &str) -> Query {
        Query {
            table: table.to_owned(),
            joins: Vec::new(),
            filter: Predicate::True,
            projection: None,
            order_by: Vec::new(),
            distinct: false,
            limit: None,
        }
    }

    /// Adds an inner equi-join: `JOIN table ON left = right`.
    #[must_use]
    pub fn join(mut self, table: &str, on_left: &str, on_right: &str) -> Query {
        self.joins.push(JoinClause {
            table: table.to_owned(),
            on_left: on_left.to_owned(),
            on_right: on_right.to_owned(),
        });
        self
    }

    /// ANDs a predicate onto the WHERE clause.
    #[must_use]
    pub fn filter(mut self, pred: Predicate) -> Query {
        self.filter = match self.filter {
            Predicate::True => pred,
            f => f.and(pred),
        };
        self
    }

    /// Projects the result onto the named columns.
    #[must_use]
    pub fn select(mut self, columns: &[&str]) -> Query {
        self.projection = Some(columns.iter().map(|c| (*c).to_owned()).collect());
        self
    }

    /// Appends an ORDER BY key.
    #[must_use]
    pub fn order_by(mut self, column: &str, order: SortOrder) -> Query {
        self.order_by.push((column.to_owned(), order));
        self
    }

    /// Deduplicates result rows.
    #[must_use]
    pub fn distinct(mut self) -> Query {
        self.distinct = true;
        self
    }

    /// Caps the number of result rows.
    #[must_use]
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// Executes, returning only the rows.
    ///
    /// # Errors
    ///
    /// Propagates table/column resolution and evaluation errors.
    pub fn execute(&self, db: &mut Database) -> DbResult<Vec<Row>> {
        Ok(self.execute_full(db)?.rows)
    }

    /// Executes against a shared database reference, returning only
    /// the rows. See [`Query::execute_full_ref`] for the contract.
    ///
    /// # Errors
    ///
    /// Propagates table/column resolution and evaluation errors.
    pub fn execute_ref(&self, db: &Database) -> DbResult<Vec<Row>> {
        Ok(self.execute_full_ref(db)?.rows)
    }

    /// Executes, returning rows plus result schema and statistics.
    ///
    /// Rebuilds any dirty index on the base table first, then runs the
    /// shared-access plan of [`Query::execute_full_ref`].
    ///
    /// # Errors
    ///
    /// Propagates table/column resolution and evaluation errors.
    pub fn execute_full(&self, db: &mut Database) -> DbResult<ResultSet> {
        db.table_mut(&self.table)?.refresh_indexes();
        self.execute_full_ref(db)
    }

    /// Plans this query against an already-borrowed base table,
    /// returning the *physical row indices* of the result in result
    /// order — or `None` when the query shape needs materialized rows
    /// (joins, projection, DISTINCT). Callers that keep per-row
    /// derived data aligned with physical positions (e.g. the FORM's
    /// decoded-row cache) use this to run WHERE / ORDER BY / LIMIT
    /// without cloning a single row; the caller is responsible for
    /// passing the table this query's `FROM` names, and for holding
    /// the table's lock across both this call and the use of the
    /// returned indices.
    ///
    /// Index usage and result order match [`Query::execute_full_ref`]
    /// exactly (probe when the filter pins an indexed column and the
    /// index is clean; stable sort for ORDER BY).
    ///
    /// # Errors
    ///
    /// Propagates column resolution and evaluation errors.
    pub fn plan_indices(&self, table: &Table) -> DbResult<Option<Vec<usize>>> {
        if !self.joins.is_empty() || self.projection.is_some() || self.distinct {
            return Ok(None);
        }
        let schema = table.schema();
        let rows = table.rows();
        let probed = self
            .filter
            .index_candidate()
            .and_then(|(col, val)| table.index_probe_ref(col, val));
        let candidates: Vec<usize> = match probed {
            Some(hits) => hits.to_vec(),
            None => (0..rows.len()).collect(),
        };
        let mut kept = Vec::with_capacity(candidates.len());
        if self.filter == Predicate::True {
            kept = candidates;
        } else {
            for i in candidates {
                if self.filter.eval(schema, &rows[i])? {
                    kept.push(i);
                }
            }
        }
        if !self.order_by.is_empty() {
            let keys: Vec<(usize, SortOrder)> = self
                .order_by
                .iter()
                .map(|(c, o)| Ok((resolve_column(schema, c)?, *o)))
                .collect::<DbResult<_>>()?;
            kept.sort_by(|&a, &b| {
                for (ix, ord) in &keys {
                    let c = rows[a][*ix].cmp(&rows[b][*ix]);
                    let c = if *ord == SortOrder::Desc {
                        c.reverse()
                    } else {
                        c
                    };
                    if !c.is_eq() {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = self.limit {
            kept.truncate(n);
        }
        Ok(Some(kept))
    }

    /// Executes against a shared database reference, returning rows
    /// plus result schema and statistics.
    ///
    /// This is the plan the concurrent executor runs under a read
    /// lock: it never mutates the database, falling back to a scan if
    /// an index is dirty (writers refresh indexes after mutating, so
    /// that window is small). Results are identical to
    /// [`Query::execute_full`] either way.
    ///
    /// # Errors
    ///
    /// Propagates table/column resolution and evaluation errors.
    pub fn execute_full_ref(&self, db: &Database) -> DbResult<ResultSet> {
        let mut stats = ExecStats::default();

        // 1. Base scan (or index probe when the filter pins an indexed
        //    column and there are no joins to confuse resolution).
        let mut schema: Schema;
        let mut rows: Vec<Row>;
        {
            let probe = if self.joins.is_empty() {
                self.filter.index_candidate()
            } else {
                None
            };
            let base = db.table(&self.table)?;
            schema = base.schema().clone();
            let mut probed = None;
            if let Some((col, val)) = probe {
                if let Some(hits) = base.index_probe_ref(col, val) {
                    stats.index_probes += 1;
                    probed = Some(hits);
                }
            }
            rows = match probed {
                Some(hits) => {
                    stats.rows_scanned += hits.len() as u64;
                    let all = base.rows();
                    hits.iter().map(|&i| all[i].clone()).collect()
                }
                None => {
                    stats.rows_scanned += base.len() as u64;
                    base.rows().to_vec()
                }
            };
        }
        let mut current_name = self.table.clone();

        // 2. Joins: hash join on the equi-key.
        for j in &self.joins {
            let right = db.table(&j.table)?;
            let right_schema = right.schema().clone();
            let joined_schema = schema.join(&current_name, &right_schema, &j.table);

            let left_ix = resolve_column(&schema, &j.on_left)
                .or_else(|_| resolve_column(&joined_schema, &j.on_left))?;
            let right_ix = resolve_column(&right_schema, &j.on_right)?;

            // Build hash table on the right side.
            let mut hash: HashMap<Value, Vec<usize>> = HashMap::new();
            for (i, r) in right.rows().iter().enumerate() {
                hash.entry(r[right_ix].clone()).or_default().push(i);
            }
            stats.rows_scanned += right.len() as u64;

            let right_rows = right.rows();
            let mut out = Vec::new();
            for l in &rows {
                let key = &l[left_ix];
                if key.is_null() {
                    continue;
                }
                if let Some(matches) = hash.get(key) {
                    for &ri in matches {
                        let mut combined = l.clone();
                        combined.extend(right_rows[ri].iter().cloned());
                        out.push(combined);
                    }
                }
            }
            rows = out;
            schema = joined_schema;
            // After the first join, the accumulated side is referred to
            // by qualified names only.
            current_name = format!("{current_name}+{}", j.table);
        }

        // 3. WHERE.
        if self.filter != Predicate::True {
            let mut kept = Vec::with_capacity(rows.len());
            for r in rows {
                if self.filter.eval(&schema, &r)? {
                    kept.push(r);
                }
            }
            rows = kept;
        }

        // 4. ORDER BY (stable, multi-key).
        if !self.order_by.is_empty() {
            let keys: Vec<(usize, SortOrder)> = self
                .order_by
                .iter()
                .map(|(c, o)| Ok((resolve_column(&schema, c)?, *o)))
                .collect::<DbResult<_>>()?;
            rows.sort_by(|a, b| {
                for (ix, ord) in &keys {
                    let c = a[*ix].cmp(&b[*ix]);
                    let c = if *ord == SortOrder::Desc {
                        c.reverse()
                    } else {
                        c
                    };
                    if !c.is_eq() {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // 5. Projection.
        if let Some(cols) = &self.projection {
            let ixs: Vec<usize> = cols
                .iter()
                .map(|c| resolve_column(&schema, c))
                .collect::<DbResult<_>>()?;
            let defs: Vec<_> = ixs.iter().map(|&i| schema.columns()[i].clone()).collect();
            rows = rows
                .into_iter()
                .map(|r| ixs.iter().map(|&i| r[i].clone()).collect())
                .collect();
            schema = Schema::new(defs);
        }

        // 6. DISTINCT.
        if self.distinct {
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| seen.insert(r.clone()));
        }

        // 7. LIMIT.
        if let Some(n) = self.limit {
            rows.truncate(n);
        }

        stats.rows_returned = rows.len() as u64;
        Ok(ResultSet {
            schema,
            rows,
            stats,
        })
    }
}

/// Result of [`Query::execute_full`]: rows, their schema, and
/// execution statistics.
#[derive(Clone, Debug)]
pub struct ResultSet {
    /// Schema of the result rows (qualified names after joins).
    pub schema: Schema,
    /// The result rows.
    pub rows: Vec<Row>,
    /// Execution counters.
    pub stats: ExecStats,
}

impl ResultSet {
    /// Extracts one column of the result.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NoSuchColumn`] / [`DbError::AmbiguousColumn`]
    /// per [`resolve_column`].
    pub fn column(&self, name: &str) -> DbResult<Vec<Value>> {
        let ix = resolve_column(&self.schema, name)?;
        Ok(self.rows.iter().map(|r| r[ix].clone()).collect())
    }

    /// Value at `(row, column)`.
    ///
    /// # Errors
    ///
    /// Column resolution errors; [`DbError::InvalidOperation`] if the
    /// row index is out of bounds.
    pub fn value(&self, row: usize, column: &str) -> DbResult<&Value> {
        let ix = resolve_column(&self.schema, column)?;
        self.rows
            .get(row)
            .map(|r| &r[ix])
            .ok_or_else(|| DbError::InvalidOperation(format!("row {row} out of bounds")))
    }
}

/// Counters describing how a query executed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Physical rows visited.
    pub rows_scanned: u64,
    /// Index probes taken instead of scans.
    pub index_probes: u64,
    /// Rows in the final result.
    pub rows_returned: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "users",
            Schema::new(vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("name", ColumnType::Str),
            ]),
        )
        .unwrap();
        db.create_table(
            "events",
            Schema::new(vec![
                ColumnDef::new("id", ColumnType::Int).auto_increment(),
                ColumnDef::new("host", ColumnType::Int),
                ColumnDef::new("location", ColumnType::Str),
            ]),
        )
        .unwrap();
        for n in ["alice", "bob", "carol"] {
            db.insert("users", vec![Value::Null, n.into()]).unwrap();
        }
        db.insert(
            "events",
            vec![Value::Null, Value::Int(1), "Dagstuhl".into()],
        )
        .unwrap();
        db.insert("events", vec![Value::Null, Value::Int(1), "MIT".into()])
            .unwrap();
        db.insert("events", vec![Value::Null, Value::Int(2), "CMU".into()])
            .unwrap();
        db
    }

    #[test]
    fn filter_selects_matching_rows() {
        let mut db = db();
        let rows = Query::from("events")
            .filter(Predicate::eq(
                crate::predicate::Operand::col("host"),
                crate::predicate::Operand::lit(1i64),
            ))
            .execute(&mut db)
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn join_combines_tables() {
        let mut db = db();
        let rs = Query::from("events")
            .join("users", "host", "id")
            .select(&["users.name", "events.location"])
            .order_by("events.location", SortOrder::Asc)
            .execute_full(&mut db)
            .unwrap();
        let names: Vec<_> = rs.column("users.name").unwrap();
        assert_eq!(
            names,
            vec![
                Value::from("bob"),
                Value::from("alice"),
                Value::from("alice")
            ]
        );
    }

    #[test]
    fn order_by_desc_and_limit() {
        let mut db = db();
        let rows = Query::from("users")
            .order_by("name", SortOrder::Desc)
            .limit(2)
            .execute(&mut db)
            .unwrap();
        assert_eq!(rows[0][1], Value::from("carol"));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn distinct_deduplicates() {
        let mut db = db();
        let rows = Query::from("events")
            .select(&["host"])
            .distinct()
            .execute(&mut db)
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn index_probe_used_when_available() {
        let mut db = db();
        db.table_mut("events")
            .unwrap()
            .create_index("host")
            .unwrap();
        let rs = Query::from("events")
            .filter(Predicate::eq(
                crate::predicate::Operand::col("host"),
                crate::predicate::Operand::lit(1i64),
            ))
            .execute_full(&mut db)
            .unwrap();
        assert_eq!(rs.stats.index_probes, 1);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.stats.rows_scanned, 2);
    }

    #[test]
    fn index_and_scan_agree() {
        let mut db = db();
        let q = Query::from("events").filter(Predicate::eq(
            crate::predicate::Operand::col("location"),
            crate::predicate::Operand::lit("MIT"),
        ));
        let scan = q.execute(&mut db).unwrap();
        db.table_mut("events")
            .unwrap()
            .create_index("location")
            .unwrap();
        let probed = q.execute(&mut db).unwrap();
        assert_eq!(scan, probed);
    }

    #[test]
    fn projection_errors_on_unknown_column() {
        let mut db = db();
        assert!(matches!(
            Query::from("users").select(&["zzz"]).execute(&mut db),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn value_accessor_bounds() {
        let mut db = db();
        let rs = Query::from("users").execute_full(&mut db).unwrap();
        assert_eq!(rs.value(0, "name").unwrap(), &Value::from("alice"));
        assert!(rs.value(99, "name").is_err());
    }

    #[test]
    fn execute_ref_matches_execute() {
        let mut db = db();
        db.table_mut("events")
            .unwrap()
            .create_index("host")
            .unwrap();
        let q = Query::from("events")
            .filter(Predicate::eq(
                crate::predicate::Operand::col("host"),
                crate::predicate::Operand::lit(1i64),
            ))
            .order_by("location", SortOrder::Asc);
        let mutable = q.execute(&mut db).unwrap();
        let shared = q.execute_ref(&db).unwrap();
        assert_eq!(mutable, shared);
        assert_eq!(q.execute_full_ref(&db).unwrap().stats.index_probes, 1);
    }

    #[test]
    fn execute_ref_falls_back_to_scan_on_dirty_index() {
        let mut db = db();
        db.table_mut("events")
            .unwrap()
            .create_index("host")
            .unwrap();
        // A delete dirties the index; the shared path must still
        // return correct rows (by scanning) without mutating.
        db.delete(
            "events",
            &Predicate::eq(
                crate::predicate::Operand::col("location"),
                crate::predicate::Operand::lit("CMU"),
            ),
        )
        .unwrap();
        let q = Query::from("events").filter(Predicate::eq(
            crate::predicate::Operand::col("host"),
            crate::predicate::Operand::lit(1i64),
        ));
        let full = q.execute_full_ref(&db).unwrap();
        assert_eq!(full.stats.index_probes, 0, "dirty index is not probed");
        assert_eq!(full.rows.len(), 2);
        // The mutable path refreshes and probes again.
        let refreshed = q.execute_full(&mut db).unwrap();
        assert_eq!(refreshed.stats.index_probes, 1);
        assert_eq!(refreshed.rows, full.rows);
    }

    #[test]
    fn plan_indices_matches_execute_for_supported_shapes() {
        let db = db();
        db.table_mut("events")
            .unwrap()
            .create_index("host")
            .unwrap();
        let queries = vec![
            Query::from("events"),
            Query::from("events").filter(Predicate::eq(
                crate::predicate::Operand::col("host"),
                crate::predicate::Operand::lit(1i64),
            )),
            Query::from("events")
                .filter(Predicate::eq(
                    crate::predicate::Operand::col("location"),
                    crate::predicate::Operand::lit("MIT"),
                ))
                .order_by("host", SortOrder::Desc),
            Query::from("events")
                .order_by("location", SortOrder::Asc)
                .limit(2),
        ];
        for q in queries {
            let rows = q.execute_ref(&db).unwrap();
            let table = db.table("events").unwrap();
            let indices = q.plan_indices(&table).unwrap().expect("supported shape");
            let via_indices: Vec<Row> = indices.iter().map(|&i| table.rows()[i].clone()).collect();
            assert_eq!(via_indices, rows, "{q:?}");
        }
    }

    #[test]
    fn plan_indices_rejects_unsupported_shapes() {
        let db = db();
        let table = db.table("events").unwrap();
        assert!(Query::from("events")
            .join("users", "host", "id")
            .plan_indices(&table)
            .unwrap()
            .is_none());
        assert!(Query::from("events")
            .select(&["host"])
            .plan_indices(&table)
            .unwrap()
            .is_none());
        assert!(Query::from("events")
            .distinct()
            .plan_indices(&table)
            .unwrap()
            .is_none());
    }

    #[test]
    fn join_skips_null_keys() {
        let mut db = db();
        db.create_table(
            "maybe",
            Schema::new(vec![ColumnDef::new("u", ColumnType::Int).nullable()]),
        )
        .unwrap();
        db.insert("maybe", vec![Value::Null]).unwrap();
        db.insert("maybe", vec![Value::Int(1)]).unwrap();
        let rows = Query::from("maybe")
            .join("users", "u", "id")
            .execute(&mut db)
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
}
