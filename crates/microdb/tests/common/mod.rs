//! A miniature of the FORM's object creation for the write-log and
//! chunk-store property tests: model `mN` has N policies (0–3), and a
//! create commits its facet rows and — when the model has policies —
//! its binding row (`jid`, creation-time row, one label index per
//! policy) as one atomic batch over the two tables, exactly the shape
//! of a FORM create's write-log record.

use std::collections::BTreeSet;

use microdb::{ColumnDef, ColumnType, Database, Row, Schema, Statement, Value};

/// Models `m0` to `m3`.
pub const MODELS: usize = 4;

/// One bound label as a restore derives it: `(label index, model,
/// policy index, jid, creation-time row, derived label name)`.
pub type BoundLabel = (u32, String, usize, i64, Row, String);

pub fn model(n: usize) -> String {
    format!("m{n}")
}

pub fn binding_table(n: usize) -> String {
    format!("_bind_m{n}")
}

/// A bound label's name: a function of its binding, never stored.
pub fn label_name(n: usize, policy: usize, jid: i64) -> String {
    format!("m{n}.p{policy}@{jid}")
}

/// Every model table, and a binding table per model with policies.
pub fn fresh_db() -> Database {
    let mut db = Database::new();
    for n in 0..MODELS {
        let user = || {
            vec![
                ColumnDef::new("x", ColumnType::Int),
                ColumnDef::new("s", ColumnType::Str),
            ]
        };
        let mut cols = user();
        cols.push(ColumnDef::new("jid", ColumnType::Int));
        cols.push(ColumnDef::new("jvars", ColumnType::Str));
        db.create_table(&model(n), Schema::new(cols)).unwrap();
        if n > 0 {
            let mut cols = vec![ColumnDef::new("jid", ColumnType::Int)];
            cols.extend(user());
            cols.extend((0..n).map(|p| ColumnDef::new(&format!("@{p}"), ColumnType::Int)));
            db.create_table(&binding_table(n), Schema::new(cols))
                .unwrap();
        }
    }
    db
}

/// Label and jid allocation the way the FORM does it: both counters
/// move even when the create then fails, and only acknowledged
/// creates enter the live binding set.
#[derive(Default)]
pub struct Creator {
    next_label: u32,
    next_jid: [i64; MODELS],
    /// The bindings of every acknowledged create.
    pub live: BTreeSet<BoundLabel>,
    /// `(model, jid)` of every create that failed.
    pub failed: Vec<(usize, i64)>,
}

impl Creator {
    /// Creates an object of model `mN` with creation-time row
    /// `(x, "v<x>")`: one facet row per label plus one, and the
    /// binding row in the same batch. Returns whether it committed.
    pub fn create(&mut self, db: &Database, n: usize, x: i64) -> bool {
        self.next_jid[n] += 1;
        let jid = self.next_jid[n];
        let labels: Vec<u32> = (0..n)
            .map(|_| {
                self.next_label += 1;
                self.next_label - 1
            })
            .collect();
        let row = vec![Value::Int(x), Value::from(format!("v{x}"))];
        let mut stmts: Vec<Statement> = (0..=n)
            .map(|facet| {
                let mut facet_row = row.clone();
                facet_row.push(Value::Int(jid));
                facet_row.push(Value::from(format!("f{facet}")));
                Statement::Insert {
                    table: model(n),
                    row: facet_row,
                }
            })
            .collect();
        let mut t = db.table_mut(&model(n)).unwrap();
        let committed = if n == 0 {
            db.apply_batch_locked(&mut [&mut *t], stmts).is_ok()
        } else {
            let mut binding = vec![Value::Int(jid)];
            binding.extend(row.iter().cloned());
            binding.extend(labels.iter().map(|&l| Value::Int(i64::from(l))));
            stmts.push(Statement::Insert {
                table: binding_table(n),
                row: binding,
            });
            let mut b = db.table_mut(&binding_table(n)).unwrap();
            db.apply_batch_locked(&mut [&mut *t, &mut *b], stmts)
                .is_ok()
        };
        if committed {
            for (policy, &label) in labels.iter().enumerate() {
                self.live.insert((
                    label,
                    model(n),
                    policy,
                    jid,
                    row.clone(),
                    label_name(n, policy, jid),
                ));
            }
        } else {
            self.failed.push((n, jid));
        }
        committed
    }
}

/// The bindings a restore derives by scanning `db`'s binding tables.
pub fn restored_bindings(db: &Database) -> BTreeSet<BoundLabel> {
    let mut out = BTreeSet::new();
    for n in 1..MODELS {
        for r in db.table(&binding_table(n)).unwrap().rows() {
            let jid = r[0].as_int().unwrap();
            for policy in 0..n {
                let label = u32::try_from(r[3 + policy].as_int().unwrap()).unwrap();
                out.insert((
                    label,
                    model(n),
                    policy,
                    jid,
                    r[1..3].to_vec(),
                    label_name(n, policy, jid),
                ));
            }
        }
    }
    out
}

/// Whether any row of `db` — facet or binding — belongs to object
/// `jid` of model `mN`.
pub fn has_rows_of(db: &Database, n: usize, jid: i64) -> bool {
    let jid = Value::Int(jid);
    let facet = db
        .table(&model(n))
        .unwrap()
        .rows()
        .iter()
        .any(|r| r[2] == jid);
    facet
        || (n > 0
            && db
                .table(&binding_table(n))
                .unwrap()
                .rows()
                .iter()
                .any(|r| r[0] == jid))
}
