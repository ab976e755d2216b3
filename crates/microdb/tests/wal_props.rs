//! Property tests: the write log replays to the live tables. Random
//! sequences of inserts, updates, deletes and atomic batches run with
//! a log attached; a snapshot taken at a random point, restored and
//! rolled forward by the log, must equal the live table — rows in
//! physical order, generation stamp and auto-increment cursor. And
//! object creations whose records span two tables (facet rows plus a
//! binding row) replay to exactly the live binding set.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{Creator, MODELS};
use microdb::faults::{self, FaultKind, FaultPoint};
use microdb::{
    ColumnDef, ColumnType, Database, Operand, Predicate, Schema, Statement, Value, WriteLog,
};
use proptest::prelude::*;

/// Rows the seed batch inserts — more than the in-memory journal's
/// 1024-row window, so the bulk rewrite below slides out of it at once.
const SEED_ROWS: i64 = 1100;

#[derive(Clone, Debug)]
enum Op {
    Insert(i64),
    Update(i64, i64),
    Delete(i64),
    /// `(kind, a, b)` statements applied as one atomic batch.
    Batch(Vec<(u8, i64, i64)>),
    /// Rewrites every row, seed rows included.
    BulkRewrite,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..10).prop_map(Op::Insert),
        2 => (0i64..10, 0i64..10).prop_map(|(k, v)| Op::Update(k, v)),
        1 => (0i64..10).prop_map(Op::Delete),
        2 => proptest::collection::vec((0u8..3, 0i64..10, 0i64..10), 1..5).prop_map(Op::Batch),
    ]
}

fn k_is(k: i64) -> Predicate {
    Predicate::eq(Operand::col("k"), Operand::lit(k))
}

fn insert_stmt(k: i64) -> Statement {
    Statement::Insert {
        table: "t".into(),
        row: vec![Value::Null, Value::Int(k), Value::from(format!("v{k}"))],
    }
}

fn statement(kind: u8, a: i64, b: i64) -> Statement {
    match kind {
        0 => insert_stmt(a),
        1 => Statement::Update {
            table: "t".into(),
            pred: k_is(a),
            assignments: vec![("v".into(), Value::from(format!("u{b}")))],
        },
        _ => Statement::Delete {
            table: "t".into(),
            pred: k_is(a),
        },
    }
}

fn apply(db: &Database, op: &Op) {
    match op {
        Op::Insert(k) => {
            db.insert(
                "t",
                vec![Value::Null, Value::Int(*k), Value::from(format!("v{k}"))],
            )
            .unwrap();
        }
        Op::Update(k, v) => {
            db.update(
                "t",
                &k_is(*k),
                &[("v".into(), Value::from(format!("u{v}")))],
            )
            .unwrap();
        }
        Op::Delete(k) => {
            db.delete("t", &k_is(*k)).unwrap();
        }
        Op::Batch(stmts) => {
            let stmts: Vec<Statement> = stmts.iter().map(|&(c, a, b)| statement(c, a, b)).collect();
            let mut t = db.table_mut("t").unwrap();
            db.apply_batch_locked(&mut [&mut *t], stmts).unwrap();
        }
        Op::BulkRewrite => {
            let n = db
                .update(
                    "t",
                    &Predicate::ge(Operand::col("k"), Operand::lit(0i64)),
                    &[("v".into(), Value::from("bulk"))],
                )
                .unwrap();
            assert!(n > 1024, "the bulk rewrite must outgrow the journal window");
        }
    }
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int).auto_increment(),
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Str),
        ]),
    )
    .unwrap();
    db
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_plus_replay_equals_the_live_table(
        ops in proptest::collection::vec(arb_op(), 0..24),
        bulk_at in 0usize..25,
        snap_at in 0usize..27,
    ) {
        let path = std::env::temp_dir().join(format!(
            "microdb_walprops_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        // The seed batch (rows the random ops never match: k ≥ 100),
        // then the random ops with the bulk rewrite spliced in.
        let seed = Op::Batch((0..SEED_ROWS).map(|i| (0, 100 + i % 10, 0)).collect());
        let mut all = vec![seed];
        all.extend(ops);
        all.insert(1 + bulk_at.min(all.len() - 1), Op::BulkRewrite);
        let snap_at = snap_at.min(all.len());

        let mut db = fresh_db();
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));
        let mut snapshot = None;
        for (i, op) in all.iter().enumerate() {
            if i == snap_at {
                snapshot = Some(db.snapshot());
            }
            apply(&db, op);
        }
        let snapshot = snapshot.unwrap_or_else(|| db.snapshot());

        let mut restored = Database::new();
        restored.restore(&snapshot).unwrap();
        let stats = WriteLog::replay(&path, &restored).unwrap();
        prop_assert!(!stats.torn_tail);
        let live = db.table("t").unwrap();
        let back = restored.table("t").unwrap();
        prop_assert_eq!(back.rows(), live.rows());
        prop_assert_eq!(back.generation(), live.generation());
        prop_assert_eq!(back.next_auto(), live.next_auto());
        let _ = std::fs::remove_file(&path);
    }

    /// Creates over two tables — facet rows plus a binding row, 0–3
    /// labels — some of whose appends fail, with a snapshot at a
    /// random point and maybe a torn tail: snapshot plus replay
    /// rebuilds exactly the live binding set (label index, model,
    /// policy, jid, creation-time row, derived name) and the live
    /// rows, and a failed create leaves neither rows nor a binding.
    #[test]
    fn two_table_creates_replay_to_the_live_binding_set(
        creates in proptest::collection::vec(
            (0..MODELS, 0i64..50, (0u8..20).prop_map(|d| d < 3)),
            0..32,
        ),
        snap_at in 0usize..33,
        torn in any::<bool>(),
    ) {
        let name = format!(
            "microdb_walprops_bind_{}_{}.log",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        );
        let path = std::env::temp_dir().join(&name);
        let _ = std::fs::remove_file(&path);
        let mut db = common::fresh_db();
        db.attach_wal(Arc::new(WriteLog::open(&path).unwrap()));
        let mut creator = Creator::default();
        let mut snapshot = None;
        for (i, &(n, x, fail)) in creates.iter().enumerate() {
            if i == snap_at {
                snapshot = Some(db.snapshot());
            }
            if fail {
                faults::arm_at(FaultPoint::WalAppend, 0, FaultKind::Error, &name);
            }
            prop_assert_eq!(creator.create(&db, n, x), !fail);
        }
        let snapshot = snapshot.unwrap_or_else(|| db.snapshot());
        if torn {
            // A crash mid-append: half of the last record is on disk.
            faults::arm_at(FaultPoint::WalAppend, 0, FaultKind::ShortWrite, &name);
            prop_assert!(!creator.create(&db, MODELS - 1, 99));
        }

        let mut restored = Database::new();
        restored.restore(&snapshot).unwrap();
        let stats = WriteLog::replay(&path, &restored).unwrap();
        prop_assert_eq!(stats.torn_tail, torn);
        prop_assert_eq!(&common::restored_bindings(&restored), &creator.live);
        for table in db.table_names() {
            let (live, back) = (db.table(table).unwrap(), restored.table(table).unwrap());
            prop_assert_eq!(back.rows(), live.rows());
            prop_assert_eq!(back.generation(), live.generation());
        }
        for &(n, jid) in &creator.failed {
            prop_assert!(!common::has_rows_of(&db, n, jid));
            prop_assert!(!common::has_rows_of(&restored, n, jid));
        }
        let _ = std::fs::remove_file(&path);
    }
}
