//! The quiescent checkpoint's interner GC, in a test binary of its
//! own: a full checkpoint collects every dead node of the object-DAG
//! leaf types process-wide, so any other test checkpointing in the
//! same process could reclaim this test's garbage first.

use jacqueline::{simple_policy, App, ModelDef};
use microdb::{ColumnDef, ColumnType, Value};

#[test]
fn checkpoint_reports_gc_of_dead_nodes() {
    let dir = std::env::temp_dir().join(format!("jacq_ckpt_gc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut app = App::new();
    app.register_model(
        ModelDef::public(
            "note",
            vec![
                ColumnDef::new("owner", ColumnType::Int),
                ColumnDef::new("text", ColumnType::Str),
            ],
        )
        .with_policy(simple_policy(
            "note_owner",
            vec![1],
            |_| vec![Value::from("[private]")],
            |args| args.viewer.user_jid() == args.row[0].as_int(),
        )),
    )
    .unwrap();
    app.create("note", vec![Value::Int(1), Value::from("alive")])
        .unwrap();
    // Request-scoped garbage: DAGs built and dropped.
    for i in 0..50 {
        let v: faceted::Faceted<i64> = faceted::Faceted::split(
            faceted::Label::from_index(2_000_000 + i),
            faceted::Faceted::leaf(i64::from(i)),
            faceted::Faceted::leaf(-1),
        );
        drop(v);
    }
    let stats = app.checkpoint_quiescent(&dir).unwrap();
    assert!(
        stats.gc_reclaimed >= 50,
        "quiescent GC reclaims the dead DAGs, got {}",
        stats.gc_reclaimed
    );
    assert!(stats.interner_nodes_after <= stats.interner_nodes_before);
    let _ = std::fs::remove_dir_all(&dir);
}
