//! Property tests: marshal/unmarshal round-trips, query/projection
//! commutation, guarded-save semantics, pruning equivalence, and the
//! in-place readers against the faceted compositions they replace.

use faceted::{Branch, Branches, Faceted, Label, View};
use form::{encode_jvars, faceted_count, parse_jvars, FacetedObject, FormDb};
use microdb::{ColumnDef, ColumnType, Operand, Predicate, Row, SortOrder, Value};
use proptest::prelude::*;

const LABELS: u32 = 3;

fn arb_label() -> impl Strategy<Value = Label> {
    (0..LABELS).prop_map(Label::from_index)
}

fn arb_branch() -> impl Strategy<Value = Branch> {
    (arb_label(), any::<bool>()).prop_map(|(l, p)| if p { Branch::pos(l) } else { Branch::neg(l) })
}

fn arb_branches() -> impl Strategy<Value = Branches> {
    proptest::collection::vec(arb_branch(), 0..3).prop_map(Branches::from_iter)
}

fn all_views() -> Vec<View> {
    (0..(1u32 << LABELS))
        .map(|bits| {
            View::from_labels(
                (0..LABELS)
                    .filter(|i| bits & (1 << i) != 0)
                    .map(Label::from_index),
            )
        })
        .collect()
}

/// An arbitrary one-column faceted object (possibly absent in some
/// facets).
fn arb_object(depth: u32) -> impl Strategy<Value = FacetedObject> {
    let leaf = prop_oneof![
        3 => (0i64..6).prop_map(|v| Faceted::leaf(Some(vec![Value::Int(v)]))),
        1 => Just(Faceted::leaf(None)),
    ];
    leaf.prop_recursive(depth, 24, 2, |inner| {
        (arb_label(), inner.clone(), inner).prop_map(|(l, h, w)| Faceted::split(l, h, w))
    })
}

fn fresh_db() -> FormDb {
    let mut db = FormDb::new();
    db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
        .unwrap();
    for i in 0..LABELS {
        let l = db.fresh_label();
        assert_eq!(l.index(), i);
    }
    db
}

/// One physical row of the raw table `r` (key `k`, value `v`): its
/// object id and a guard that is empty, one-sided, mixed or
/// contradictory, so an object's rows may also overlap (a facet
/// conflict).
fn arb_raw_row() -> impl Strategy<Value = (i64, i64, i64, Branches)> {
    let guard = prop_oneof![1 => Just(Branches::new()), 2 => arb_branches()];
    (0i64..3, 0i64..3, 1i64..4, guard)
}

fn insert_raw(db: &FormDb, (k, v, jid, guard): &(i64, i64, i64, Branches)) {
    let row = vec![
        Value::Int(*k),
        Value::Int(*v),
        Value::Int(*jid),
        Value::from(encode_jvars(guard)),
    ];
    db.raw_ref().insert("r", row).unwrap();
}

/// `exists_eq` is the very node its count composition builds, and
/// `public_row` is `get` projected on the empty view, errors included.
fn readers_match_compositions(db: &FormDb) -> Result<(), TestCaseError> {
    for key in 0..3 {
        for wanted in 0..3 {
            let pred = |r: &Row| r[1] == Value::Int(wanted);
            let read = db.exists_eq("r", "k", Value::Int(key), pred).unwrap();
            let rows = db.filter_eq("r", "k", Value::Int(key)).unwrap();
            let count = faceted_count(&rows.filter_rows(|g| pred(&g.fields)));
            let composed = count.map(&mut |n| *n > 0);
            prop_assert_eq!(read.node_id(), composed.node_id(), "k={} v={}", key, wanted);
        }
    }
    for jid in 0..5 {
        let read = db.public_row("r", jid, |row| row.cloned());
        let composed = db.get("r", jid).map(|o| o.project(&View::empty()).clone());
        prop_assert_eq!(read, composed, "jid {}", jid);
    }
    Ok(())
}

proptest! {
    /// jvars encoding round-trips arbitrary guards.
    #[test]
    fn jvars_round_trip(b in arb_branches()) {
        prop_assert_eq!(parse_jvars(&encode_jvars(&b)).unwrap(), b);
    }

    /// insert ∘ get = identity on canonical objects, for every view.
    #[test]
    fn marshal_unmarshal_round_trip(obj in arb_object(3)) {
        let db = fresh_db();
        let jid = db.insert("t", &obj).unwrap();
        // Fully-absent objects store zero rows and read back as "no
        // such object" — equivalent to the all-None tree.
        match db.get("t", jid) {
            Ok(read) => {
                for view in all_views() {
                    prop_assert_eq!(
                        read.project(&view),
                        obj.project(&view),
                        "view {:?}", view
                    );
                }
            }
            Err(form::FormError::NoSuchObject { .. }) => {
                for view in all_views() {
                    prop_assert_eq!(obj.project(&view), &None);
                }
            }
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
    }

    /// Faceted filter commutes with projection: what a view sees in
    /// the faceted query result equals filtering what the view sees.
    #[test]
    fn filter_commutes_with_projection(
        objs in proptest::collection::vec(arb_object(2), 1..6),
        needle in 0i64..6,
    ) {
        let db = fresh_db();
        for o in &objs {
            db.insert("t", o).unwrap();
        }
        let result = db.filter_eq("t", "v", Value::Int(needle)).unwrap();
        for view in all_views() {
            let mut got: Vec<i64> = result
                .project(&view)
                .into_iter()
                .map(|g| g.fields[0].as_int().unwrap())
                .collect();
            got.sort_unstable();
            let mut expected: Vec<i64> = objs
                .iter()
                .filter_map(|o| o.project(&view).clone())
                .map(|r| r[0].as_int().unwrap())
                .filter(|v| *v == needle)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "view {:?}", view);
        }
    }

    /// ORDER BY commutes with projection (the §3.1.1 sorting claim).
    #[test]
    fn order_by_commutes_with_projection(
        objs in proptest::collection::vec(arb_object(2), 1..6),
    ) {
        let db = fresh_db();
        for o in &objs {
            db.insert("t", o).unwrap();
        }
        let sorted = db.order_by("t", "v", SortOrder::Asc).unwrap();
        for view in all_views() {
            let got: Vec<i64> = sorted
                .project(&view)
                .into_iter()
                .map(|g| g.fields[0].as_int().unwrap())
                .collect();
            let mut expected: Vec<i64> = objs
                .iter()
                .filter_map(|o| o.project(&view).clone())
                .map(|r| r[0].as_int().unwrap())
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(got, expected, "view {:?}", view);
        }
    }

    /// Guarded save: views satisfying pc see the new object, others
    /// keep the old one — exactly ⟨⟨pc ? new : old⟩⟩.
    #[test]
    fn guarded_save_semantics(old in arb_object(2), new in arb_object(2), pc in arb_branches()) {
        prop_assume!(pc.is_consistent());
        let db = fresh_db();
        let jid = db.insert("t", &old).unwrap();
        db.save("t", jid, &new, &pc).unwrap();
        match db.get("t", jid) {
            Ok(merged) => {
                for view in all_views() {
                    let expected = if pc.visible_to(&view) {
                        new.project(&view)
                    } else {
                        old.project(&view)
                    };
                    prop_assert_eq!(merged.project(&view), expected, "view {:?}", view);
                }
            }
            Err(form::FormError::NoSuchObject { .. }) => {
                for view in all_views() {
                    let expected = if pc.visible_to(&view) {
                        new.project(&view)
                    } else {
                        old.project(&view)
                    };
                    prop_assert_eq!(&None, expected, "view {:?}", view);
                }
            }
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
    }

    /// Early Pruning never changes what a consistent viewer sees.
    #[test]
    fn pruning_preserves_consistent_views(
        objs in proptest::collection::vec(arb_object(2), 1..5),
        constraint in arb_branches(),
    ) {
        prop_assume!(constraint.is_consistent());
        let plain = fresh_db();
        for o in &objs {
            plain.insert("t", o).unwrap();
        }
        let a = plain.all("t").unwrap();
        let b = plain.all_with("t", Some(&constraint)).unwrap();
        prop_assert!(b.len() <= a.len());
        for view in all_views() {
            if !constraint.visible_to(&view) {
                continue;
            }
            let mut va: Vec<i64> = a.project(&view).iter().map(|g| g.fields[0].as_int().unwrap()).collect();
            let mut vb: Vec<i64> = b.project(&view).iter().map(|g| g.fields[0].as_int().unwrap()).collect();
            va.sort_unstable();
            vb.sort_unstable();
            prop_assert_eq!(va, vb, "view {:?}", view);
        }
    }

    /// Decode-cache invalidation contract: every write to a table
    /// bumps that table's generation and stales exactly *its* cached
    /// snapshot — a cached snapshot of any other table stays valid
    /// across the whole write sequence. Runs with delta maintenance
    /// ablated: the re-decode counting below pins the *fallback*
    /// behavior (the delta-repaired path is pinned by
    /// `delta_maintenance_matches_cold_decode`).
    #[test]
    fn writes_bump_generation_and_invalidate_only_written_table(
        objs in proptest::collection::vec(arb_object(2), 1..4),
        ops in proptest::collection::vec((any::<bool>(), 0u8..3, arb_object(1), arb_branches()), 1..8),
    ) {
        let mut db = fresh_db();
        db.set_delta_maintenance(false);
        db.create_table("u", vec![ColumnDef::new("v", ColumnType::Int)]).unwrap();
        for o in &objs {
            db.insert("t", o).unwrap();
            db.insert("u", o).unwrap();
        }
        // Warm both snapshots.
        let _ = db.all("t").unwrap();
        let _ = db.all("u").unwrap();
        for (to_u, op, obj, pc) in &ops {
            let (target, other) = if *to_u { ("u", "t") } else { ("t", "u") };
            let gen_before = db.raw_ref().generation(target).unwrap();
            let other_cached = db.cached_generation(other);
            // Inserting an everywhere-absent object stores zero rows
            // (a storage-level no-op), and an inconsistent pc never
            // reaches the engine — substitute writes that really land.
            let obj = if form::flatten_object(obj).is_empty() {
                Faceted::leaf(Some(vec![Value::Int(0)]))
            } else {
                obj.clone()
            };
            let pc = if pc.is_consistent() {
                pc.clone()
            } else {
                Branches::new()
            };
            let wrote = match op {
                0 => db.insert(target, &obj).map(|_| true),
                1 => db.save(target, 1, &obj, &pc).map(|_| true),
                _ => db.delete(target, 1, &pc).map(|_| true),
            };
            prop_assert!(wrote.is_ok());
            // A write that changed rows bumps the generation; a
            // vacuous one (e.g. deleting an already-absent object)
            // must NOT — that's the no-op-write fix.
            let bumped = db.raw_ref().generation(target).unwrap() > gen_before;
            if *op == 0 {
                prop_assert!(bumped, "inserts always change rows");
            }
            prop_assert_eq!(
                db.cached_generation(other), other_cached,
                "writes must not touch the other table's snapshot"
            );
            // The stale snapshot is refreshed on next access and the
            // untouched one still hits.
            let misses_before = db.decode_cache_stats().misses;
            let _ = db.all(other).unwrap();
            prop_assert_eq!(db.decode_cache_stats().misses, misses_before,
                "reading the unwritten table is still a cache hit");
            let _ = db.all(target).unwrap();
            if bumped {
                prop_assert_eq!(db.decode_cache_stats().misses, misses_before + 1,
                    "reading the written table re-decodes once");
            } else {
                prop_assert_eq!(db.decode_cache_stats().misses, misses_before,
                    "a no-op write must not evict the warm snapshot");
            }
        }
    }

    /// The delta/full-decode equivalence oracle: for any interleaving
    /// of journal deltas (inserts, guarded saves, guarded deletes),
    /// the delta-repaired snapshot is row-identical to (a) the same
    /// op stream with delta maintenance ablated, and (b) a cold full
    /// decode at the same generation.
    #[test]
    fn delta_maintenance_matches_cold_decode(
        objs in proptest::collection::vec(arb_object(2), 1..4),
        ops in proptest::collection::vec((0u8..3, 1i64..6, arb_object(1), arb_branches()), 1..10),
    ) {
        let on = fresh_db();
        let mut off = fresh_db();
        off.set_delta_maintenance(false);
        for o in &objs {
            on.insert("t", o).unwrap();
            off.insert("t", o).unwrap();
        }
        // Warm the snapshots the delta stream will repair.
        let _ = on.all("t").unwrap();
        let _ = off.all("t").unwrap();
        let warmed_at = on.raw_ref().generation("t").unwrap();
        for (op, jid, obj, pc) in &ops {
            // Substitutions as above: writes that really land.
            let obj = if form::flatten_object(obj).is_empty() {
                Faceted::leaf(Some(vec![Value::Int(0)]))
            } else {
                obj.clone()
            };
            let pc = if pc.is_consistent() { pc.clone() } else { Branches::new() };
            // Saves/deletes of mangled objects can legitimately fail
            // (e.g. FacetConflict on an ambiguous merge): both sides
            // must then fail identically, mutating nothing.
            match op {
                0 => {
                    on.insert("t", &obj).unwrap();
                    off.insert("t", &obj).unwrap();
                }
                1 => {
                    let a = on.save("t", *jid, &obj, &pc);
                    let b = off.save("t", *jid, &obj, &pc);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
                _ => {
                    let a = on.delete("t", *jid, &pc);
                    let b = off.delete("t", *jid, &pc);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
            }
            let repaired = on.all("t").unwrap();
            prop_assert_eq!(&repaired, &off.all("t").unwrap());
            // A clone starts with a cold cache: its first read is a
            // full decode of the raw rows at the same generation.
            let cold = on.clone();
            prop_assert_eq!(&repaired, &cold.all("t").unwrap());
        }
        // Every op stream that actually changed rows must have gone
        // through the delta path (the table is far below the journal
        // budget, so the window always covers).
        if on.raw_ref().generation("t").unwrap() > warmed_at {
            prop_assert!(
                on.decode_cache_stats().delta_applies >= 1,
                "the op stream exercised the delta path"
            );
        }
    }

    /// Cached and cache-disabled queries are byte-identical across
    /// arbitrary data, for every query shape the FORM offers.
    #[test]
    fn cached_and_uncached_queries_agree(
        objs in proptest::collection::vec(arb_object(2), 1..5),
        needle in 0i64..6,
    ) {
        let cached = fresh_db();
        let mut uncached = fresh_db();
        uncached.set_decode_cache(false);
        for o in &objs {
            cached.insert("t", o).unwrap();
            uncached.insert("t", o).unwrap();
        }
        prop_assert_eq!(cached.all("t").unwrap(), uncached.all("t").unwrap());
        // Query twice so the second cached run is a guaranteed hit.
        prop_assert_eq!(cached.all("t").unwrap(), uncached.all("t").unwrap());
        prop_assert_eq!(
            cached.filter_eq("t", "v", Value::Int(needle)).unwrap(),
            uncached.filter_eq("t", "v", Value::Int(needle)).unwrap()
        );
        prop_assert_eq!(
            cached.order_by("t", "v", SortOrder::Asc).unwrap(),
            uncached.order_by("t", "v", SortOrder::Asc).unwrap()
        );
        for jid in 1..=objs.len() as i64 {
            let a = cached.get("t", jid);
            let b = uncached.get("t", jid);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(form::FormError::NoSuchObject{..}), Err(form::FormError::NoSuchObject{..})) => {}
                (a, b) => return Err(TestCaseError::fail(format!("{a:?} vs {b:?}"))),
            }
        }
        prop_assert!(cached.decode_cache_stats().hits >= 1);
        prop_assert_eq!(uncached.decode_cache_stats().hits, 0);
    }

    /// The in-place readers equal the faceted compositions they stand
    /// for on raw rows of every guard shape: with and without an index
    /// on the probed column, with the decode cache and delta repair on
    /// or off, cold, warm, and after a write that leaves the snapshot
    /// stale (an insert) or the indexes dirty (a delete).
    #[test]
    fn in_place_readers_match_faceted_compositions(
        rows in proptest::collection::vec(arb_raw_row(), 0..10),
        written in arb_raw_row(),
        arms in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (indexed, cached, deltas, delete) = arms;
        let mut db = FormDb::new();
        db.create_table("r", vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("v", ColumnType::Int),
        ]).unwrap();
        if indexed {
            db.create_index("r", "k").unwrap();
        }
        db.set_decode_cache(cached);
        db.set_delta_maintenance(deltas);
        for row in &rows {
            insert_raw(&db, row);
        }
        readers_match_compositions(&db)?;
        let _ = db.all("r").unwrap();
        readers_match_compositions(&db)?;
        insert_raw(&db, &written);
        if delete {
            let pred = Predicate::eq(Operand::col("v"), Operand::lit(written.1));
            db.raw_ref().delete("r", &pred).unwrap();
        }
        readers_match_compositions(&db)?;
    }

    /// Faceted count equals per-view counting.
    #[test]
    fn count_commutes_with_projection(objs in proptest::collection::vec(arb_object(2), 0..5)) {
        let db = fresh_db();
        for o in &objs {
            db.insert("t", o).unwrap();
        }
        let rows = db.all("t").unwrap();
        let count = form::faceted_count(&rows);
        for view in all_views() {
            let expected = objs.iter().filter(|o| o.project(&view).is_some()).count() as i64;
            prop_assert_eq!(*count.project(&view), expected, "view {:?}", view);
        }
    }
}
