//! Pins of `form::object_field`'s memo table (the `Value` node
//! store's `map` computed table). It lives in a test binary of its
//! own: the memo switch and the garbage collector are process-global,
//! and the counts below are exact only while no other test touches
//! the `Value` store.

use faceted::{collect_garbage, intern_stats, set_memoization, Faceted, Label};
use form::{object_field, FacetedObject};
use microdb::Value;

fn object(tag: &str) -> FacetedObject {
    Faceted::split(
        Label::from_index(0),
        Faceted::leaf(Some(vec![
            Value::from(format!("{tag}-high")),
            Value::Int(1),
        ])),
        Faceted::leaf(Some(vec![Value::from(format!("{tag}-low")), Value::Int(1)])),
    )
}

#[test]
fn object_field_is_memoized_switchable_and_collectable() {
    // A second projection of the same field of the same object is one
    // memo hit returning the same node.
    let obj = object("memo");
    let s0 = intern_stats::<Value>();
    let first = object_field(&obj, 0);
    let s1 = intern_stats::<Value>();
    assert_eq!(
        (s1.memo_hits, s1.memo_misses),
        (s0.memo_hits, s0.memo_misses + 1)
    );
    assert_eq!(s1.memo_entries, s0.memo_entries + 1);
    let second = object_field(&obj, 0);
    let s2 = intern_stats::<Value>();
    assert_eq!(second.node_id(), first.node_id());
    assert_eq!(
        (s2.memo_hits, s2.memo_misses),
        (s1.memo_hits + 1, s1.memo_misses)
    );
    // Another column, or another object, is its own entry.
    assert_eq!(object_field(&obj, 1), Faceted::leaf(Value::Int(1)));
    let other = object_field(&object("other"), 0);
    assert_ne!(other, first);
    let s3 = intern_stats::<Value>();
    assert_eq!(s3.memo_misses, s2.memo_misses + 2);
    assert_eq!(s3.memo_entries, s2.memo_entries + 2);

    // With memoization off the table is bypassed: nothing stored,
    // nothing counted, and the result is still the interned node.
    let was = set_memoization(false);
    let unmemoized = object("off");
    let a = object_field(&unmemoized, 0);
    let b = object_field(&unmemoized, 0);
    let off = intern_stats::<Value>();
    assert_eq!(a, b);
    assert_eq!(off.memo_entries, s3.memo_entries, "nothing stored");
    assert_eq!(
        (off.memo_hits, off.memo_misses),
        (s3.memo_hits, s3.memo_misses)
    );
    set_memoization(was);

    // The table pins its results until a collection clears it: once
    // the objects and every projected field are dropped, the field
    // nodes are reclaimed with it.
    drop((obj, first, second, other, unmemoized, a, b));
    let pinned = intern_stats::<Value>();
    assert_eq!(pinned.memo_entries, 3);
    assert!(
        pinned.splits >= 2,
        "the memo keeps the projected splits alive"
    );
    let reclaimed = collect_garbage::<Value>();
    let after = intern_stats::<Value>();
    assert_eq!(after.memo_entries, 0);
    assert_eq!(
        (after.leaves, after.splits),
        (0, 0),
        "every field node reclaimed"
    );
    assert_eq!(reclaimed, pinned.leaves + pinned.splits);
}
