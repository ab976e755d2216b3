//! Facet blowup and sharing: the §3.3 / §4.1 space considerations.
//!
//! Canonical trees merge identical facets (the "combining values that
//! are the same to a single view" optimization), and the table join
//! shares rows common to both sides.

use faceted::{Branch, Branches, Faceted, FacetedList, Label, View};

fn k(i: u32) -> Label {
    Label::from_index(i)
}

#[test]
fn faceted_values_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Faceted<i64>>();
    assert_send_sync::<Faceted<String>>();
    assert_send_sync::<FacetedList<String>>();
    assert_send_sync::<Branches>();
    assert_send_sync::<View>();
}

#[test]
fn interning_is_thread_safe() {
    // Many threads hammering the same store must agree on node ids.
    let ids: Vec<u64> = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                s.spawn(|| {
                    let mut v = Faceted::leaf(0i64);
                    for i in 0..8 {
                        let bumped = v.map(&mut |x| x + 1);
                        v = Faceted::split(k(i), bumped, v);
                    }
                    v.node_id()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    assert!(ids.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn independent_labels_blow_up_exponentially() {
    // n independent labels, all-distinct leaves: 2^n leaves. This is
    // the Table 5 pathology in miniature.
    let mut v = Faceted::leaf(0u64);
    for i in 0..10 {
        let tagged = v.map(&mut |x| x | (1 << i));
        v = Faceted::split(k(i), tagged, v);
    }
    assert_eq!(v.leaf_count(), 1 << 10);
}

#[test]
fn shared_facets_collapse() {
    // Same construction, but the "secret" computation is the identity:
    // canonical merging keeps the value a single leaf.
    let mut v = Faceted::leaf(0u64);
    for i in 0..10 {
        let same = v.map(&mut |x| *x);
        v = Faceted::split(k(i), same, v);
    }
    assert_eq!(v.leaf_count(), 1);
}

#[test]
fn partially_shared_structure_stays_small() {
    // Only the last label actually distinguishes values: the tree
    // stays linear in the number of *distinguishing* labels.
    let mut v = Faceted::split(k(9), Faceted::leaf(1), Faceted::leaf(0));
    for i in 0..9 {
        v = Faceted::split(k(i), v.clone(), v.clone());
    }
    assert_eq!(v.leaf_count(), 2);
}

#[test]
fn table_join_shares_common_rows() {
    // 100 shared rows + 1 differing row: the faceted table stores
    // 100 + 2, not 202 (the paper's row-sharing optimization).
    let mut high = FacetedList::new();
    let mut low = FacetedList::new();
    for i in 0..100 {
        high.push(Branches::new(), format!("common{i}"));
        low.push(Branches::new(), format!("common{i}"));
    }
    high.push(Branches::new(), "secret-only".to_owned());
    low.push(Branches::new(), "public-only".to_owned());
    let joined = FacetedList::facet_join(k(0), &high, &low);
    assert_eq!(joined.len(), 102);
    assert_eq!(joined.project(&View::from_labels([k(0)])).len(), 101);
    assert_eq!(joined.project(&View::empty()).len(), 101);
}

#[test]
fn assume_all_prunes_with_each_branch() {
    let mut v = Faceted::leaf(0i64);
    for i in 0..6 {
        v = Faceted::split(k(i), Faceted::leaf(i64::from(i) + 1), v);
    }
    let mut pc = Branches::new();
    pc.insert(Branch::neg(k(0)));
    pc.insert(Branch::neg(k(1)));
    let pruned = v.assume_all(&pc);
    assert!(pruned.labels().len() <= 4);
    for view in [
        View::empty(),
        View::from_labels([k(2)]),
        View::from_labels([k(5)]),
    ] {
        assert_eq!(pruned.project(&view), v.project(&view));
    }
}

#[test]
fn projection_cost_is_path_length_not_leaf_count() {
    // Even a 2^16-leaf value projects by walking one root-to-leaf
    // path; this completes instantly.
    let mut v = Faceted::leaf(0u64);
    for i in 0..16 {
        let tagged = v.map(&mut |x| x | (1 << i));
        v = Faceted::split(k(i), tagged, v);
    }
    assert_eq!(v.leaf_count(), 1 << 16);
    let view = View::from_labels((0..16).map(k));
    assert_eq!(*v.project(&view), (1u64 << 16) - 1);
    assert_eq!(*v.project(&View::empty()), 0);
}

#[test]
fn bool_leaves_are_the_interned_nodes_and_outlive_collection() {
    for b in [false, true] {
        let leaf = Faceted::leaf(b);
        assert_eq!(leaf.node_id(), Faceted::leaf_ref(&b).node_id());
        // A leaf interned by `map` and the fixed leaf are one node, so
        // a split over the two collapses to it.
        let mapped = Faceted::leaf(7i64).map(&mut |_| b);
        let split = Faceted::split(k(0), Faceted::leaf(b), mapped);
        assert!(split.is_leaf());
        assert_eq!(split.node_id(), leaf.node_id());
    }
    // With every handle of this test dropped, a collection keeps both
    // leaves: the store still hands out the same nodes.
    let ids = [false, true].map(|b| Faceted::leaf(b).node_id());
    faceted::collect_garbage::<bool>();
    assert_eq!([false, true].map(|b| Faceted::leaf_ref(&b).node_id()), ids);
    assert_eq!([false, true].map(|b| Faceted::leaf(b).node_id()), ids);
}
