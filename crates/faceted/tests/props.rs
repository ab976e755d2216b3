//! Property-based tests for the faceted-value laws of the paper.
//!
//! These correspond to Lemmas 1 and 2 (projection of the `⟨⟨·⟩⟩`
//! operator), the canonicity of faceted trees, and the view semantics
//! of the table join operator.

use faceted::{Branch, Branches, Faceted, FacetedList, Label, View};
use proptest::prelude::*;

const LABELS: u32 = 4;

fn arb_label() -> impl Strategy<Value = Label> {
    (0..LABELS).prop_map(Label::from_index)
}

fn arb_branch() -> impl Strategy<Value = Branch> {
    (arb_label(), any::<bool>())
        .prop_map(|(l, pos)| if pos { Branch::pos(l) } else { Branch::neg(l) })
}

fn arb_branches() -> impl Strategy<Value = Branches> {
    proptest::collection::vec(arb_branch(), 0..4).prop_map(Branches::from_iter)
}

fn arb_view() -> impl Strategy<Value = View> {
    proptest::collection::btree_set(arb_label(), 0..LABELS as usize).prop_map(View::from_labels)
}

fn arb_faceted(depth: u32) -> impl Strategy<Value = Faceted<i64>> {
    let leaf = (0i64..6).prop_map(Faceted::leaf);
    leaf.prop_recursive(depth, 32, 2, |inner| {
        (arb_label(), inner.clone(), inner).prop_map(|(l, h, w)| Faceted::split(l, h, w))
    })
}

/// Naive reference semantics: a faceted value *is* its view function.
fn denote(v: &Faceted<i64>, view: &View) -> i64 {
    *v.project(view)
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

proptest! {
    /// Lemma 1: L(⟨⟨k ? V₁ : V₂⟩⟩) = L(V₁) if k ∈ L else L(V₂).
    #[test]
    fn lemma1_split_projects(label in arb_label(), a in arb_faceted(3), b in arb_faceted(3)) {
        let joined = Faceted::split(label, a.clone(), b.clone());
        for view in all_views() {
            let expected = if view.sees(label) { denote(&a, &view) } else { denote(&b, &view) };
            prop_assert_eq!(denote(&joined, &view), expected);
        }
    }

    /// Lemma 2: L(⟨⟨B ? V₁ : V₂⟩⟩) = L(V₁) if B ∼ L else L(V₂).
    #[test]
    fn lemma2_branches_project(b in arb_branches(), hi in arb_faceted(3), lo in arb_faceted(3)) {
        let joined = Faceted::split_branches(&b, hi.clone(), lo.clone());
        for view in all_views() {
            let expected = if b.visible_to(&view) { denote(&hi, &view) } else { denote(&lo, &view) };
            prop_assert_eq!(denote(&joined, &view), expected);
        }
    }

    /// Canonicity: two trees equal as view functions are structurally equal.
    #[test]
    fn canonical_form_is_unique(a in arb_faceted(4), b in arb_faceted(4)) {
        let same_denotation = all_views().iter().all(|v| denote(&a, v) == denote(&b, v));
        prop_assert_eq!(same_denotation, a == b);
    }

    /// Hash-consing: pointer (node-id) equality coincides with
    /// view-by-view semantic equality — the interning invariant the
    /// O(1) `PartialEq` relies on.
    #[test]
    fn pointer_equality_is_semantic_equality(a in arb_faceted(4), b in arb_faceted(4)) {
        let same_denotation = all_views().iter().all(|v| denote(&a, v) == denote(&b, v));
        prop_assert_eq!(same_denotation, a.node_id() == b.node_id());
    }

    /// map is pointwise on views.
    #[test]
    fn map_commutes_with_projection(a in arb_faceted(4), view in arb_view()) {
        let mapped = a.map(&mut |x| x * 3 + 1);
        prop_assert_eq!(denote(&mapped, &view), denote(&a, &view) * 3 + 1);
    }

    /// zip_with is pointwise on views.
    #[test]
    fn zip_commutes_with_projection(a in arb_faceted(3), b in arb_faceted(3), view in arb_view()) {
        let z = a.zip_with(&b, &mut |x, y| x * 10 + y);
        prop_assert_eq!(denote(&z, &view), denote(&a, &view) * 10 + denote(&b, &view));
    }

    /// assume(k, v) fixes the label: projection becomes independent of k.
    #[test]
    fn assume_fixes_label(a in arb_faceted(4), label in arb_label(), pol in any::<bool>()) {
        let fixed = a.assume(label, pol);
        for view in all_views() {
            let forced = if pol { view.with(label) } else {
                let mut v = view.clone();
                v.remove(label);
                v
            };
            prop_assert_eq!(denote(&fixed, &view), denote(&a, &forced));
        }
    }

    /// Table join agrees with the scalar semantics on every view:
    /// L(⟨⟨k ? T_H : T_L⟩⟩) = L(T_H) if k ∈ L else L(T_L).
    #[test]
    fn table_join_projects(
        label in arb_label(),
        hi in proptest::collection::vec((arb_branches(), 0i64..5), 0..5),
        lo in proptest::collection::vec((arb_branches(), 0i64..5), 0..5),
    ) {
        let th: FacetedList<i64> = hi.into_iter().collect();
        let tl: FacetedList<i64> = lo.into_iter().collect();
        let joined = FacetedList::facet_join(label, &th, &tl);
        for view in all_views() {
            let mut expected: Vec<i64> = if view.sees(label) {
                th.project(&view).into_iter().copied().collect()
            } else {
                tl.project(&view).into_iter().copied().collect()
            };
            let mut got: Vec<i64> = joined.project(&view).into_iter().copied().collect();
            expected.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expected, "view {:?}", view);
        }
    }

    /// Early pruning never changes what a consistent view sees.
    #[test]
    fn prune_preserves_consistent_views(
        rows in proptest::collection::vec((arb_branches(), 0i64..5), 0..6),
        pc in arb_branches(),
    ) {
        let t: FacetedList<i64> = rows.into_iter().collect();
        let pruned = t.prune(&pc);
        for view in all_views() {
            if pc.visible_to(&view) {
                let mut a: Vec<i64> = t.project(&view).into_iter().copied().collect();
                let mut b: Vec<i64> = pruned.project(&view).into_iter().copied().collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b);
            }
        }
    }
}
