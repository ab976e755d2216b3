//! Faceted values: the runtime representation of sensitive data.
//!
//! A [`Faceted<T>`] is the paper's `⟨k ? v_high : v_low⟩`, generalized
//! to nested facets. Values are kept in a *canonical* binary-decision
//! form: label ids strictly increase along every root-to-leaf path and
//! no node has equal children. Since PR 2 the canonical form is
//! additionally *hash-consed* (see [`crate::intern`]): every canonical
//! node is interned exactly once per process, so structural equality,
//! semantic equality ("same value under every view") and pointer
//! equality all coincide, and shared sub-structure is stored once.

use std::any::TypeId;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::branch::{Branch, Branches};
use crate::intern::{store_of, Facet, Store};
use crate::label::Label;
use crate::view::View;

/// A faceted value: either a plain leaf or a split `⟨k ? high : low⟩`.
///
/// Cloning is O(1) (nodes are shared behind [`Arc`]); all operations
/// produce interned canonical nodes, so equality is an id comparison
/// and `Faceted<T>` is `Send + Sync` whenever `T` is. Construction
/// through [`Faceted::leaf`] and [`Faceted::split`] maintains
/// canonical form; the canonicalizing operations are memoized in the
/// node store.
///
/// The closures taken by [`Faceted::map`], [`Faceted::zip_with`] and
/// [`Faceted::and_then`] must be *pure*: because equal sub-trees are
/// shared and operations are memoized, a closure is invoked once per
/// distinct input, not once per facet path.
///
/// # Examples
///
/// ```
/// use faceted::{Faceted, Label, View};
///
/// let k = Label::from_index(0);
/// let name = Faceted::split(k, Faceted::leaf("Carol's party"), Faceted::leaf("Private event"));
/// let guest = View::from_labels([k]);
/// assert_eq!(name.project(&guest), &"Carol's party");
/// assert_eq!(name.project(&View::empty()), &"Private event");
/// ```
pub struct Faceted<T: Facet>(pub(crate) Arc<Node<T>>);

pub(crate) struct Node<T: Facet> {
    pub(crate) id: u64,
    pub(crate) kind: NodeKind<T>,
}

pub(crate) enum NodeKind<T: Facet> {
    Leaf(T),
    Split {
        label: Label,
        high: Faceted<T>,
        low: Faceted<T>,
    },
}

impl<T: Facet> Clone for Faceted<T> {
    fn clone(&self) -> Faceted<T> {
        Faceted(Arc::clone(&self.0))
    }
}

impl<T: Facet> PartialEq for Faceted<T> {
    fn eq(&self, other: &Faceted<T>) -> bool {
        // Hash-consing makes canonical nodes unique: semantic equality
        // *is* node identity.
        self.0.id == other.0.id
    }
}

impl<T: Facet> Eq for Faceted<T> {}

impl<T: Facet> Hash for Faceted<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.id);
    }
}

impl<T: Facet + fmt::Debug> fmt::Debug for Faceted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.kind {
            NodeKind::Leaf(v) => write!(f, "{v:?}"),
            NodeKind::Split { label, high, low } => {
                write!(f, "⟨{label:?} ? {high:?} : {low:?}⟩")
            }
        }
    }
}

impl<T: Facet> From<T> for Faceted<T> {
    fn from(value: T) -> Faceted<T> {
        Faceted::leaf(value)
    }
}

impl<T: Facet> Faceted<T> {
    /// Wraps a plain value as a faceted leaf (interned: equal values
    /// share one node).
    #[must_use]
    pub fn leaf(value: T) -> Faceted<T> {
        store_of::<T>().leaf(value)
    }

    /// The interned node id: unique per canonical value within this
    /// process. Two faceted values are semantically equal iff their
    /// node ids are equal.
    #[must_use]
    pub fn node_id(&self) -> u64 {
        self.0.id
    }

    /// Crate-internal structural access (the persistence walker needs
    /// the children of a split without re-deriving them by cofactor).
    pub(crate) fn kind(&self) -> &NodeKind<T> {
        &self.0.kind
    }

    /// If this value is a plain (non-faceted) leaf, returns it.
    #[must_use]
    pub fn as_leaf(&self) -> Option<&T> {
        match &self.0.kind {
            NodeKind::Leaf(v) => Some(v),
            NodeKind::Split { .. } => None,
        }
    }

    /// Whether the value carries no facets at all.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.as_leaf().is_some()
    }

    /// The root label, if the value is split.
    #[must_use]
    pub fn root_label(&self) -> Option<Label> {
        match &self.0.kind {
            NodeKind::Leaf(_) => None,
            NodeKind::Split { label, .. } => Some(*label),
        }
    }

    /// Projects the value under view `L`: the paper's `L(V)`.
    ///
    /// Walks one root-to-leaf path choosing the high facet when `L`
    /// sees the label and the low facet otherwise.
    #[must_use]
    pub fn project(&self, view: &View) -> &T {
        let mut cur = self;
        loop {
            match &cur.0.kind {
                NodeKind::Leaf(v) => return v,
                NodeKind::Split { label, high, low } => {
                    cur = if view.sees(*label) { high } else { low };
                }
            }
        }
    }

    /// Collects every label occurring in the value, in id order.
    ///
    /// The walk visits every *node* once (shared sub-structure is not
    /// revisited) and accumulates into a `BTreeSet`, so the result is
    /// sorted and deduplicated by construction.
    #[must_use]
    pub fn labels(&self) -> Vec<Label> {
        fn walk<T: Facet>(n: &Faceted<T>, seen: &mut HashSet<u64>, out: &mut BTreeSet<Label>) {
            if !seen.insert(n.0.id) {
                return;
            }
            if let NodeKind::Split { label, high, low } = &n.0.kind {
                out.insert(*label);
                walk(high, seen, out);
                walk(low, seen, out);
            }
        }
        let mut out = BTreeSet::new();
        walk(self, &mut HashSet::new(), &mut out);
        out.into_iter().collect()
    }

    /// Iterates over `(guard, leaf)` pairs: every leaf together with
    /// the branch set describing which views reach it.
    #[must_use]
    pub fn leaves(&self) -> Vec<(Branches, &T)> {
        fn walk<'a, T: Facet>(n: &'a Faceted<T>, pc: &Branches, out: &mut Vec<(Branches, &'a T)>) {
            match &n.0.kind {
                NodeKind::Leaf(v) => out.push((pc.clone(), v)),
                NodeKind::Split { label, high, low } => {
                    walk(high, &pc.with(Branch::pos(*label)), out);
                    walk(low, &pc.with(Branch::neg(*label)), out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &Branches::new(), &mut out);
        out
    }

    /// Number of leaves (the "facet blowup" measure used by the Early
    /// Pruning experiments). Counts root-to-leaf *paths*; on the
    /// hash-consed DAG this is computed in one pass over distinct
    /// nodes, saturating instead of overflowing.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        fn walk<T: Facet>(n: &Faceted<T>, memo: &mut HashMap<u64, usize>) -> usize {
            if let Some(&c) = memo.get(&n.0.id) {
                return c;
            }
            let c = match &n.0.kind {
                NodeKind::Leaf(_) => 1,
                NodeKind::Split { high, low, .. } => {
                    walk(high, memo).saturating_add(walk(low, memo))
                }
            };
            memo.insert(n.0.id, c);
            c
        }
        walk(self, &mut HashMap::new())
    }

    /// The canonical facet constructor `⟨⟨k ? high : low⟩⟩` (§4.2).
    ///
    /// Partially evaluates both sides under the assumption `k = true`
    /// (resp. `false`), merges identical results, and keeps label order
    /// canonical — so `⟨k ? v : v⟩` collapses to `v` and a label never
    /// guards itself twice along a path.
    #[must_use]
    pub fn split(label: Label, high: Faceted<T>, low: Faceted<T>) -> Faceted<T> {
        let store = store_of::<T>();
        let high = high.assume_in(store, label, true);
        let low = low.assume_in(store, label, false);
        Faceted::ite_in(store, label, &high, &low)
    }

    /// Internal: builds `if label then high else low` assuming `label`
    /// no longer occurs in either argument, restoring canonical label
    /// order by BDD-style merging. Memoized in the store's computed
    /// table.
    fn ite_in(store: &Store<T>, label: Label, high: &Faceted<T>, low: &Faceted<T>) -> Faceted<T> {
        if high == low {
            return high.clone();
        }
        let key = (label, high.0.id, low.0.id);
        if let Some(hit) = store.ite_cached(key) {
            return hit;
        }
        // Find the smallest label that must sit at the root.
        let mut top = label;
        if let Some(l) = high.root_label() {
            top = top.min(l);
        }
        if let Some(l) = low.root_label() {
            top = top.min(l);
        }
        let out = if top == label {
            store.split(label, high, low)
        } else {
            let h = Faceted::ite_in(
                store,
                label,
                &high.cofactor(top, true),
                &low.cofactor(top, true),
            );
            let l = Faceted::ite_in(
                store,
                label,
                &high.cofactor(top, false),
                &low.cofactor(top, false),
            );
            Faceted::mk_in(store, top, h, l)
        };
        store.ite_insert(key, out.clone());
        out
    }

    /// Internal: node constructor that merges equal children. Children
    /// must already be free of `label` and canonically ordered below it.
    fn mk_in(store: &Store<T>, label: Label, high: Faceted<T>, low: Faceted<T>) -> Faceted<T> {
        if high == low {
            high
        } else {
            store.split(label, &high, &low)
        }
    }

    /// Internal: the subtree reached when `label` takes `polarity`,
    /// *if* `label` is at the root; otherwise the value itself (which
    /// then cannot mention `label` above any occurrence — only valid
    /// when `label ≤` every root label, as in canonical recursion).
    /// Used by both the `ite` and the `zip_with` recursions.
    fn cofactor(&self, label: Label, polarity: bool) -> Faceted<T> {
        match &self.0.kind {
            NodeKind::Split {
                label: l,
                high,
                low,
            } if *l == label => {
                if polarity {
                    high.clone()
                } else {
                    low.clone()
                }
            }
            _ => self.clone(),
        }
    }

    /// Partially evaluates the value under the assumption
    /// `label = polarity`, removing every decision on `label`.
    #[must_use]
    pub fn assume(&self, label: Label, polarity: bool) -> Faceted<T> {
        self.assume_in(store_of::<T>(), label, polarity)
    }

    fn assume_in(&self, store: &Store<T>, label: Label, polarity: bool) -> Faceted<T> {
        match &self.0.kind {
            NodeKind::Leaf(_) => self.clone(),
            NodeKind::Split {
                label: l,
                high,
                low,
            } => {
                if label < *l {
                    // Canonical ordering: labels strictly increase on
                    // the way down, so `label` cannot occur below.
                    return self.clone();
                }
                if *l == label {
                    // Canonical form guarantees the child is already
                    // free of `label`.
                    return if polarity { high.clone() } else { low.clone() };
                }
                let key = (self.0.id, label, polarity);
                if let Some(hit) = store.assume_cached(key) {
                    return hit;
                }
                let h = high.assume_in(store, label, polarity);
                let w = low.assume_in(store, label, polarity);
                let out = if h == *high && w == *low {
                    self.clone()
                } else {
                    Faceted::mk_in(store, *l, h, w)
                };
                store.assume_insert(key, out.clone());
                out
            }
        }
    }

    /// Partially evaluates under every branch in `pc` (used when a
    /// value flows into a context already guarded by `pc`).
    #[must_use]
    pub fn assume_all(&self, pc: &Branches) -> Faceted<T> {
        let store = store_of::<T>();
        let mut cur = self.clone();
        for b in pc.iter() {
            cur = cur.assume_in(store, b.label(), b.is_positive());
        }
        cur
    }

    /// The n-ary facet constructor `⟨⟨B ? v_high : v_low⟩⟩` over a set
    /// of branches (§4.2): observers satisfying every branch of `B` see
    /// `high`, all others see `low`.
    #[must_use]
    pub fn split_branches(branches: &Branches, high: Faceted<T>, low: Faceted<T>) -> Faceted<T> {
        // ⟨⟨∅ ? H : L⟩⟩ = H;
        // ⟨⟨{k}∪B ? H : L⟩⟩  = ⟨⟨k ? ⟨⟨B ? H : L⟩⟩ : L⟩⟩
        // ⟨⟨{¬k}∪B ? H : L⟩⟩ = ⟨⟨k ? L : ⟨⟨B ? H : L⟩⟩⟩⟩
        let mut acc = high;
        for b in branches.iter().rev() {
            acc = if b.is_positive() {
                Faceted::split(b.label(), acc, low.clone())
            } else {
                Faceted::split(b.label(), low.clone(), acc)
            };
        }
        acc
    }

    /// Applies a function to every leaf, preserving facet structure
    /// (the `F-STRICT` rule for unary operators).
    ///
    /// `f` must be pure: thanks to node sharing it runs once per
    /// *distinct* leaf, not once per facet path.
    #[must_use]
    pub fn map<U: Facet>(&self, f: &mut impl FnMut(&T) -> U) -> Faceted<U> {
        fn walk<T: Facet, U: Facet>(
            n: &Faceted<T>,
            store: &Store<U>,
            f: &mut impl FnMut(&T) -> U,
            memo: &mut HashMap<u64, Faceted<U>>,
        ) -> Faceted<U> {
            if let Some(hit) = memo.get(&n.0.id) {
                return hit.clone();
            }
            let out = match &n.0.kind {
                NodeKind::Leaf(v) => store.leaf(f(v)),
                NodeKind::Split { label, high, low } => {
                    let h = walk(high, store, f, memo);
                    let l = walk(low, store, f, memo);
                    Faceted::mk_in(store, *label, h, l)
                }
            };
            memo.insert(n.0.id, out.clone());
            out
        }
        let store = store_of::<U>();
        // A leaf needs no memo map: `f` runs exactly once either way.
        if let NodeKind::Leaf(v) = &self.0.kind {
            return store.leaf(f(v));
        }
        walk(self, store, f, &mut HashMap::new())
    }

    /// [`Faceted::map`] memoized *across calls*: the result is kept in
    /// the output store's `map` computed table under `(this node, the
    /// type of f, key)`, so mapping the same value with the same
    /// function again is one table probe. Values built once and read
    /// by every request — a stored object whose fields the policies
    /// project — are what this is for.
    ///
    /// `key` must determine everything `f` captures (a closure
    /// projecting column `i` passes `i`): two calls with the same
    /// closure type and key must compute the same function. The table
    /// is bypassed while [`crate::set_memoization`] is off and cleared
    /// by [`crate::collect_garbage`] of the output type.
    #[must_use]
    pub fn map_memo<U: Facet, F: FnMut(&T) -> U + 'static>(
        &self,
        key: u64,
        mut f: F,
    ) -> Faceted<U> {
        let store = store_of::<U>();
        let memo_key = (self.0.id, TypeId::of::<F>(), key);
        if let Some(hit) = store.map_cached(memo_key) {
            return hit;
        }
        let out = self.map(&mut f);
        store.map_insert(memo_key, out.clone());
        out
    }

    /// Applies a binary function across two faceted values, aligning
    /// their facets (the `F-STRICT` rule for binary operators, e.g.
    /// `⟨k ? 1 : 2⟩ + ⟨l ? 10 : 20⟩`).
    ///
    /// `f` must be pure: it runs once per distinct *pair* of aligned
    /// sub-values (a per-call computed table collapses the recursion
    /// over shared structure).
    #[must_use]
    pub fn zip_with<U: Facet, V: Facet>(
        &self,
        other: &Faceted<U>,
        f: &mut impl FnMut(&T, &U) -> V,
    ) -> Faceted<V> {
        fn walk<T: Facet, U: Facet, V: Facet>(
            a: &Faceted<T>,
            b: &Faceted<U>,
            store: &Store<V>,
            f: &mut impl FnMut(&T, &U) -> V,
            memo: &mut HashMap<(u64, u64), Faceted<V>>,
        ) -> Faceted<V> {
            if let Some(hit) = memo.get(&(a.0.id, b.0.id)) {
                return hit.clone();
            }
            let out = match (&a.0.kind, &b.0.kind) {
                (NodeKind::Leaf(x), NodeKind::Leaf(y)) => store.leaf(f(x, y)),
                _ => {
                    let la = a.root_label();
                    let lb = b.root_label();
                    let top = match (la, lb) {
                        (Some(x), Some(y)) => x.min(y),
                        (Some(x), None) => x,
                        (None, Some(y)) => y,
                        (None, None) => unreachable!("both leaves handled above"),
                    };
                    let h = walk(
                        &a.cofactor(top, true),
                        &b.cofactor(top, true),
                        store,
                        f,
                        memo,
                    );
                    let l = walk(
                        &a.cofactor(top, false),
                        &b.cofactor(top, false),
                        store,
                        f,
                        memo,
                    );
                    Faceted::mk_in(store, top, h, l)
                }
            };
            memo.insert((a.0.id, b.0.id), out.clone());
            out
        }
        let store = store_of::<V>();
        if let (NodeKind::Leaf(x), NodeKind::Leaf(y)) = (&self.0.kind, &other.0.kind) {
            return store.leaf(f(x, y));
        }
        walk(self, other, store, f, &mut HashMap::new())
    }

    /// Monadic bind: substitutes a faceted computation for every leaf
    /// and re-canonicalizes (used for faceted function application
    /// where the function itself returns faceted results).
    ///
    /// `f` must be pure: it runs once per distinct leaf.
    #[must_use]
    pub fn and_then<U: Facet>(&self, f: &mut impl FnMut(&T) -> Faceted<U>) -> Faceted<U> {
        fn walk<T: Facet, U: Facet>(
            n: &Faceted<T>,
            f: &mut impl FnMut(&T) -> Faceted<U>,
            memo: &mut HashMap<u64, Faceted<U>>,
        ) -> Faceted<U> {
            if let Some(hit) = memo.get(&n.0.id) {
                return hit.clone();
            }
            let out = match &n.0.kind {
                NodeKind::Leaf(v) => f(v),
                NodeKind::Split { label, high, low } => {
                    let h = walk(high, f, memo);
                    let l = walk(low, f, memo);
                    Faceted::split(*label, h, l)
                }
            };
            memo.insert(n.0.id, out.clone());
            out
        }
        if let NodeKind::Leaf(v) = &self.0.kind {
            return f(v);
        }
        walk(self, f, &mut HashMap::new())
    }

    /// Projects under a *partial* assignment of labels: labels the
    /// assignment does not mention keep their facet structure.
    #[must_use]
    pub fn project_partial(&self, assignment: &Branches) -> Faceted<T> {
        self.assume_all(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> Label {
        Label::from_index(i)
    }

    #[test]
    fn leaf_projects_to_itself() {
        let v = Faceted::leaf(42);
        assert_eq!(*v.project(&View::empty()), 42);
        assert!(v.is_leaf());
    }

    #[test]
    fn split_projects_by_view() {
        let v = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        assert_eq!(*v.project(&View::from_labels([k(0)])), 1);
        assert_eq!(*v.project(&View::empty()), 2);
    }

    #[test]
    fn equal_facets_collapse() {
        let v = Faceted::split(k(0), Faceted::leaf(7), Faceted::leaf(7));
        assert!(v.is_leaf());
        assert_eq!(v, Faceted::leaf(7));
    }

    #[test]
    fn nested_same_label_resolves() {
        // ⟨k ? ⟨k ? 1 : 2⟩ : 3⟩ ≡ ⟨k ? 1 : 3⟩
        let inner = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        let v = Faceted::split(k(0), inner, Faceted::leaf(3));
        assert_eq!(v, Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(3)));
    }

    #[test]
    fn split_restores_label_order() {
        // Building ⟨k1 ? ... ⟩ under k0-children must keep k0 at the root.
        let a = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        let b = Faceted::split(k(0), Faceted::leaf(3), Faceted::leaf(4));
        let v = Faceted::split(k(1), a, b);
        assert_eq!(v.root_label(), Some(k(0)));
        // Check all four views agree with the naive semantics.
        for (sees0, sees1, expect) in [
            (true, true, 1),
            (true, false, 3),
            (false, true, 2),
            (false, false, 4),
        ] {
            let mut view = View::empty();
            if sees0 {
                view.insert(k(0));
            }
            if sees1 {
                view.insert(k(1));
            }
            assert_eq!(*v.project(&view), expect);
        }
    }

    #[test]
    fn map_preserves_structure_and_merges() {
        let v = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        let doubled = v.map(&mut |x| x * 2);
        assert_eq!(*doubled.project(&View::from_labels([k(0)])), 2);
        assert_eq!(*doubled.project(&View::empty()), 4);
        let merged = v.map(&mut |_| 0);
        assert!(merged.is_leaf());
    }

    #[test]
    fn zip_with_aligns_facets() {
        let a = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        let b = Faceted::split(k(1), Faceted::leaf(10), Faceted::leaf(20));
        let sum = a.zip_with(&b, &mut |x, y| x + y);
        for (s0, s1, expect) in [
            (true, true, 11),
            (true, false, 21),
            (false, true, 12),
            (false, false, 22),
        ] {
            let mut view = View::empty();
            if s0 {
                view.insert(k(0));
            }
            if s1 {
                view.insert(k(1));
            }
            assert_eq!(*sum.project(&view), expect, "view ({s0},{s1})");
        }
    }

    #[test]
    fn zip_with_same_label_stays_linear() {
        let a = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        let b = Faceted::split(k(0), Faceted::leaf(10), Faceted::leaf(20));
        let sum = a.zip_with(&b, &mut |x, y| x + y);
        assert_eq!(
            sum,
            Faceted::split(k(0), Faceted::leaf(11), Faceted::leaf(22))
        );
        assert_eq!(sum.leaf_count(), 2);
    }

    #[test]
    fn assume_eliminates_label() {
        let v = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        assert_eq!(v.assume(k(0), true), Faceted::leaf(1));
        assert_eq!(v.assume(k(0), false), Faceted::leaf(2));
        assert_eq!(v.assume(k(5), true), v);
    }

    #[test]
    fn split_branches_positive_and_negative() {
        let b = Branches::from_iter([Branch::pos(k(0)), Branch::neg(k(1))]);
        let v = Faceted::split_branches(&b, Faceted::leaf(1), Faceted::leaf(0));
        // Visible only when k0 ∈ L and k1 ∉ L.
        assert_eq!(*v.project(&View::from_labels([k(0)])), 1);
        assert_eq!(*v.project(&View::from_labels([k(0), k(1)])), 0);
        assert_eq!(*v.project(&View::empty()), 0);
        assert_eq!(*v.project(&View::from_labels([k(1)])), 0);
    }

    #[test]
    fn split_branches_empty_is_high() {
        let v = Faceted::split_branches(&Branches::new(), Faceted::leaf(1), Faceted::leaf(0));
        assert_eq!(v, Faceted::leaf(1));
    }

    #[test]
    fn and_then_grafts_and_canonicalizes() {
        let v = Faceted::split(k(1), Faceted::leaf(true), Faceted::leaf(false));
        let w = v.and_then(&mut |b| {
            if *b {
                Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2))
            } else {
                Faceted::leaf(2)
            }
        });
        // Result must be canonically ordered with k0 at the root.
        assert_eq!(w.root_label(), Some(k(0)));
        assert_eq!(*w.project(&View::from_labels([k(0), k(1)])), 1);
        assert_eq!(*w.project(&View::from_labels([k(1)])), 2);
        assert_eq!(*w.project(&View::empty()), 2);
    }

    #[test]
    fn leaves_enumerates_guards() {
        let v = Faceted::split(k(0), Faceted::leaf(1), Faceted::leaf(2));
        let leaves = v.leaves();
        assert_eq!(leaves.len(), 2);
        assert!(leaves[0].0.contains(Branch::pos(k(0))));
        assert!(leaves[1].0.contains(Branch::neg(k(0))));
    }

    #[test]
    fn labels_are_sorted_and_deduped() {
        let a = Faceted::split(k(1), Faceted::leaf(1), Faceted::leaf(2));
        let v = Faceted::split(k(0), a, Faceted::leaf(3));
        assert_eq!(v.labels(), vec![k(0), k(1)]);
    }

    #[test]
    fn identical_children_merge_even_when_faceted() {
        let a = Faceted::split(k(1), Faceted::leaf(1), Faceted::leaf(2));
        let v = Faceted::split(k(0), a.clone(), a.clone());
        assert_eq!(v, a);
    }

    #[test]
    fn hash_consing_shares_equal_values() {
        let a = Faceted::split(k(0), Faceted::leaf(100), Faceted::leaf(200));
        let b = Faceted::split(k(0), Faceted::leaf(100), Faceted::leaf(200));
        assert_eq!(a.node_id(), b.node_id(), "equal values share one node");
        // Equal values built along *different* routes also share.
        let c = Faceted::split(k(1), a.clone(), a.clone());
        assert_eq!(c.node_id(), a.node_id());
    }

    #[test]
    fn counting_lattice_stays_polynomial() {
        // A faceted count over n independent singleton guards has 2^n
        // facet paths but only O(n^2) distinct sub-values; interning
        // stores the DAG, and leaf_count still reports the paths.
        let n = 24;
        let mut acc = Faceted::leaf(0i64);
        for i in 0..n {
            let bumped = acc.map(&mut |c| c + 1);
            acc = Faceted::split(k(i), bumped, acc);
        }
        assert_eq!(acc.leaf_count(), 1usize << n);
        assert_eq!(acc.labels().len(), n as usize);
        let all = View::from_labels((0..n).map(k));
        assert_eq!(*acc.project(&all), i64::from(n));
        assert_eq!(*acc.project(&View::empty()), 0);
    }
}
