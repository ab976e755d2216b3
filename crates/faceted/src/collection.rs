//! Faceted collections: guarded row sets.
//!
//! The paper deliberately does *not* represent a faceted table as
//! `⟨k ? table T₁ : table T₂⟩` (it would duplicate large tables).
//! Instead a table is a sequence of rows `(B, s)` where the branch set
//! `B` says who can see the row (§4.2). [`FacetedList`] is that
//! representation, generic over the row type, together with the table
//! variant of the `⟨⟨k ? T_H : T_L⟩⟩` join operator including the
//! shared-row optimization.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::branch::{Branch, Branches};
use crate::label::Label;
use crate::view::View;

/// A faceted collection: rows guarded by branch sets.
///
/// This is simultaneously the runtime representation of a faceted
/// database table and of a faceted query result (a "faceted list").
///
/// # Representation
///
/// The rows live behind an `Arc` with copy-on-write mutation:
/// cloning a list is O(1) and shares storage, which is what lets the
/// FORM's decoded-row cache hand the same unmarshalled table to many
/// concurrent requests without per-row copies. A list may also be a
/// *selection*: an ordered list of positions into shared storage,
/// which is how a query result ([`FacetedList::select`]), a filter
/// ([`FacetedList::filter_rows`]) or an Early-Pruning pass
/// ([`FacetedList::prune`]) hands out a subset of a cached table
/// without copying a row. Mutators ([`FacetedList::push`],
/// [`FacetedList::extend_from`], `Extend`, …) first materialize a
/// selection into rows of its own, and copy shared storage only when
/// it is actually shared. Equality and hashing compare the logical
/// rows, so a selection equals its materialized copy.
///
/// # Examples
///
/// ```
/// use faceted::{Branch, Branches, FacetedList, Label, View};
///
/// let k = Label::from_index(0);
/// let mut t = FacetedList::new();
/// t.push(Branches::new().with(Branch::pos(k)), "secret row");
/// t.push(Branches::new(), "public row");
/// assert_eq!(t.project(&View::empty()), vec![&"public row"]);
/// assert_eq!(t.project(&View::from_labels([k])).len(), 2);
/// ```
pub struct FacetedList<T> {
    rows: Arc<Vec<(Branches, T)>>,
    /// `Some(positions)`: the list is these physical positions of
    /// `rows`, in this order. `None`: every row, in order.
    selection: Option<Arc<[usize]>>,
}

// Manual impls: the derives would wrongly require `T: Default` /
// `T: Clone` (the `Arc` clones without cloning rows), and would compare
// storage instead of the rows a selection stands for.
impl<T> Default for FacetedList<T> {
    fn default() -> FacetedList<T> {
        FacetedList::from_vec(Vec::new())
    }
}

impl<T> Clone for FacetedList<T> {
    fn clone(&self) -> FacetedList<T> {
        FacetedList {
            rows: Arc::clone(&self.rows),
            selection: self.selection.clone(),
        }
    }
}

impl<T: PartialEq> PartialEq for FacetedList<T> {
    fn eq(&self, other: &FacetedList<T>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for FacetedList<T> {}

impl<T: Hash> Hash for FacetedList<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for row in self.iter() {
            row.hash(state);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for FacetedList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> FacetedList<T> {
    fn from_vec(rows: Vec<(Branches, T)>) -> FacetedList<T> {
        FacetedList {
            rows: Arc::new(rows),
            selection: None,
        }
    }

    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> FacetedList<T> {
        FacetedList::default()
    }

    /// Creates a collection of unguarded (public) rows.
    pub fn from_public<I: IntoIterator<Item = T>>(rows: I) -> FacetedList<T> {
        FacetedList::from_vec(rows.into_iter().map(|r| (Branches::new(), r)).collect())
    }

    /// Number of rows (across all facets).
    #[must_use]
    pub fn len(&self) -> usize {
        self.selection.as_ref().map_or(self.rows.len(), |s| s.len())
    }

    /// Whether the collection holds no rows at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(guard, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Branches, &T)> {
        (0..self.len()).map(|ix| self.row(ix))
    }

    /// The `(guard, row)` pair at position `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    #[must_use]
    pub fn row(&self, ix: usize) -> (&Branches, &T) {
        let physical = self.selection.as_ref().map_or(ix, |s| s[ix]);
        let (b, r) = &self.rows[physical];
        (b, r)
    }

    /// The rows at `positions` (in that order), sharing this list's
    /// storage: no row is copied. Index-planned queries use this to
    /// address a cached decoded snapshot by the row positions the
    /// planner returned.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of bounds.
    #[must_use]
    pub fn select(&self, positions: &[usize]) -> FacetedList<T> {
        let physical: Arc<[usize]> = match &self.selection {
            None => {
                assert!(
                    positions.iter().all(|&i| i < self.rows.len()),
                    "selected position out of bounds"
                );
                positions.into()
            }
            Some(s) => positions.iter().map(|&i| s[i]).collect(),
        };
        FacetedList {
            rows: Arc::clone(&self.rows),
            selection: Some(physical),
        }
    }

    /// The positions of the rows satisfying `keep`, as a selection (or
    /// a plain clone when every row is kept).
    fn select_where(&self, mut keep: impl FnMut(&Branches, &T) -> bool) -> FacetedList<T> {
        let positions: Vec<usize> = self
            .iter()
            .enumerate()
            .filter(|(_, (b, r))| keep(b, r))
            .map(|(i, _)| i)
            .collect();
        if positions.len() == self.len() {
            return self.clone();
        }
        self.select(&positions)
    }

    /// Whether this list shares row storage with another (clones and
    /// selections of the same underlying rows — the decode cache's
    /// zero-copy fast path).
    #[must_use]
    pub fn shares_rows_with(&self, other: &FacetedList<T>) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// The rows visible to view `L` — the paper's
    /// `L(table T) = {(∅, s) | (B, s) ∈ T, B ∼ L}`.
    #[must_use]
    pub fn project(&self, view: &View) -> Vec<&T> {
        self.iter()
            .filter(|(b, _)| b.visible_to(view))
            .map(|(_, r)| r)
            .collect()
    }

    /// Early Pruning (`F-PRUNE`, §4.4): keeps only rows whose guard is
    /// consistent with the program counter `pc`. The result *shares*
    /// this list's storage (a selection, or a plain clone when every
    /// row survives — the common case for an unconstrained request).
    #[must_use]
    pub fn prune(&self, pc: &Branches) -> FacetedList<T> {
        self.select_where(|b, _| b.consistent_with(pc))
    }

    /// Every label mentioned by any row guard.
    #[must_use]
    pub fn labels(&self) -> Vec<Label> {
        let mut out: Vec<Label> = self.iter().flat_map(|(b, _)| b.labels()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Maps the row type, keeping guards.
    #[must_use]
    pub fn map_rows<U>(&self, mut f: impl FnMut(&T) -> U) -> FacetedList<U> {
        FacetedList::from_vec(self.iter().map(|(b, r)| (b.clone(), f(r))).collect())
    }

    /// Filters rows by a predicate on the row payload, keeping guards
    /// (faceted `WHERE`: because secret and public facets are separate
    /// rows, plain filtering is already flow-correct — §3.1.1). The
    /// result is a selection sharing this list's storage.
    #[must_use]
    pub fn filter_rows(&self, mut pred: impl FnMut(&T) -> bool) -> FacetedList<T> {
        self.select_where(|_, r| pred(r))
    }
}

impl<T: Clone> FacetedList<T> {
    /// The rows as a vector this list owns outright: materializes a
    /// selection, then copies the storage if it is still shared.
    fn rows_mut(&mut self) -> &mut Vec<(Branches, T)> {
        if let Some(selection) = self.selection.take() {
            self.rows = Arc::new(selection.iter().map(|&i| self.rows[i].clone()).collect());
        }
        Arc::make_mut(&mut self.rows)
    }

    /// Appends a guarded row (copy-on-write: clones the storage first
    /// if it is shared).
    pub fn push(&mut self, guard: Branches, row: T) {
        self.rows_mut().push((guard, row));
    }

    /// Replaces the `(guard, row)` pair at position `ix`
    /// (copy-on-write, like [`FacetedList::push`]) — the in-place
    /// patch used when a cached decoded snapshot is repaired from a
    /// table's change deltas instead of rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    pub fn replace_row(&mut self, ix: usize, guard: Branches, row: T) {
        self.rows_mut()[ix] = (guard, row);
    }

    /// Removes the row at position `ix`, shifting later rows up
    /// (copy-on-write). Callers removing several positions must go in
    /// descending order so earlier indices stay valid.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    pub fn remove_row(&mut self, ix: usize) {
        self.rows_mut().remove(ix);
    }

    /// Consumes the collection, yielding its `(guard, row)` pairs
    /// (cloning them only if the storage is shared or selected).
    #[must_use]
    pub fn into_rows(mut self) -> Vec<(Branches, T)> {
        if self.selection.is_some() {
            return std::mem::take(self.rows_mut());
        }
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Appends another collection (the `F-UNION` rule: plain
    /// concatenation of guarded rows).
    pub fn extend_from(&mut self, other: FacetedList<T>) {
        self.rows_mut().extend(other.into_rows());
    }
}

impl<T: Clone + Ord> FacetedList<T> {
    /// The table variant of `⟨⟨k ? T_H : T_L⟩⟩` (§4.2), with the
    /// shared-row optimization:
    ///
    /// * rows present in both sides are stored once, unguarded by `k`;
    /// * rows only in the high side gain branch `k` (unless they
    ///   already carry `¬k`, in which case no view could see them);
    /// * rows only in the low side gain `¬k` symmetrically.
    #[must_use]
    pub fn facet_join(label: Label, high: &FacetedList<T>, low: &FacetedList<T>) -> FacetedList<T> {
        // Multiset intersection by sort-merge over (guard, row) pairs.
        let mut hi: Vec<(Branches, T)> = high.clone().into_rows();
        let mut lo: Vec<(Branches, T)> = low.clone().into_rows();
        hi.sort();
        lo.sort();
        let mut shared: Vec<(Branches, T)> = Vec::new();
        let mut only_high: Vec<(Branches, T)> = Vec::new();
        let mut only_low: Vec<(Branches, T)> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < hi.len() && j < lo.len() {
            match hi[i].cmp(&lo[j]) {
                std::cmp::Ordering::Equal => {
                    shared.push(hi[i].clone());
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    only_high.push(hi[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    only_low.push(lo[j].clone());
                    j += 1;
                }
            }
        }
        only_high.extend_from_slice(&hi[i..]);
        only_low.extend_from_slice(&lo[j..]);

        let mut rows = shared;
        for (b, r) in only_high {
            if !b.contains(Branch::neg(label)) {
                rows.push((b.with(Branch::pos(label)), r));
            }
        }
        for (b, r) in only_low {
            if !b.contains(Branch::pos(label)) {
                rows.push((b.with(Branch::neg(label)), r));
            }
        }
        FacetedList::from_vec(rows)
    }

    /// N-ary `⟨⟨B ? T_H : T_L⟩⟩`, folding [`FacetedList::facet_join`]
    /// over the branch set exactly as the scalar operator does.
    #[must_use]
    pub fn facet_join_branches(
        branches: &Branches,
        high: &FacetedList<T>,
        low: &FacetedList<T>,
    ) -> FacetedList<T> {
        let mut acc = high.clone();
        for b in branches.iter().rev() {
            acc = if b.is_positive() {
                FacetedList::facet_join(b.label(), &acc, low)
            } else {
                FacetedList::facet_join(b.label(), low, &acc)
            };
        }
        acc
    }
}

impl<T> FromIterator<(Branches, T)> for FacetedList<T> {
    fn from_iter<I: IntoIterator<Item = (Branches, T)>>(iter: I) -> FacetedList<T> {
        FacetedList::from_vec(iter.into_iter().collect())
    }
}

impl<T: Clone> IntoIterator for FacetedList<T> {
    type Item = (Branches, T);
    type IntoIter = std::vec::IntoIter<(Branches, T)>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_rows().into_iter()
    }
}

impl<T: Clone> Extend<(Branches, T)> for FacetedList<T> {
    fn extend<I: IntoIterator<Item = (Branches, T)>>(&mut self, iter: I) {
        self.rows_mut().extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> Label {
        Label::from_index(i)
    }

    fn guarded(b: &[Branch], row: &str) -> (Branches, String) {
        (Branches::from_iter(b.iter().copied()), row.to_owned())
    }

    #[test]
    fn paper_example_alice_bob() {
        // ⟨k ? row "Alice" "Smith" : row "Bob" "Jones"⟩ becomes
        //   ({k}, Alice Smith) ; ({¬k}, Bob Jones)
        let high = FacetedList::from_public(["Alice Smith".to_owned()]);
        let low = FacetedList::from_public(["Bob Jones".to_owned()]);
        let t = FacetedList::facet_join(k(0), &high, &low);
        assert_eq!(t.len(), 2);
        assert_eq!(t.project(&View::from_labels([k(0)])), vec!["Alice Smith"]);
        assert_eq!(t.project(&View::empty()), vec!["Bob Jones"]);
    }

    #[test]
    fn shared_rows_are_not_duplicated() {
        let common = guarded(&[], "common");
        let high: FacetedList<String> = [common.clone(), guarded(&[], "secret")]
            .into_iter()
            .collect();
        let low: FacetedList<String> = [common].into_iter().collect();
        let t = FacetedList::facet_join(k(0), &high, &low);
        // "common" kept once unguarded, "secret" guarded by k.
        assert_eq!(t.len(), 2);
        let public = t.project(&View::empty());
        assert_eq!(public, vec!["common"]);
        let mut secret = t.project(&View::from_labels([k(0)]));
        secret.sort();
        assert_eq!(secret, vec!["common", "secret"]);
    }

    #[test]
    fn contradictory_rows_are_dropped_by_join() {
        // A high-side row already carrying ¬k can never be seen on the
        // high side; the paper's definition omits it.
        let high: FacetedList<String> = [guarded(&[Branch::neg(k(0))], "ghost")]
            .into_iter()
            .collect();
        let t = FacetedList::facet_join(k(0), &high, &FacetedList::new());
        assert!(t.is_empty());
    }

    #[test]
    fn facet_join_branches_multi() {
        let high = FacetedList::from_public(["secret".to_owned()]);
        let low = FacetedList::from_public(["public".to_owned()]);
        let b = Branches::from_iter([Branch::pos(k(0)), Branch::neg(k(1))]);
        let t = FacetedList::facet_join_branches(&b, &high, &low);
        assert_eq!(t.project(&View::from_labels([k(0)])), vec!["secret"]);
        assert_eq!(t.project(&View::from_labels([k(0), k(1)])), vec!["public"]);
        assert_eq!(t.project(&View::empty()), vec!["public"]);
    }

    #[test]
    fn prune_keeps_consistent_rows() {
        let t: FacetedList<String> = [
            guarded(&[Branch::pos(k(0))], "high"),
            guarded(&[Branch::neg(k(0))], "low"),
            guarded(&[], "both"),
        ]
        .into_iter()
        .collect();
        let pc = Branches::new().with(Branch::pos(k(0)));
        let pruned = t.prune(&pc);
        assert_eq!(pruned.len(), 2);
        let mut rows = pruned.project(&View::from_labels([k(0)]));
        rows.sort();
        assert_eq!(rows, vec!["both", "high"]);
    }

    #[test]
    fn filter_preserves_guards() {
        let t: FacetedList<i32> = [
            (Branches::new().with(Branch::pos(k(0))), 10),
            (Branches::new().with(Branch::neg(k(0))), 5),
        ]
        .into_iter()
        .collect();
        let big = t.filter_rows(|v| *v > 7);
        assert_eq!(big.len(), 1);
        assert!(big.project(&View::empty()).is_empty());
        assert_eq!(big.project(&View::from_labels([k(0)])), vec![&10]);
    }

    #[test]
    fn clones_share_storage_until_mutation() {
        let mut a: FacetedList<String> =
            [guarded(&[], "x"), guarded(&[], "y")].into_iter().collect();
        let b = a.clone();
        assert!(a.shares_rows_with(&b), "clone is O(1), storage shared");
        // A full-survivor prune also shares.
        let pruned = a.prune(&Branches::new());
        assert!(pruned.shares_rows_with(&a));
        // Mutation copies-on-write: `b` is unaffected.
        a.push(Branches::new(), "z".to_owned());
        assert!(!a.shares_rows_with(&b));
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn selection_equals_its_materialized_copy_and_mutation_copies() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(list: &FacetedList<String>) -> u64 {
            let mut h = DefaultHasher::new();
            list.hash(&mut h);
            h.finish()
        }
        let parent: FacetedList<String> = [
            guarded(&[Branch::pos(k(0))], "a"),
            guarded(&[], "b"),
            guarded(&[Branch::neg(k(0))], "c"),
            guarded(&[], "d"),
        ]
        .into_iter()
        .collect();
        let selected = parent.select(&[3, 1]);
        assert!(selected.shares_rows_with(&parent), "no row copied");
        let copy: FacetedList<String> =
            [guarded(&[], "d"), guarded(&[], "b")].into_iter().collect();
        assert!(!copy.shares_rows_with(&parent));
        assert_eq!(selected, copy, "equality compares logical rows");
        assert_eq!(hash_of(&selected), hash_of(&copy));
        assert_ne!(selected, parent.select(&[1, 3]), "order matters");
        assert_eq!(selected.row(0).1, "d");
        // A selection of a selection composes positions.
        assert_eq!(selected.select(&[1]), parent.select(&[1]));
        // Filters and prunes select too.
        let pruned = parent.prune(&Branches::new().with(Branch::pos(k(0))));
        assert!(pruned.shares_rows_with(&parent));
        assert_eq!(pruned, parent.select(&[0, 1, 3]));
        assert_eq!(parent.filter_rows(|r| r == "c"), parent.select(&[2]));

        // Mutating a selection materializes it; the parent keeps its rows.
        let mut grown = selected.clone();
        grown.push(Branches::new(), "e".to_owned());
        grown.replace_row(0, Branches::new(), "z".to_owned());
        assert!(!grown.shares_rows_with(&parent));
        assert_eq!(
            grown.iter().map(|(_, r)| r.as_str()).collect::<Vec<_>>(),
            vec!["z", "b", "e"]
        );
        assert_eq!(parent.len(), 4);
        assert_eq!(parent.row(3).1, "d");
        assert_eq!(selected, copy, "the selection itself is untouched");
        assert_eq!(selected.clone().into_rows(), copy.into_rows());
    }

    #[test]
    fn labels_collects_all_guards() {
        let t: FacetedList<String> = [
            guarded(&[Branch::pos(k(2))], "a"),
            guarded(&[Branch::neg(k(1))], "b"),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.labels(), vec![k(1), k(2)]);
    }
}
