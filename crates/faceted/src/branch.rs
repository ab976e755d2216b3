//! Branches and branch sets (program counters / row guards).
//!
//! A [`Branch`] is a label or its negation (`k` / `¬k`). A [`Branches`]
//! value is a set of branches, used both as the program counter `pc` of
//! faceted execution and as the guard `B` attached to each database row
//! in a faceted table. Consistency and visibility are exactly the
//! paper's definitions (§4.2–4.3).

use std::fmt;

use crate::label::Label;
use crate::view::View;

/// A single branch: a label `k` (positive) or its negation `¬k`.
///
/// # Examples
///
/// ```
/// use faceted::{Branch, Label};
///
/// let k = Label::from_index(0);
/// assert_eq!(Branch::pos(k).negate(), Branch::neg(k));
/// assert!(Branch::pos(k).is_positive());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Branch {
    label: Label,
    positive: bool,
}

impl Branch {
    /// The positive branch `k`.
    #[must_use]
    pub fn pos(label: Label) -> Branch {
        Branch {
            label,
            positive: true,
        }
    }

    /// The negative branch `¬k`.
    #[must_use]
    pub fn neg(label: Label) -> Branch {
        Branch {
            label,
            positive: false,
        }
    }

    /// The label this branch constrains.
    #[must_use]
    pub fn label(self) -> Label {
        self.label
    }

    /// Whether this is the positive branch `k` (as opposed to `¬k`).
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.positive
    }

    /// `k` ↦ `¬k` and vice versa.
    #[must_use]
    pub fn negate(self) -> Branch {
        Branch {
            label: self.label,
            positive: !self.positive,
        }
    }

    /// Whether a view `L` satisfies this branch: `k` requires `k ∈ L`,
    /// `¬k` requires `k ∉ L`.
    #[must_use]
    pub fn holds_in(self, view: &View) -> bool {
        view.sees(self.label) == self.positive
    }
}

impl fmt::Debug for Branch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{:?}", self.label)
        } else {
            write!(f, "¬{:?}", self.label)
        }
    }
}

impl fmt::Display for Branch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A set of branches: the program counter `pc` of faceted execution, or
/// the guard `B` of a faceted table row.
///
/// The set may be *inconsistent* (contain both `k` and `¬k`); such a
/// guard denotes a row visible to no principal, which arises naturally
/// from joins (`F-JOIN` unions the guards of both operands).
///
/// Stored as a sorted, deduplicated `Vec`: guards hold a handful of
/// branches, so one contiguous allocation beats a tree of nodes in
/// both memory and lookup time. Iteration is in `Branch` order
/// (label, then polarity), and `Ord` is lexicographic over that
/// order, exactly as for a `BTreeSet`.
///
/// # Examples
///
/// ```
/// use faceted::{Branch, Branches, Label};
///
/// let k = Label::from_index(0);
/// let pc = Branches::new().with(Branch::pos(k));
/// assert!(pc.contains(Branch::pos(k)));
/// assert!(!pc.consistent_with(&Branches::new().with(Branch::neg(k))));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Branches(Vec<Branch>);

impl Branches {
    /// The empty branch set (the initial program counter `∅`).
    #[must_use]
    pub fn new() -> Branches {
        Branches::default()
    }

    /// Returns `self ∪ {b}` (functional update, used when extending the
    /// program counter in `F-SPLIT`).
    #[must_use]
    pub fn with(&self, b: Branch) -> Branches {
        let mut s = self.clone();
        s.insert(b);
        s
    }

    /// Inserts a branch in place.
    pub fn insert(&mut self, b: Branch) {
        if let Err(at) = self.0.binary_search(&b) {
            self.0.insert(at, b);
        }
    }

    /// Returns `self ∪ other`.
    #[must_use]
    pub fn union(&self, other: &Branches) -> Branches {
        self.iter().chain(other.iter()).collect()
    }

    /// Whether the branch `b` is in the set.
    #[must_use]
    pub fn contains(&self, b: Branch) -> bool {
        self.0.binary_search(&b).is_ok()
    }

    /// Whether this set constrains `label` at all (positively or
    /// negatively).
    #[must_use]
    pub fn mentions(&self, label: Label) -> bool {
        self.contains(Branch::pos(label)) || self.contains(Branch::neg(label))
    }

    /// Returns the polarity this set assigns to `label`, if any.
    ///
    /// Returns `None` if the label is unmentioned *or* mentioned with
    /// both polarities (an internally inconsistent guard).
    #[must_use]
    pub fn polarity_of(&self, label: Label) -> Option<bool> {
        match (
            self.contains(Branch::pos(label)),
            self.contains(Branch::neg(label)),
        ) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        }
    }

    /// Whether the set itself is consistent (never contains both `k`
    /// and `¬k`). Sorting puts `¬k` right before `k`, so a
    /// contradiction is two neighbours with the same label.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.0.windows(2).all(|w| w[0].label() != w[1].label())
    }

    /// The paper's "B consistent with pc": no label appears with
    /// opposite polarity in the two sets, and neither set is internally
    /// contradictory.
    ///
    /// Used by `F-FOLD-CONSISTENT` / `F-FOLD-INCONSISTENT` and by the
    /// Early Pruning rule `F-PRUNE`.
    #[must_use]
    pub fn consistent_with(&self, other: &Branches) -> bool {
        if !self.is_consistent() || !other.is_consistent() {
            return false;
        }
        self.0.iter().all(|b| !other.contains(b.negate()))
    }

    /// The paper's visibility relation `B ∼ L`: every positive branch's
    /// label is in the view, every negative branch's label is not.
    #[must_use]
    pub fn visible_to(&self, view: &View) -> bool {
        self.0.iter().all(|b| b.holds_in(view))
    }

    /// Number of branches in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the branches in label order. The iterator is
    /// double-ended, so consumers that fold right-to-left (e.g. the
    /// `⟨⟨B ? · : ·⟩⟩` constructors) can `.rev()` without collecting.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Branch> + '_ {
        self.0.iter().copied()
    }

    /// The set of labels mentioned by this branch set.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.0.iter().map(|b| b.label())
    }
}

impl FromIterator<Branch> for Branches {
    fn from_iter<I: IntoIterator<Item = Branch>>(iter: I) -> Branches {
        let mut v: Vec<Branch> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Branches(v)
    }
}

impl Extend<Branch> for Branches {
    fn extend<I: IntoIterator<Item = Branch>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl fmt::Debug for Branches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> Label {
        Label::from_index(i)
    }

    #[test]
    fn branch_negation_involutive() {
        let b = Branch::pos(k(3));
        assert_eq!(b.negate().negate(), b);
    }

    #[test]
    fn empty_pc_is_consistent_with_everything() {
        let pc = Branches::new();
        let b = Branches::from_iter([Branch::pos(k(0)), Branch::neg(k(1))]);
        assert!(pc.consistent_with(&b));
        assert!(b.consistent_with(&pc));
    }

    #[test]
    fn opposite_polarities_are_inconsistent() {
        let a = Branches::new().with(Branch::pos(k(0)));
        let b = Branches::new().with(Branch::neg(k(0)));
        assert!(!a.consistent_with(&b));
        assert!(a.consistent_with(&a));
    }

    #[test]
    fn internally_contradictory_guard_is_inconsistent_with_all() {
        let bad = Branches::from_iter([Branch::pos(k(0)), Branch::neg(k(0))]);
        assert!(!bad.is_consistent());
        assert!(!bad.consistent_with(&Branches::new()));
        assert!(!Branches::new().consistent_with(&bad));
    }

    #[test]
    fn visibility_matches_polarity() {
        let view = View::from_labels([k(0)]);
        let pos = Branches::new().with(Branch::pos(k(0)));
        let neg = Branches::new().with(Branch::neg(k(0)));
        assert!(pos.visible_to(&view));
        assert!(!neg.visible_to(&view));
        let other = Branches::new().with(Branch::neg(k(1)));
        assert!(other.visible_to(&view));
    }

    #[test]
    fn union_and_mentions() {
        let a = Branches::new().with(Branch::pos(k(0)));
        let b = Branches::new().with(Branch::neg(k(1)));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(u.mentions(k(0)) && u.mentions(k(1)) && !u.mentions(k(2)));
        assert_eq!(u.polarity_of(k(0)), Some(true));
        assert_eq!(u.polarity_of(k(1)), Some(false));
        assert_eq!(u.polarity_of(k(2)), None);
    }

    #[test]
    fn polarity_of_contradictory_label_is_none() {
        let bad = Branches::from_iter([Branch::pos(k(0)), Branch::neg(k(0))]);
        assert_eq!(bad.polarity_of(k(0)), None);
    }
}
