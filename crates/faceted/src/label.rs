//! Labels: the guards of faceted values.
//!
//! A [`Label`] corresponds to the Boolean variable `k` in the paper's
//! faceted value `⟨k ? v_high : v_low⟩`. Labels are interned in a
//! [`LabelRegistry`]; the numeric id doubles as the (arbitrary but fixed)
//! total order used to keep faceted-value trees canonical.

use std::collections::HashMap;
use std::fmt;

/// An information-flow label (the `k` of `⟨k ? e_H : e_L⟩`).
///
/// Labels are lightweight copyable handles; their human-readable names
/// live in a [`LabelRegistry`]. The derived ordering (by allocation id)
/// is the canonical variable order for faceted-value trees.
///
/// # Examples
///
/// ```
/// use faceted::{Label, LabelRegistry};
///
/// let mut reg = LabelRegistry::new();
/// let k = reg.fresh("k");
/// assert_eq!(reg.name(k), "k");
/// assert!(k < reg.fresh("l"));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

impl Label {
    /// Returns the raw interning index of this label.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Builds a label directly from a raw index.
    ///
    /// Intended for serialization round-trips (e.g. parsing a `jvars`
    /// column); the index should have been produced by
    /// [`Label::index`] on a label from the same registry.
    #[must_use]
    pub fn from_index(ix: u32) -> Label {
        Label(ix)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Interner and allocator for [`Label`]s.
///
/// `fresh` mirrors the paper's `label k in e` construct: it always
/// allocates a new label, uniquifying the requested name if necessary.
/// `intern` returns the existing label of that name if there is one
/// (used when reconstructing labels from database meta-data).
///
/// # Examples
///
/// ```
/// use faceted::LabelRegistry;
///
/// let mut reg = LabelRegistry::new();
/// let a = reg.fresh("paper_author");
/// let b = reg.fresh("paper_author"); // α-renamed, like `label k in e`
/// assert_ne!(a, b);
/// assert_eq!(reg.intern("paper_author"), a);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LabelRegistry {
    names: Vec<String>,
    by_name: HashMap<String, Label>,
}

impl LabelRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> LabelRegistry {
        LabelRegistry::default()
    }

    /// Allocates a fresh label, never reusing an existing one.
    ///
    /// If `name` is already taken the stored name is suffixed with the
    /// allocation index (the dynamic α-renaming of rule `F-LABEL`).
    pub fn fresh(&mut self, name: &str) -> Label {
        let id = u32::try_from(self.names.len()).expect("label space exhausted");
        let label = Label(id);
        let stored = if self.by_name.contains_key(name) {
            format!("{name}'{id}")
        } else {
            name.to_owned()
        };
        self.by_name.insert(stored.clone(), label);
        // Keep the *original* name pointing at its first allocation so
        // that `intern` is stable; the uniquified name maps to the new
        // label.
        self.names.push(stored);
        label
    }

    /// Returns the label already registered under `name`, or allocates
    /// a fresh one.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&l) = self.by_name.get(name) {
            return l;
        }
        self.fresh(name)
    }

    /// Looks up a label by name without allocating.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label` was not allocated by this registry.
    #[must_use]
    pub fn name(&self, label: Label) -> &str {
        &self.names[label.0 as usize]
    }

    /// Number of labels allocated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all allocated labels in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.names.len()).map(|i| Label(i as u32))
    }

    /// Records one *stored* (already-uniquified) name verbatim at
    /// label index `index`, returning the label — how the persistence
    /// layer rebuilds a registry from stored bindings, in any order.
    /// Unlike [`LabelRegistry::fresh`] this never α-renames: it must
    /// reproduce the exporting registry's state bit for bit. Indices
    /// between the current end and `index` are filled with unbound
    /// placeholders (empty names, kept out of name lookups): labels
    /// some allocation took but never made durable, which must stay
    /// allocated so no later label reuses their index.
    pub fn import_at(&mut self, index: u32, stored_name: &str) -> Label {
        let label = Label(index);
        let ix = index as usize;
        if self.names.len() <= ix {
            self.names.resize(ix + 1, String::new());
        }
        self.names[ix] = stored_name.to_owned();
        if !stored_name.is_empty() {
            self.by_name.insert(stored_name.to_owned(), label);
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_labels_are_distinct_and_ordered() {
        let mut reg = LabelRegistry::new();
        let a = reg.fresh("a");
        let b = reg.fresh("b");
        let c = reg.fresh("a");
        assert!(a < b && b < c);
        assert_ne!(a, c);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn intern_reuses_existing_name() {
        let mut reg = LabelRegistry::new();
        let a = reg.intern("x");
        let b = reg.intern("x");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn fresh_alpha_renames_duplicates() {
        let mut reg = LabelRegistry::new();
        let a = reg.fresh("k");
        let b = reg.fresh("k");
        assert_eq!(reg.name(a), "k");
        assert_eq!(reg.name(b), "k'1");
        assert_eq!(reg.get("k"), Some(a));
    }

    #[test]
    fn index_round_trip() {
        let mut reg = LabelRegistry::new();
        let a = reg.fresh("a");
        assert_eq!(Label::from_index(a.index()), a);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Label::from_index(7)), "k7");
        assert_eq!(format!("{:?}", Label::from_index(7)), "k7");
    }

    #[test]
    fn export_import_reproduces_the_registry() {
        let mut reg = LabelRegistry::new();
        let a = reg.fresh("k");
        let b = reg.fresh("k"); // α-renamed to "k'1"
        let c = reg.fresh("other");
        // Import every (index, name) pair, last first.
        let mut back = LabelRegistry::new();
        for l in reg.iter().collect::<Vec<_>>().into_iter().rev() {
            back.import_at(l.index(), reg.name(l));
        }
        assert_eq!(back.len(), reg.len());
        for l in [a, b, c] {
            assert_eq!(back.name(l), reg.name(l));
        }
        assert_eq!(back.get("k"), Some(a));
        assert_eq!(back.get("k'1"), Some(b));
        // Allocation continues where the original left off, so no
        // restored label index can ever be reused.
        assert_eq!(back.fresh("post-restore").index(), 3);
    }

    #[test]
    fn import_at_fills_gaps_with_unbound_placeholders() {
        let mut reg = LabelRegistry::new();
        reg.fresh("a");
        // Index 1 was allocated by a create that never became durable.
        let c = reg.import_at(2, "c");
        assert_eq!(c.index(), 2);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.name(Label::from_index(1)), "");
        assert_eq!(reg.get(""), None, "placeholders stay out of lookups");
        assert_eq!(reg.get("c"), Some(c));
        // The placeholder keeps its index allocated; a later import
        // may still claim it.
        assert_eq!(reg.fresh("d").index(), 3);
        let b = reg.import_at(1, "b");
        assert_eq!(reg.get("b"), Some(b));
        assert_eq!(reg.len(), 4);
    }
}
