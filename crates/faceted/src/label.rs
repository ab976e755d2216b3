//! Labels: the guards of faceted values.
//!
//! A [`Label`] corresponds to the Boolean variable `k` in the paper's
//! faceted value `⟨k ? v_high : v_low⟩`. A label is its allocation
//! index and nothing more: like the fresh variable of `label k in e`
//! (rule `F-LABEL`) it has no name, and whoever allocates labels keeps
//! the counter. The index doubles as the (arbitrary but fixed) total
//! order used to keep faceted-value trees canonical.

use std::fmt;

/// An information-flow label (the `k` of `⟨k ? e_H : e_L⟩`).
///
/// Labels are copyable handles around their allocation index. The
/// derived ordering (by index) is the canonical variable order for
/// faceted-value trees.
///
/// # Examples
///
/// ```
/// use faceted::Label;
///
/// let (k, l) = (Label::from_index(0), Label::from_index(1));
/// assert_eq!(k.index(), 0);
/// assert!(k < l);
/// assert_eq!(k.to_string(), "k0");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

impl Label {
    /// Returns the allocation index of this label.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The label of allocation index `ix` — how an allocator mints
    /// one, and how a stored index (a `jvars` column, a binding row)
    /// becomes a label again.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let a = Label::from_index(3);
        assert_eq!(Label::from_index(a.index()), a);
        assert!(Label::from_index(2) < a);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Label::from_index(7)), "k7");
        assert_eq!(format!("{:?}", Label::from_index(7)), "k7");
    }
}
