//! Faceted aggregation — computed in the runtime, not the database.
//!
//! §3.1.1: "the FORM cannot use existing relational implementations
//! for aggregation … these aggregates would combine values across
//! facets". Instead the runtime folds over the guarded rows, keeping
//! a *faceted* accumulator so each view receives the aggregate over
//! exactly the rows it can see.

use faceted::{Faceted, FacetedList};
use microdb::Value;

use crate::error::{FormError, FormResult};
use crate::object::GuardedRow;

/// Faceted row count: each view sees the number of rows visible to
/// it.
///
/// # Examples
///
/// ```
/// use faceted::{Branch, Branches, FacetedList, Label, View};
/// use form::faceted_count;
///
/// let k = Label::from_index(0);
/// let mut rows = FacetedList::new();
/// rows.push(Branches::new(), "public");
/// rows.push(Branches::new().with(Branch::pos(k)), "secret");
/// let count = faceted_count(&rows);
/// assert_eq!(*count.project(&View::from_labels([k])), 2);
/// assert_eq!(*count.project(&View::empty()), 1);
/// ```
#[must_use]
pub fn faceted_count<T>(rows: &FacetedList<T>) -> Faceted<i64> {
    let mut acc = Faceted::leaf(0i64);
    for (guard, _) in rows.iter() {
        if !guard.is_consistent() {
            continue;
        }
        let bumped = acc.map(&mut |n| n + 1);
        acc = Faceted::split_branches(guard, bumped, acc);
    }
    acc
}

/// Faceted sum over an integer column of guarded rows.
///
/// # Errors
///
/// [`FormError::NonNumericAggregate`] if a visible cell is neither an
/// integer nor NULL (NULLs are skipped, SQL-style).
pub fn faceted_sum(rows: &FacetedList<GuardedRow>, column: usize) -> FormResult<Faceted<i64>> {
    let mut acc = Faceted::leaf(0i64);
    for (guard, row) in rows.iter() {
        if !guard.is_consistent() {
            continue;
        }
        let cell = row.fields.get(column).cloned().unwrap_or(Value::Null);
        let add = match cell {
            Value::Int(i) => i,
            Value::Null => 0,
            other => return Err(FormError::NonNumericAggregate(other.to_string())),
        };
        let bumped = acc.map(&mut |n| n + add);
        acc = Faceted::split_branches(guard, bumped, acc);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faceted::{Branch, Branches, Label, View};

    fn k(i: u32) -> Label {
        Label::from_index(i)
    }

    fn grow(guard: Branches, v: i64) -> (Branches, GuardedRow) {
        (
            guard.clone(),
            GuardedRow::new(1, guard, vec![Value::Int(v)]),
        )
    }

    #[test]
    fn count_respects_views() {
        let rows: FacetedList<GuardedRow> = [
            grow(Branches::new(), 1),
            grow(Branches::new().with(Branch::pos(k(0))), 2),
            grow(Branches::new().with(Branch::neg(k(0))), 3),
        ]
        .into_iter()
        .collect();
        let c = faceted_count(&rows);
        assert_eq!(*c.project(&View::from_labels([k(0)])), 2);
        assert_eq!(*c.project(&View::empty()), 2);
    }

    #[test]
    fn sum_respects_views() {
        let rows: FacetedList<GuardedRow> = [
            grow(Branches::new(), 10),
            grow(Branches::new().with(Branch::pos(k(0))), 100),
        ]
        .into_iter()
        .collect();
        let s = faceted_sum(&rows, 0).unwrap();
        assert_eq!(*s.project(&View::from_labels([k(0)])), 110);
        assert_eq!(*s.project(&View::empty()), 10);
    }

    #[test]
    fn sum_rejects_strings() {
        let mut rows = FacetedList::new();
        rows.push(
            Branches::new(),
            GuardedRow::new(1, Branches::new(), vec![Value::from("x")]),
        );
        assert!(faceted_sum(&rows, 0).is_err());
    }

    #[test]
    fn contradictory_guards_do_not_count() {
        let bad = Branches::from_iter([Branch::pos(k(0)), Branch::neg(k(0))]);
        let rows: FacetedList<GuardedRow> = [grow(bad, 5)].into_iter().collect();
        let c = faceted_count(&rows);
        assert_eq!(*c.project(&View::empty()), 0);
        assert_eq!(*c.project(&View::from_labels([k(0)])), 0);
    }
}
