//! Logical objects: reconstruction of facet structure from guarded
//! physical rows, and flattening back.

use std::cell::Cell;

use faceted::{Branches, Faceted, Label};
use microdb::{Row, Value};

use crate::error::{FormError, FormResult};

/// One physical row of a logical object, with its parsed guard. The
/// `fields` exclude the meta columns.
///
/// The row also carries its interned `Some(fields)` leaf: the leaf a
/// rebuilt [`FacetedObject`] places under this row's guard, so a
/// rebuild from decoded rows interns no leaf and copies no row.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardedRow {
    /// Logical object id.
    pub jid: i64,
    /// Which views see this row (parsed `jvars`).
    pub guard: Branches,
    /// The user-visible columns.
    pub fields: Row,
    leaf: FacetedObject,
}

impl GuardedRow {
    /// A guarded row of `fields`, with its leaf interned (the row is
    /// copied only if no equal leaf is interned yet).
    #[must_use]
    pub fn new(jid: i64, guard: Branches, fields: Row) -> GuardedRow {
        let mut row = Some(fields);
        let leaf = Faceted::leaf_ref(&row);
        GuardedRow {
            jid,
            guard,
            fields: row.take().unwrap_or_default(),
            leaf,
        }
    }

    /// The row as the interned `Some(fields)` leaf of its object's
    /// facet tree.
    #[must_use]
    pub fn leaf(&self) -> &FacetedObject {
        &self.leaf
    }
}

/// A reconstructed logical object: its facet tree over field rows.
/// `None` leaves mean "absent for these views" (an object can exist
/// for some viewers only, e.g. after a guarded delete).
pub type FacetedObject = Faceted<Option<Row>>;

/// Rebuilds the facet tree of one logical object from its guarded
/// rows (the unmarshalling step of §3.1).
///
/// # Errors
///
/// [`FormError::FacetConflict`] if two rows are visible to the same
/// view — the stored facets are ambiguous.
pub fn rebuild_object(jid: i64, rows: &[(Branches, Row)]) -> FormResult<FacetedObject> {
    let leaves: Vec<FacetedObject> = rows
        .iter()
        .map(|(_, r)| Faceted::leaf(Some(r.clone())))
        .collect();
    rebuild_rows(jid, rows.len(), |i| (&rows[i].0, &leaves[i]))
}

thread_local! {
    /// The rebuild's scratch stack of row positions, kept per thread so
    /// that a rebuild allocates nothing once the stack has grown.
    static SCRATCH: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
}

/// [`rebuild_object`] over `n` rows whose fields are already interned
/// leaves (a decoded [`GuardedRow`]'s [`GuardedRow::leaf`]), row `i`
/// being `row(i)`: no leaf is interned or copied, and the facet tree
/// is built bottom-up over one scratch stack of row positions.
pub(crate) fn rebuild_rows<'a>(
    jid: i64,
    n: usize,
    row: impl Fn(usize) -> (&'a Branches, &'a FacetedObject),
) -> FormResult<FacetedObject> {
    let mut stack = SCRATCH.with(Cell::take);
    stack.clear();
    // Drop internally contradictory guards: no view can see them.
    stack.extend((0..n).filter(|&i| row(i).0.is_consistent()));
    let built = rebuild(jid, &row, &mut stack, 0, None);
    SCRATCH.with(|s| s.set(stack));
    built
}

/// Builds the facet tree of the rows at `stack[start..]`, all of whose
/// guards agree with the branches taken on the way here. Splits on the
/// smallest label above `decided` — the labels at or below it were
/// fixed by the path to this node (the split labels increase along
/// it), so reading guards only above `decided` is reading them with
/// those branches stripped. Each side's rows are pushed above
/// `stack[start..]` and popped once built. The split label sits below
/// every label of both sides, so each split is interned as built,
/// children first.
fn rebuild<'a>(
    jid: i64,
    row: &impl Fn(usize) -> (&'a Branches, &'a FacetedObject),
    stack: &mut Vec<usize>,
    start: usize,
    decided: Option<Label>,
) -> FormResult<FacetedObject> {
    let end = stack.len();
    let open = |l: &Label| decided.is_none_or(|d| *l > d);
    let label = stack[start..]
        .iter()
        .filter_map(|&i| row(i).0.labels().find(open))
        .min();
    let Some(k) = label else {
        return match stack[start..] {
            [] => Ok(Faceted::leaf(None)),
            [i] => Ok(row(i).1.clone()),
            _ => Err(FormError::FacetConflict { jid }),
        };
    };
    let mut side = |polarity: bool| -> FormResult<FacetedObject> {
        for p in start..end {
            if row(stack[p]).0.polarity_of(k) != Some(!polarity) {
                stack.push(stack[p]);
            }
        }
        let built = rebuild(jid, row, stack, end, Some(k));
        stack.truncate(end);
        built
    };
    let high = side(true)?;
    let low = side(false)?;
    Ok(Faceted::split(k, high, low))
}

/// Flattens a facet tree back into guarded rows (the marshalling
/// step): one physical row per reachable `Some` leaf, guarded by the
/// path that reaches it.
#[must_use]
pub fn flatten_object(obj: &FacetedObject) -> Vec<(Branches, Row)> {
    obj.leaves()
        .into_iter()
        .filter_map(|(guard, leaf)| leaf.clone().map(|row| (guard, row)))
        .collect()
}

/// Projects one field of a faceted object (absent objects yield
/// `Value::Null`).
///
/// Memoized on `(object node, index)` in the `Value` node store's
/// computed table ([`Faceted::map_memo`]): policies project the same
/// fields of the same stored objects on every request, and a repeat
/// projection returns the same node without walking the object.
#[must_use]
pub fn object_field(obj: &FacetedObject, index: usize) -> Faceted<Value> {
    obj.map_memo(index as u64, move |row: &Option<Row>| match row {
        Some(r) => r.get(index).cloned().unwrap_or(Value::Null),
        None => Value::Null,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faceted::Branch;

    fn k(i: u32) -> Label {
        Label::from_index(i)
    }

    fn row(s: &str) -> Row {
        vec![Value::from(s)]
    }

    #[test]
    fn single_public_row() {
        let obj = rebuild_object(1, &[(Branches::new(), row("x"))]).unwrap();
        assert_eq!(obj, Faceted::leaf(Some(row("x"))));
    }

    #[test]
    fn paper_table1_two_rows() {
        let rows = vec![
            (
                Branches::new().with(Branch::pos(k(0))),
                row("Carol's party"),
            ),
            (
                Branches::new().with(Branch::neg(k(0))),
                row("Private event"),
            ),
        ];
        let obj = rebuild_object(1, &rows).unwrap();
        assert_eq!(
            obj,
            Faceted::split(
                k(0),
                Faceted::leaf(Some(row("Carol's party"))),
                Faceted::leaf(Some(row("Private event"))),
            )
        );
    }

    #[test]
    fn nested_guards_rebuild() {
        let g = |bs: &[Branch]| Branches::from_iter(bs.iter().copied());
        let rows = vec![
            (g(&[Branch::pos(k(0)), Branch::pos(k(1))]), row("hh")),
            (g(&[Branch::pos(k(0)), Branch::neg(k(1))]), row("hl")),
            (g(&[Branch::neg(k(0))]), row("l")),
        ];
        let obj = rebuild_object(1, &rows).unwrap();
        let round = flatten_object(&obj);
        assert_eq!(round.len(), 3);
        let rebuilt = rebuild_object(1, &round).unwrap();
        assert_eq!(rebuilt, obj);
    }

    #[test]
    fn missing_facet_is_absent() {
        // Only a secret row: public views see no object.
        let rows = vec![(Branches::new().with(Branch::pos(k(0))), row("s"))];
        let obj = rebuild_object(1, &rows).unwrap();
        assert_eq!(
            obj.project(&faceted::View::from_labels([k(0)])),
            &Some(row("s"))
        );
        assert_eq!(obj.project(&faceted::View::empty()), &None);
    }

    #[test]
    fn conflicting_rows_detected() {
        let rows = vec![(Branches::new(), row("a")), (Branches::new(), row("b"))];
        assert_eq!(
            rebuild_object(7, &rows),
            Err(FormError::FacetConflict { jid: 7 })
        );
        // Overlap through partial guards is also a conflict.
        let rows = vec![
            (Branches::new(), row("a")),
            (Branches::new().with(Branch::pos(k(0))), row("b")),
        ];
        assert!(rebuild_object(7, &rows).is_err());
    }

    #[test]
    fn contradictory_guard_rows_ignored() {
        let bad = Branches::from_iter([Branch::pos(k(0)), Branch::neg(k(0))]);
        let rows = vec![(bad, row("ghost")), (Branches::new(), row("real"))];
        let obj = rebuild_object(1, &rows).unwrap();
        assert_eq!(obj, Faceted::leaf(Some(row("real"))));
    }

    #[test]
    fn object_field_handles_absent() {
        let obj = Faceted::split(
            k(0),
            Faceted::leaf(Some(vec![Value::Int(5)])),
            Faceted::leaf(None),
        );
        let f = object_field(&obj, 0);
        assert_eq!(
            f.project(&faceted::View::from_labels([k(0)])),
            &Value::Int(5)
        );
        assert_eq!(f.project(&faceted::View::empty()), &Value::Null);
    }
}
