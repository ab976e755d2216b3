//! Logical objects: reconstruction of facet structure from guarded
//! physical rows, and flattening back.

use faceted::{Branches, Faceted, Label};
use microdb::{Row, Value};

use crate::error::{FormError, FormResult};

/// One physical row of a logical object, with its parsed guard. The
/// `fields` exclude the meta columns.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardedRow {
    /// Logical object id.
    pub jid: i64,
    /// Which views see this row (parsed `jvars`).
    pub guard: Branches,
    /// The user-visible columns.
    pub fields: Row,
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
    rebuild_rows(jid, rows.iter().map(|(g, r)| (g, r)))
}

/// [`rebuild_object`] over borrowed rows: each row is cloned once,
/// into its leaf, however deep the facet tree.
pub(crate) fn rebuild_rows<'a>(
    jid: i64,
    rows: impl IntoIterator<Item = (&'a Branches, &'a Row)>,
) -> FormResult<FacetedObject> {
    // Drop internally contradictory guards: no view can see them.
    let live: Vec<(&Branches, &Row)> = rows
        .into_iter()
        .filter(|(g, _)| g.is_consistent())
        .collect();
    rebuild(jid, &live, None)
}

/// Splits on the smallest label above `decided` — the labels at or
/// below it were fixed by the path to this node (the split labels
/// increase along it), so reading guards only above `decided` is
/// reading them with those branches stripped.
fn rebuild(
    jid: i64,
    rows: &[(&Branches, &Row)],
    decided: Option<Label>,
) -> FormResult<FacetedObject> {
    if rows.is_empty() {
        return Ok(Faceted::leaf(None));
    }
    let open = |l: &Label| decided.is_none_or(|d| *l > d);
    let label: Option<Label> = rows.iter().flat_map(|(g, _)| g.labels().filter(open)).min();
    let Some(k) = label else {
        if rows.len() > 1 {
            return Err(FormError::FacetConflict { jid });
        }
        return Ok(Faceted::leaf(Some(rows[0].1.clone())));
    };
    let side = |polarity: bool| -> Vec<(&Branches, &Row)> {
        rows.iter()
            .filter(|(g, _)| g.polarity_of(k) != Some(!polarity))
            .copied()
            .collect()
    };
    let high = rebuild(jid, &side(true), Some(k))?;
    let low = rebuild(jid, &side(false), Some(k))?;
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
