//! Request sessions: the Early Pruning fast path (§3.2).
//!
//! "Two properties of web programs make this analysis simple. First,
//! the session user is often the viewing context. Second, computation
//! sinks are easy to identify" — so for a "get" request Jacqueline
//! speculates that the session user is the viewer and resolves each
//! label's policy *once, eagerly*, pruning all other facets instead
//! of carrying them through the whole computation.

use std::collections::hash_map::Entry;

use faceted::{Branch, Branches, Faceted, FacetedList, IdHashMap, Label};
use form::{FacetedObject, GuardedRow};
use microdb::Row;

use crate::app::App;
use crate::model::Viewer;

/// A per-request session: the speculated viewer plus the label
/// assignment resolved so far.
///
/// Each label's policy is evaluated at most once per request — the
/// reason Jacqueline can beat hand-coded checks that re-run per use
/// site (§6.3.2).
#[derive(Clone, Debug)]
pub struct Session {
    viewer: Viewer,
    /// Every label this session has touched: `Some(verdict)` once
    /// resolved, `None` while its policy is still being evaluated.
    /// Labels are minted by the process, so the map uses the cheap id
    /// hasher.
    verdicts: IdHashMap<Label, Option<bool>>,
}

impl Session {
    /// Starts a request session for a (speculated) viewer.
    #[must_use]
    pub fn new(viewer: Viewer) -> Session {
        Session {
            viewer,
            verdicts: IdHashMap::default(),
        }
    }

    /// The session's viewer.
    #[must_use]
    pub fn viewer(&self) -> &Viewer {
        &self.viewer
    }

    /// The branches resolved so far (the pruning constraint).
    #[must_use]
    pub fn constraint(&self) -> Branches {
        let mut branches = Branches::new();
        for (&label, verdict) in &self.verdicts {
            match verdict {
                Some(true) => branches.insert(Branch::pos(label)),
                Some(false) => branches.insert(Branch::neg(label)),
                None => {}
            }
        }
        branches
    }

    /// Resolves one label for this viewer, caching the outcome.
    ///
    /// Cycles (a policy that depends on its own label, §2.3) resolve
    /// optimistically: assume shown, evaluate, and keep the
    /// assumption only if the policy verdict is consistent with it —
    /// the maximal-true choice of the constraint semantics.
    pub fn resolve(&mut self, app: &App, label: Label) -> bool {
        // One probe both answers a repeat and marks a first resolution
        // in progress. A label still in progress is an optimistic
        // self-reference: tentatively shown.
        match self.verdicts.entry(label) {
            Entry::Occupied(seen) => return seen.get().unwrap_or(true),
            Entry::Vacant(slot) => {
                slot.insert(None);
            }
        }
        let verdict = self.policy_verdict(app, label);
        self.verdicts.insert(label, Some(verdict));
        verdict
    }

    fn policy_verdict(&mut self, app: &App, label: Label) -> bool {
        let Some(entry) = app.policy(label) else {
            return true; // unconstrained labels are shown
        };
        let mut args = crate::model::PolicyArgs {
            row: &entry.row,
            jid: entry.jid,
            viewer: &self.viewer,
            db: &app.db,
        };
        // The verdict may itself be faceted; resolve its labels
        // recursively and project.
        let mut current = (entry.check)(&mut args);
        while let Some(k) = current.root_label() {
            // A self-reference is assumed shown. If the verdict under
            // that assumption is "hidden", the assumption is refuted
            // and the label resolves to hidden (the all-false side is
            // always consistent).
            let polarity = k == label || self.resolve(app, k);
            current = current.assume(k, polarity);
        }
        *current.as_leaf().expect("fully resolved")
    }

    /// Resolves every label guarding the rows and returns the rows
    /// this viewer sees (pruned, concrete). Rows are *borrowed* from
    /// the query result — with the decode cache that result usually
    /// shares the cached snapshot, so a whole page renders without
    /// copying a single field value.
    pub fn view_rows<'r>(&mut self, app: &App, rows: &'r FacetedList<GuardedRow>) -> Vec<&'r Row> {
        let mut out = Vec::new();
        for (guard, row) in rows.iter() {
            if self.guard_holds(app, guard) {
                out.push(&row.fields);
            }
        }
        out
    }

    /// Resolves the labels of one object and projects it.
    pub fn view_object(&mut self, app: &App, obj: &FacetedObject) -> Option<Row> {
        let mut current = obj.clone();
        while let Some(k) = current.root_label() {
            let polarity = self.resolve(app, k);
            current = current.assume(k, polarity);
        }
        current.as_leaf().expect("fully resolved").clone()
    }

    /// Resolves the labels of a faceted scalar and projects it.
    pub fn view_value<T: faceted::Facet>(&mut self, app: &App, v: &Faceted<T>) -> T {
        let mut current = v.clone();
        while let Some(k) = current.root_label() {
            let polarity = self.resolve(app, k);
            current = current.assume(k, polarity);
        }
        current.as_leaf().expect("fully resolved").clone()
    }

    fn guard_holds(&mut self, app: &App, guard: &Branches) -> bool {
        guard
            .iter()
            .all(|b| self.resolve(app, b.label()) == b.is_positive())
    }

    /// Installs this session's resolved constraint as the FORM's
    /// pruning filter, so subsequent queries skip inconsistent facet
    /// rows entirely.
    pub fn enable_db_pruning(&self, app: &mut App) {
        app.db.set_pruning(Some(self.constraint()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{label_for, simple_policy, ModelDef};
    use microdb::{ColumnDef, ColumnType, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn app_with_owner_policy() -> App {
        let mut app = App::new();
        let m = ModelDef::public(
            "note",
            vec![
                ColumnDef::new("owner", ColumnType::Int),
                ColumnDef::new("text", ColumnType::Str),
            ],
        )
        .with_policy(simple_policy(
            "note_owner",
            vec![1],
            |_| vec![Value::from("[private]")],
            |args| args.viewer.user_jid() == args.row[0].as_int(),
        ));
        app.register_model(m).unwrap();
        app
    }

    #[test]
    fn session_resolves_each_label_once() {
        let app = app_with_owner_policy();
        let jid = app
            .create("note", vec![Value::Int(7), Value::from("secret text")])
            .unwrap();
        let obj = app.get("note", jid).unwrap();
        let mut owner = Session::new(Viewer::User(7));
        let row = owner.view_object(&app, &obj).unwrap();
        assert_eq!(row[1], Value::from("secret text"));
        // Second resolution hits the cache (same outcome).
        let row2 = owner.view_object(&app, &obj).unwrap();
        assert_eq!(row, row2);
        assert_eq!(owner.constraint().len(), 1);
    }

    #[test]
    fn session_matches_full_sink_resolution() {
        let app = app_with_owner_policy();
        let jid = app
            .create("note", vec![Value::Int(7), Value::from("secret text")])
            .unwrap();
        let obj = app.get("note", jid).unwrap();
        for viewer in [Viewer::User(7), Viewer::User(8), Viewer::Anonymous] {
            let full = app.show_object(&viewer, &obj);
            let mut s = Session::new(viewer);
            let pruned = s.view_object(&app, &obj);
            assert_eq!(full, pruned);
        }
    }

    #[test]
    fn session_rows_prune_guards() {
        let app = app_with_owner_policy();
        for i in 0..4 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        let rows = app.all("note").unwrap();
        let mut s = Session::new(Viewer::User(2));
        let visible = s.view_rows(&app, &rows);
        assert_eq!(visible.len(), 4, "all rows visible, fields differ");
        let secret_texts: Vec<&Row> = visible
            .iter()
            .copied()
            .filter(|r| r[1] == Value::from("n2"))
            .collect();
        assert_eq!(secret_texts.len(), 1, "only own note shows its text");
    }

    #[test]
    fn db_pruning_reduces_unmarshalled_rows() {
        let mut app = app_with_owner_policy();
        let jid = app
            .create("note", vec![Value::Int(7), Value::from("s")])
            .unwrap();
        let obj = app.get("note", jid).unwrap();
        let mut s = Session::new(Viewer::User(7));
        s.view_object(&app, &obj);
        s.enable_db_pruning(&mut app);
        let rows = app.all("note").unwrap();
        assert_eq!(
            rows.len(),
            1,
            "the inconsistent facet row is never unmarshalled"
        );
        app.db.set_pruning(None);
    }

    #[test]
    fn faceted_scalar_resolution() {
        let app = app_with_owner_policy();
        let jid = app
            .create("note", vec![Value::Int(1), Value::from("s")])
            .unwrap();
        let obj = app.get("note", jid).unwrap();
        let text = form::object_field(&obj, 1);
        let mut s = Session::new(Viewer::Anonymous);
        assert_eq!(s.view_value(&app, &text), Value::from("[private]"));
    }

    /// A policy that reads its own protected field: the owner column
    /// of the live object, which is faceted on the policy's own label.
    fn app_with_self_referential_policy() -> App {
        let mut app = App::new();
        let m = ModelDef::public(
            "note",
            vec![
                ColumnDef::new("owner", ColumnType::Int),
                ColumnDef::new("text", ColumnType::Str),
            ],
        )
        .with_policy(label_for(
            "note_self",
            vec![0, 1],
            |_| vec![Value::Int(-1), Value::from("[private]")],
            |args| {
                let viewer = args.viewer.user_jid();
                let obj = args.db.get("note", args.jid).expect("note exists");
                form::object_field(&obj, 0).map(&mut |owner| owner.as_int() == viewer)
            },
        ));
        app.register_model(m).unwrap();
        app
    }

    #[test]
    fn self_referential_policy_matches_full_sink_resolution() {
        let app = app_with_self_referential_policy();
        let jid = app
            .create("note", vec![Value::Int(7), Value::from("secret text")])
            .unwrap();
        let obj = app.get("note", jid).unwrap();
        // The owner is shown the field; another user, an anonymous
        // viewer and one whose id equals the public facet's owner are
        // not.
        for (viewer, shown) in [
            (Viewer::User(7), true),
            (Viewer::User(8), false),
            (Viewer::User(-1), false),
            (Viewer::Anonymous, false),
        ] {
            let full = app.show_object(&viewer, &obj);
            let mut s = Session::new(viewer.clone());
            let pruned = s.view_object(&app, &obj);
            assert_eq!(full, pruned, "{viewer}");
            let text = pruned.expect("object exists")[1].clone();
            assert_eq!(text == Value::from("secret text"), shown, "{viewer}");
        }
    }

    #[test]
    fn each_label_is_checked_once_per_session() {
        const NOTES: usize = 64;
        let calls: Arc<Vec<AtomicUsize>> =
            Arc::new((0..NOTES).map(|_| AtomicUsize::new(0)).collect());
        let counted = Arc::clone(&calls);
        let mut app = App::new();
        let m = ModelDef::public(
            "note",
            vec![
                ColumnDef::new("owner", ColumnType::Int),
                ColumnDef::new("text", ColumnType::Str),
            ],
        )
        .with_policy(label_for(
            "note_counted",
            vec![1],
            |_| vec![Value::from("[private]")],
            move |args| {
                // Jids count from 1.
                let ix = usize::try_from(args.jid - 1).expect("jids start at 1");
                counted[ix].fetch_add(1, Ordering::Relaxed);
                // Shown to the owner, and to the owner of the next
                // note if that note's text is shown: a faceted
                // verdict that resolves another label, and around
                // the ring, eventually this one again.
                let viewer = args.viewer.user_jid();
                if args.row[0].as_int() == viewer {
                    return Faceted::leaf(true);
                }
                let next = i64::try_from((ix + 1) % NOTES + 1).expect("small");
                let obj = args.db.get("note", next).expect("note exists");
                form::object_field(&obj, 1).map(&mut |text| *text != Value::from("[private]"))
            },
        ));
        app.register_model(m).unwrap();
        for i in 0..NOTES {
            let jid = app
                .create(
                    "note",
                    vec![Value::Int(i as i64 % 8), Value::from(format!("n{i}"))],
                )
                .unwrap();
            assert_eq!(jid, i as i64 + 1);
        }

        // One page: the list, then every object again, then one field
        // of each — three uses of every label.
        let mut s = Session::new(Viewer::User(3));
        let rows = app.all("note").unwrap();
        let listed = s.view_rows(&app, &rows).len();
        assert_eq!(listed, NOTES);
        for jid in 1..=NOTES as i64 {
            let obj = app.get("note", jid).unwrap();
            s.view_object(&app, &obj);
            s.view_value(&app, &form::object_field(&obj, 1));
        }
        for (ix, n) in calls.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "label of note {}", ix + 1);
        }
        assert_eq!(s.constraint().len(), NOTES);
    }
}
