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
use labelsat::{Formula, PolicySet};
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
    /// Every label this session has touched. Labels are minted by the
    /// process, so the map uses the cheap id hasher.
    marks: IdHashMap<Label, Mark>,
    /// Labels whose policy has run while their cycle is still open,
    /// each with its residual verdict, waiting for the cycle's first
    /// visited label to solve them together.
    pending: Vec<(Label, Faceted<bool>)>,
}

/// Where a label stands in a session.
#[derive(Clone, Copy, Debug)]
enum Mark {
    /// Resolved: shown or hidden.
    Done(bool),
    /// In an open component: stored with the label's visit index,
    /// returned by a visit with the lowest index the label reaches.
    Open(u32),
}

impl Session {
    /// Starts a request session for a (speculated) viewer.
    #[must_use]
    pub fn new(viewer: Viewer) -> Session {
        Session {
            viewer,
            marks: IdHashMap::default(),
            pending: Vec::new(),
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
        for (&label, mark) in &self.marks {
            match mark {
                Mark::Done(true) => branches.insert(Branch::pos(label)),
                Mark::Done(false) => branches.insert(Branch::neg(label)),
                Mark::Open(_) => {}
            }
        }
        branches
    }

    /// Resolves one label for this viewer, caching the outcome.
    ///
    /// A label depends on every label in the faceted verdict its
    /// policy returns, and the session resolves the strongly connected
    /// components of that graph in dependency order (Tarjan's
    /// algorithm, each policy run once):
    ///
    /// * a label on no cycle is shown iff its verdict holds once its
    ///   dependencies are resolved;
    /// * a component with a cycle — two or more labels, or one label
    ///   whose verdict reads itself — keeps each member's verdict with
    ///   the labels outside it substituted, and takes the maximal
    ///   model of `member ⇒ verdict` in label-index order (§2.3:
    ///   labels are shown unless their policies force hiding).
    ///
    /// Every shown label's verdict holds under the final assignment,
    /// no larger set of shown labels would comply, and the outcome
    /// does not depend on the order labels are resolved in.
    pub fn resolve(&mut self, app: &App, label: Label) -> bool {
        // A first visit closes every component it opens.
        matches!(self.visit(app, label), Mark::Done(true))
    }

    /// Tarjan's visit: runs `label`'s policy once and returns its
    /// verdict, or, while the label's component is still open, the
    /// lowest visit index it reaches.
    fn visit(&mut self, app: &App, label: Label) -> Mark {
        // One probe both answers a repeat and marks a first visit.
        let index = u32::try_from(self.marks.len()).expect("fewer than 2^32 labels per session");
        match self.marks.entry(label) {
            Entry::Occupied(seen) => return *seen.get(),
            Entry::Vacant(slot) => {
                slot.insert(Mark::Open(index));
            }
        }
        let Some(entry) = app.policy(label) else {
            return self.record(label, true); // unconstrained labels are shown
        };
        let mut args = crate::model::PolicyArgs {
            row: &entry.row,
            jid: entry.jid,
            viewer: &self.viewer,
            db: &app.db,
        };
        let verdict = (entry.check)(&mut args);
        if let Some(&shown) = verdict.as_leaf() {
            return self.record(label, shown);
        }
        let waiting = self.pending.len();
        let mut low = index;
        let residual = self.settle(app, verdict, &mut low);
        if low < index {
            // On a cycle through a label visited earlier, which
            // solves the component once all of it has run.
            self.pending.push((label, residual));
            return Mark::Open(low);
        }
        let acyclic = self.pending.len() == waiting;
        if let Some(&shown) = residual.as_leaf().filter(|_| acyclic) {
            return self.record(label, shown);
        }
        // A cycle closes here: solve its members together.
        let mut policies = PolicySet::new();
        let mut members = self.pending.split_off(waiting);
        members.push((label, residual));
        for (member, residual) in &members {
            policies.restrict(*member, Formula::from_faceted_bool(residual));
        }
        let model = policies
            .resolve(members.iter().map(|&(member, _)| member))
            .expect("hiding every member satisfies guarded constraints");
        for (member, _) in members {
            self.record(member, model.get(member) == Some(true));
        }
        Mark::Done(model.get(label) == Some(true))
    }

    /// Records a resolved verdict.
    fn record(&mut self, label: Label, shown: bool) -> Mark {
        self.marks.insert(label, Mark::Done(shown));
        Mark::Done(shown)
    }

    /// Resolves every label `verdict` reads, substituting those whose
    /// component is closed; a label of an open component stays in the
    /// returned residual and lowers `low` to its index.
    fn settle(&mut self, app: &App, verdict: Faceted<bool>, low: &mut u32) -> Faceted<bool> {
        let Some(k) = verdict.root_label() else {
            return verdict;
        };
        let (high, rest) = (verdict.assume(k, true), verdict.assume(k, false));
        match self.visit(app, k) {
            Mark::Done(shown) => {
                let (taken, other) = if shown { (high, rest) } else { (rest, high) };
                // The branch not taken is still part of the verdict:
                // its labels may close a cycle through this one.
                self.settle(app, other, low);
                self.settle(app, taken, low)
            }
            Mark::Open(reached) => {
                *low = (*low).min(reached);
                let high = self.settle(app, high, low);
                Faceted::split(k, high, self.settle(app, rest, low))
            }
        }
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
        self.view_value(app, obj)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::label_for;
    use crate::testkit::{add_notes, note_app, note_app_with};
    use microdb::Value;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn session_resolves_each_label_once() {
        let app = note_app();
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
    fn session_rows_prune_guards() {
        let app = note_app();
        add_notes(&app, 0..4);
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
        let app = note_app();
        let jid = app
            .create("note", vec![Value::Int(7), Value::from("s")])
            .unwrap();
        let obj = app.get("note", jid).unwrap();
        let mut s = Session::new(Viewer::User(7));
        s.view_object(&app, &obj);
        let rows = app.db.all_with("note", Some(&s.constraint())).unwrap();
        assert_eq!(
            rows.len(),
            1,
            "the inconsistent facet row is never unmarshalled"
        );
        assert_eq!(
            app.all("note").unwrap().len(),
            2,
            "plain reads stay unpruned"
        );
    }

    #[test]
    fn faceted_scalar_resolution() {
        let app = note_app();
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
        note_app_with(vec![label_for(
            "note_self",
            vec![0, 1],
            |_| vec![Value::Int(-1), Value::from("[private]")],
            |args| {
                let viewer = args.viewer.user_jid();
                let obj = args.db.get("note", args.jid).expect("note exists");
                form::object_field(&obj, 0).map(&mut |owner| owner.as_int() == viewer)
            },
        )])
    }

    type Check = fn(&FacetedObject) -> Faceted<bool>;

    /// A note whose `owner` is guarded by policy A and whose `text` by
    /// policy B, each check given the live note.
    fn two_policy_note(check_a: Check, check_b: Check) -> (App, FacetedObject) {
        let policy = |field: usize, public: Value, check: Check| {
            label_for(
                "ab",
                vec![field],
                move |_| vec![public.clone()],
                move |args| check(&args.db.get("note", args.jid).expect("note exists")),
            )
        };
        let app = note_app_with(vec![
            policy(0, Value::Int(-1), check_a),
            policy(1, Value::from("[private]"), check_b),
        ]);
        add_notes(&app, 7..8);
        let obj = app.get("note", 1).unwrap();
        (app, obj)
    }

    #[test]
    fn fixed_policy_graphs_resolve_to_the_stratified_model() {
        let text_is_public: Check =
            |o| form::object_field(o, 1).map(&mut |t| t.as_str() == Some("[private]"));
        let owner_is_secret: Check =
            |o| form::object_field(o, 0).map(&mut |owner| owner.as_int() == Some(7));
        let always: Check = |_| Faceted::leaf(true);
        for (check_b, shown) in [
            // A ⇒ ¬B and B ⇒ A: one component, whose maximal model in
            // label order shows A and so hides B.
            (owner_is_secret, [Value::Int(7), Value::from("[private]")]),
            // A ⇒ ¬B and B ⇒ true: B is resolved first, and shown.
            (always, [Value::Int(-1), Value::from("n7")]),
        ] {
            let (app, obj) = two_policy_note(text_is_public, check_b);
            for first in obj.labels() {
                let mut s = Session::new(Viewer::Anonymous);
                s.resolve(&app, first);
                let row = s.view_object(&app, &obj).unwrap();
                assert_eq!(row, shown, "{first:?} first");
            }
        }
    }

    /// The note `(7, "secret text")` in `app`, and the row each viewer
    /// must be shown: the full model, where the text is shown only
    /// when the viewer is the owner.
    fn secret_note_cases(app: &App) -> (FacetedObject, Vec<(Viewer, Row)>) {
        app.create("note", vec![Value::Int(7), Value::from("secret text")])
            .unwrap();
        let obj = app.get("note", 1).unwrap();
        let cases = [
            Viewer::User(7),
            Viewer::User(8),
            Viewer::User(-1),
            Viewer::Anonymous,
        ]
        .into_iter()
        .map(|viewer| {
            let text = if viewer == Viewer::User(7) {
                "secret text"
            } else {
                "[private]"
            };
            (viewer, vec![Value::Int(7), Value::from(text)])
        })
        .collect();
        (obj, cases)
    }

    /// Asserts that a session shows each viewer its full-model row,
    /// whether the object's labels are resolved up front or on view.
    fn assert_sessions_show(app: &App, obj: &FacetedObject, cases: &[(Viewer, Row)]) {
        for (viewer, full) in cases {
            let lazy = Session::new(viewer.clone()).view_object(app, obj).unwrap();
            assert_eq!(&lazy, full, "{viewer}");
            let mut eager = Session::new(viewer.clone());
            for label in obj.labels() {
                eager.resolve(app, label);
            }
            assert_eq!(&eager.view_object(app, obj).unwrap(), full, "{viewer}");
        }
    }

    #[test]
    fn session_matches_full_sink_resolution() {
        let app = note_app();
        let (obj, cases) = secret_note_cases(&app);
        assert_sessions_show(&app, &obj, &cases);
    }

    #[test]
    fn self_referential_policy_matches_full_sink_resolution() {
        // A policy reading its own field is a one-label cycle; the
        // viewer whose id equals the public facet's owner is still
        // not shown the owner's text.
        let app = app_with_self_referential_policy();
        let (obj, mut cases) = secret_note_cases(&app);
        for (_, row) in &mut cases {
            // The owner column is guarded too: hidden with the text.
            if row[1] == Value::from("[private]") {
                row[0] = Value::Int(-1);
            }
        }
        assert_sessions_show(&app, &obj, &cases);
    }

    #[test]
    fn each_label_is_checked_once_per_session() {
        const NOTES: usize = 64;
        let calls: Arc<Vec<AtomicUsize>> =
            Arc::new((0..NOTES).map(|_| AtomicUsize::new(0)).collect());
        let counted = Arc::clone(&calls);
        let app = note_app_with(vec![label_for(
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
        )]);
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
