//! Cross-crate integration tests: the whole stack, from faceted
//! values through the FORM and the framework to rendered pages, plus
//! the λJDB ↔ framework correspondence.

use faceted::{Faceted, View};
use jacqueline::{simple_policy, App, ModelDef, Session, Viewer};
use microdb::{ColumnDef, ColumnType, Value};

fn notes_app() -> App {
    let mut app = App::new();
    app.register_model(
        ModelDef::public(
            "note",
            vec![
                ColumnDef::new("owner", ColumnType::Int),
                ColumnDef::new("text", ColumnType::Str),
            ],
        )
        .with_policy(simple_policy(
            "owner_only",
            vec![1],
            |_| vec![Value::from("[private]")],
            |args| args.viewer.user_jid() == args.row[0].as_int(),
        )),
    )
    .unwrap();
    app
}

#[test]
fn stack_round_trip_physical_to_rendered() {
    let app = notes_app();
    let jid = app
        .create("note", vec![Value::Int(1), Value::from("hello")])
        .unwrap();
    // Physical layer: two facet rows with jid/jvars meta-data.
    assert_eq!(app.db.physical_rows("note").unwrap(), 2);
    // FORM layer: reconstruction yields a faceted object.
    let obj = app.get("note", jid).unwrap();
    assert!(obj.root_label().is_some());
    // Framework layer: sinks resolve per viewer.
    assert_eq!(
        app.show_object(&Viewer::User(1), &obj).unwrap()[1],
        Value::from("hello")
    );
    assert_eq!(
        app.show_object(&Viewer::User(2), &obj).unwrap()[1],
        Value::from("[private]")
    );
}

#[test]
fn session_and_sink_paths_agree_across_the_stack() {
    let app = notes_app();
    for i in 0..6 {
        app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
            .unwrap();
    }
    let rows = app.all("note").unwrap();
    for viewer in [
        Viewer::Anonymous,
        Viewer::User(0),
        Viewer::User(3),
        Viewer::User(99),
    ] {
        let full: Vec<_> = app.show_rows(&viewer, &rows);
        let mut session = Session::new(viewer.clone());
        let pruned: Vec<_> = session
            .view_rows(&app, &rows)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(full, pruned, "viewer {viewer}");
    }
}

#[test]
fn lambdajdb_and_framework_agree_on_the_calendar_example() {
    // The same policy scenario expressed in the core language and in
    // the framework must agree: a guest sees the secret facet, a
    // non-guest the public one.
    use lambdajdb::{parse_statement, Interp};

    let program = parse_statement(
        "(letstmt party
            (label k (let a (restrict k (lam v (== v (file alice)))) k))
            (seq
              (print (file alice) (facet party \"Carol's surprise party\" \"Private event\"))
              (print (file carol) (facet party \"Carol's surprise party\" \"Private event\"))))",
    )
    .unwrap();
    let out = Interp::new().run(&program).unwrap();

    let mut app = App::new();
    app.register_model(
        ModelDef::public("event", vec![ColumnDef::new("name", ColumnType::Str)]).with_policy(
            simple_policy(
                "guests_only",
                vec![0],
                |_| vec![Value::from("Private event")],
                |args| args.viewer.user_jid() == Some(1), // alice
            ),
        ),
    )
    .unwrap();
    let jid = app
        .create("event", vec![Value::from("Carol's surprise party")])
        .unwrap();
    let obj = app.get("event", jid).unwrap();
    let alice_sees = app.show_object(&Viewer::User(1), &obj).unwrap()[0]
        .as_str()
        .unwrap()
        .to_owned();
    let carol_sees = app.show_object(&Viewer::User(2), &obj).unwrap()[0]
        .as_str()
        .unwrap()
        .to_owned();

    assert_eq!(out[0].rendered, alice_sees);
    assert_eq!(out[1].rendered, carol_sees);
}

#[test]
fn faceted_values_survive_database_round_trip_verbatim() {
    // A nested faceted value written through the FORM and read back
    // projects identically under every view — the projection-fidelity
    // contract between `faceted` and `form`.
    let mut db = form::FormDb::new();
    db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
        .unwrap();
    let (a, b) = (db.fresh_label(), db.fresh_label());
    let obj = Faceted::split(
        a,
        Faceted::split(
            b,
            Faceted::leaf(Some(vec![Value::Int(1)])),
            Faceted::leaf(Some(vec![Value::Int(2)])),
        ),
        Faceted::leaf(Some(vec![Value::Int(3)])),
    );
    let jid = db.insert("t", &obj).unwrap();
    let read = db.get("t", jid).unwrap();
    for bits in 0..4u32 {
        let mut view = View::empty();
        if bits & 1 != 0 {
            view.insert(a);
        }
        if bits & 2 != 0 {
            view.insert(b);
        }
        assert_eq!(read.project(&view), obj.project(&view));
    }
}

#[test]
fn writes_in_guarded_branches_do_not_leak() {
    // The §2.2 implicit-flow scenario at the framework level: update
    // an object under a path condition derived from a sensitive value.
    let app = notes_app();
    let jid = app
        .create("note", vec![Value::Int(1), Value::from("original")])
        .unwrap();
    let obj = app.get("note", jid).unwrap();
    let label = obj.root_label().unwrap();
    // "If the secret text is visible, rewrite it" — the write carries
    // the branch as its path condition.
    let pc = faceted::Branches::new().with(faceted::Branch::pos(label));
    app.update_fields("note", jid, &[(1, Value::from("rewritten"))], &pc)
        .unwrap();
    let after = app.get("note", jid).unwrap();
    assert_eq!(
        app.show_object(&Viewer::User(1), &after).unwrap()[1],
        Value::from("rewritten")
    );
    assert_eq!(
        app.show_object(&Viewer::User(2), &after).unwrap()[1],
        Value::from("[private]"),
        "unauthorized viewers still see the public facet"
    );
}

#[test]
fn solver_backs_circular_policies_across_the_stack() {
    // A label whose policy consults data it itself guards (§2.3):
    // resolution goes through labelsat and must prefer showing.
    use labelsat::{Formula, PolicySet};
    let k = faceted::Label::from_index(0);
    let mut ps = PolicySet::new();
    ps.restrict(k, Formula::var(k));
    assert_eq!(ps.resolve([k]).unwrap().get(k), Some(true));

    // And the hiding direction: k ⇒ ¬k forces false.
    let mut ps = PolicySet::new();
    ps.restrict(k, Formula::var(k).not());
    assert_eq!(ps.resolve([k]).unwrap().get(k), Some(false));
}
