//! Quickstart: the paper's §2 social-calendar example, end to end.
//!
//! Alice and Bob plan a surprise party for Carol. The event's name
//! and location are sensitive: guests see the real values, everyone
//! else (including Carol) sees "Private event" at an undisclosed
//! location. The policy is written ONCE, on the model — the rest of
//! the program is policy-agnostic.
//!
//! Run with `cargo run --example quickstart`.

use faceted::Faceted;
use form::faceted_count;
use jacqueline::{label_for, App, ModelDef, Session, Viewer};
use microdb::{ColumnDef, ColumnType, Value};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut app = App::new();

    app.register_model(ModelDef::public(
        "user_profile",
        vec![ColumnDef::new("name", ColumnType::Str)],
    ))?;
    app.register_model(ModelDef::public(
        "event_guest",
        vec![
            ColumnDef::new("event", ColumnType::Int),
            ColumnDef::new("guest", ColumnType::Int),
        ],
    ))?;

    // The Event model: the policy is attached to the schema, exactly
    // like the paper's Figure 2 — a `label_for('name', 'location')`
    // that queries the EventGuest table *at output time*.
    app.register_model(
        ModelDef::public(
            "event",
            vec![
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("location", ColumnType::Str),
            ],
        )
        .with_policy(label_for(
            "restrict_event",
            vec![0, 1],
            |_row| {
                vec![
                    Value::from("Private event"),
                    Value::from("Undisclosed location"),
                ]
            },
            |args| {
                let Some(viewer) = args.viewer.user_jid() else {
                    return Faceted::leaf(false);
                };
                let guests = args
                    .db
                    .filter_eq("event_guest", "event", Value::Int(args.jid))
                    .unwrap_or_default()
                    .filter_rows(|g| g.fields[1] == Value::Int(viewer));
                faceted_count(&guests).map(&mut |n| *n > 0)
            },
        )),
    )?;

    // --- Everything below is policy-agnostic application code. -----
    let alice = app.create("user_profile", vec![Value::from("alice")])?;
    let bob = app.create("user_profile", vec![Value::from("bob")])?;
    let carol = app.create("user_profile", vec![Value::from("carol")])?;

    let party = app.create(
        "event",
        vec![
            Value::from("Carol's surprise party"),
            Value::from("Schloss Dagstuhl"),
        ],
    )?;
    for guest in [alice, bob] {
        app.create("event_guest", vec![Value::Int(party), Value::Int(guest)])?;
    }

    println!(
        "physical rows for the event: {}",
        app.db.physical_rows("event")?
    );

    // The same render call, three viewers, three outcomes.
    for (name, viewer) in [
        ("alice", Viewer::User(alice)),
        ("bob", Viewer::User(bob)),
        ("carol", Viewer::User(carol)),
    ] {
        let obj = app.get("event", party)?;
        let row = Session::new(viewer)
            .view_object(&app, &obj)
            .expect("event exists");
        println!(
            "{name} sees: {} @ {}",
            row[0].as_str().unwrap(),
            row[1].as_str().unwrap()
        );
    }

    // Faceted queries: filtering on the sensitive location leaks
    // nothing to non-guests.
    let matches = app.filter_eq("event", "location", Value::from("Schloss Dagstuhl"))?;
    println!(
        "alice's location query finds {} event(s)",
        Session::new(Viewer::User(alice))
            .view_rows(&app, &matches)
            .len()
    );
    println!(
        "carol's location query finds {} event(s)",
        Session::new(Viewer::User(carol))
            .view_rows(&app, &matches)
            .len()
    );

    Ok(())
}
