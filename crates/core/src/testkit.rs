//! Fixtures the unit tests share: the `note(owner, text)` model and
//! its two routes.

use microdb::{ColumnDef, ColumnType, Value};

use crate::model::{simple_policy, FieldPolicy, ModelDef};
use crate::{App, Response, Router, Session};

/// A fresh app whose one model is `note(owner, text)` under
/// `policies`.
pub(crate) fn note_app_with(policies: Vec<FieldPolicy>) -> App {
    let mut app = App::new();
    let columns = vec![
        ColumnDef::new("owner", ColumnType::Int),
        ColumnDef::new("text", ColumnType::Str),
    ];
    let mut note = ModelDef::public("note", columns);
    note.policies = policies;
    app.register_model(note).unwrap();
    app
}

/// The note app with no rows, its `text` shown only to the viewer
/// whose id is `owner`.
pub(crate) fn note_app() -> App {
    note_app_with(vec![simple_policy(
        "note_owner",
        vec![1],
        |_| vec![Value::from("[private]")],
        |args| args.viewer.user_jid() == args.row[0].as_int(),
    )])
}

/// Creates one note per id in `owners`, owned by that id, its text
/// `n<id>`.
pub(crate) fn add_notes(app: &App, owners: std::ops::Range<i64>) {
    for i in owners {
        app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
            .unwrap();
    }
}

/// `notes` lists the texts the viewer sees, one a line; `note/add`
/// creates a note owned by the viewer, its text the `text` parameter
/// or "added".
pub(crate) fn note_router() -> Router {
    let mut router = Router::new();
    router.route_read_tables("notes", &["note"], |app: &App, req| {
        let rows = app.all("note").unwrap_or_default();
        let mut session = Session::new(req.viewer.clone());
        let body: String = session
            .view_rows(app, &rows)
            .into_iter()
            .map(|r| format!("{}\n", r[1].as_str().unwrap_or("?")))
            .collect();
        Response::ok(body)
    });
    router.route_tables("note/add", &[], &["note"], |app: &App, req| {
        let owner = req.viewer.user_jid().unwrap_or(-1);
        let text = req.params.get("text").map_or("added", String::as_str);
        match app.create("note", vec![Value::Int(owner), Value::from(text)]) {
            Ok(jid) => Response::ok(jid.to_string()),
            Err(e) => Response::error(&e.to_string()),
        }
    });
    router
}
