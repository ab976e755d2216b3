//! Conference management system — the Jacqueline (policy-agnostic)
//! implementation (§6.1, Figure 7).
//!
//! Models: user profiles (with roles), papers, reviews, PC conflicts
//! and review assignments; permissions depend on the conference
//! phase. All information-flow policy code lives in [`register`]
//! between the `<policy>` markers; the views below contain none.

use faceted::Faceted;
use jacqueline::{label_for, App, ModelDef, Request, Response, Router, Session, Viewer};
use microdb::{ColumnDef, ColumnType, Value};

// [section: models]

/// Conference phases (stored in the `conf_state` singleton table).
pub const PHASE_SUBMISSION: &str = "submission";
/// Review phase.
pub const PHASE_REVIEW: &str = "review";
/// Final (decisions public) phase.
pub const PHASE_FINAL: &str = "final";

/// Whether the conference is in `phase`, read at output time.
// <policy>
fn in_phase(db: &form::FormDb, phase: &str) -> bool {
    let rows = db.all("conf_state").unwrap_or_default();
    let current = rows.iter().next().and_then(|(_, r)| r.fields[0].as_str());
    current.unwrap_or(PHASE_SUBMISSION) == phase
}
// </policy>

/// Whether the (public) role of a user is one of `roles`. The `level`
/// column is unprotected, so every facet of the profile agrees on it —
/// the empty-view row is exact.
// <policy>
fn has_role(db: &form::FormDb, user: i64, roles: &[&str]) -> bool {
    db.public_row("user_profile", user, |row| {
        let role = row.and_then(|r| r.get(1)?.as_str());
        role.is_some_and(|role| roles.contains(&role))
    })
    .unwrap_or(false)
}
// </policy>

/// Whether `user` has PC or chair privileges.
// <policy>
fn is_committee(db: &form::FormDb, user: i64) -> bool {
    has_role(db, user, &["pc", "chair"])
}
// </policy>

/// Whether `user` has a conflict with `paper`.
// <policy>
fn has_conflict(db: &form::FormDb, paper: i64, user: i64) -> bool {
    let mine = |c: &microdb::Row| c[1] == Value::Int(user);
    let found = db.exists_eq("paper_pc_conflict", "paper", Value::Int(paper), mine);
    found.is_ok_and(|f| *f.project(&faceted::View::empty()))
}
// </policy>

/// Registers the conference models (schemas *and* policies) on an
/// app. This file's only policy code is here — the paper's
/// `models.py`.
///
/// # Errors
///
/// Propagates registration errors.
pub fn register(app: &mut App) -> form::FormResult<()> {
    app.register_model(ModelDef::public(
        "conf_state",
        vec![ColumnDef::new("phase", ColumnType::Str)],
    ))?;
    app.register_model(ModelDef::public(
        "paper_pc_conflict",
        vec![
            ColumnDef::new("paper", ColumnType::Int),
            ColumnDef::new("pc", ColumnType::Int),
        ],
    ))?;
    app.register_model(ModelDef::public(
        "review_assignment",
        vec![
            ColumnDef::new("paper", ColumnType::Int),
            ColumnDef::new("pc", ColumnType::Int),
        ],
    ))?;

    let user_profile = ModelDef::public(
        "user_profile",
        vec![
            ColumnDef::new("name", ColumnType::Str),
            ColumnDef::new("level", ColumnType::Str),
            ColumnDef::new("affiliation", ColumnType::Str),
            ColumnDef::new("email", ColumnType::Str),
        ],
    )
    // <policy>
    .with_policy(label_for(
        "restrict_email",
        vec![3],
        |_row| vec![Value::from("[email withheld]")],
        |args| {
            // Email visible to the user themselves and to the chair.
            let viewer = args.viewer.user_jid();
            if viewer == Some(args.jid) {
                return Faceted::leaf(true);
            }
            let Some(v) = viewer else {
                return Faceted::leaf(false);
            };
            Faceted::leaf(has_role(args.db, v, &["chair"]))
        },
    ));
    // </policy>
    app.register_model(user_profile)?;

    let paper = ModelDef::public(
        "paper",
        vec![
            ColumnDef::new("title", ColumnType::Str),
            ColumnDef::new("author", ColumnType::Int),
            ColumnDef::new("accepted", ColumnType::Bool),
        ],
    )
    // <policy>
    .with_policy(label_for(
        // Figure 7: jeeves_restrict_author.
        "restrict_author",
        vec![1],
        |_row| vec![Value::Int(-1)],
        |args| {
            if in_phase(args.db, PHASE_FINAL) {
                return Faceted::leaf(true);
            }
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            if has_conflict(args.db, args.jid, viewer) {
                return Faceted::leaf(false);
            }
            let is_author = args.row[1].as_int() == Some(viewer);
            Faceted::leaf(is_author || is_committee(args.db, viewer))
        },
    ))
    // </policy>
    // <policy>
    .with_policy(label_for(
        "restrict_title",
        vec![0],
        |_row| vec![Value::from("(title hidden)")],
        |args| {
            if in_phase(args.db, PHASE_FINAL) {
                return Faceted::leaf(true);
            }
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            let is_author = args.row[1].as_int() == Some(viewer);
            Faceted::leaf(is_author || is_committee(args.db, viewer))
        },
    ));
    // </policy>
    app.register_model(paper)?;

    let review = ModelDef::public(
        "review",
        vec![
            ColumnDef::new("paper", ColumnType::Int),
            ColumnDef::new("reviewer", ColumnType::Int),
            ColumnDef::new("score", ColumnType::Int),
            ColumnDef::new("text", ColumnType::Str),
        ],
    )
    // <policy>
    .with_policy(label_for(
        "restrict_reviewer",
        vec![1],
        |_row| vec![Value::Int(-1)],
        |args| {
            // Reviewer identity: the reviewer themselves and committee.
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            let is_reviewer = args.row[1].as_int() == Some(viewer);
            Faceted::leaf(is_reviewer || is_committee(args.db, viewer))
        },
    ))
    // </policy>
    // <policy>
    .with_policy(label_for(
        "restrict_review_text",
        vec![3],
        |_row| vec![Value::from("[review hidden]")],
        |args| {
            // Review contents: committee always; the paper's author
            // once the final phase starts.
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            if is_committee(args.db, viewer) {
                return Faceted::leaf(true);
            }
            if in_phase(args.db, PHASE_FINAL) {
                let paper = args.row[0].as_int().unwrap_or(-1);
                let author = args
                    .db
                    .get("paper", paper)
                    .ok()
                    .map(|o| form::object_field(&o, 1))
                    .map(|f| f.map(&mut |v| v.as_int() == Some(viewer)));
                if let Some(f) = author {
                    return f;
                }
            }
            Faceted::leaf(false)
        },
    ));
    // </policy>
    app.register_model(review)?;

    // Foreign-key indexes (Django defaults).
    app.db.create_index("paper_pc_conflict", "paper")?;
    app.db.create_index("review", "paper")?;
    app.db.create_index("review_assignment", "paper")?;

    Ok(())
}

/// Sets the conference phase.
///
/// # Errors
///
/// Propagates database errors.
pub fn set_phase(app: &App, phase: &str) -> form::FormResult<()> {
    let existing: Vec<i64> = app.all("conf_state")?.iter().map(|(_, r)| r.jid).collect();
    for jid in existing {
        app.db
            .delete("conf_state", jid, &faceted::Branches::new())?;
    }
    app.create("conf_state", vec![Value::from(phase)])?;
    Ok(())
}

// [section: views]
// ---------------------------------------------------------------------
// Views (controllers): completely policy-agnostic — no checks anywhere.
// ---------------------------------------------------------------------

/// View all papers (the Table 3 / Figure 9a stress-test page).
pub fn all_papers(app: &App, viewer: &Viewer) -> String {
    let mut session = Session::new(viewer.clone());
    let papers = app.all("paper").unwrap_or_default();
    let mut page = String::from("== Papers ==\n");
    for row in session.view_rows(app, &papers) {
        let title = row[0].as_str().unwrap_or("?").to_owned();
        let author = author_name(app, &mut session, &row[1]);
        page.push_str(&format!("{title} by {author}\n"));
    }
    page
}

/// One paper's line of [`all_papers`], rendered for `viewer` through
/// the same faceted projection the full page runs — the render
/// cache's repair path re-renders exactly these. A paper the viewer
/// cannot see (or that no longer exists) contributes no bytes, which
/// matches the full page's guard-filtered row scan.
pub fn paper_fragment(app: &App, viewer: &Viewer, jid: i64) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(paper) = app.get("paper", jid) else {
        return String::new();
    };
    let Some(row) = session.view_object(app, &paper) else {
        return String::new();
    };
    let title = row[0].as_str().unwrap_or("?").to_owned();
    let author = author_name(app, &mut session, &row[1]);
    format!("{title} by {author}\n")
}

fn author_name(app: &App, session: &mut Session, author: &Value) -> String {
    match author.as_int() {
        Some(jid) if jid >= 0 => match app.get("user_profile", jid) {
            Ok(profile) => session.view_object(app, &profile).map_or_else(
                || "(unknown)".to_owned(),
                |r| r[0].as_str().unwrap_or("?").to_owned(),
            ),
            Err(_) => "(unknown)".to_owned(),
        },
        _ => "(anonymous)".to_owned(),
    }
}

/// View one paper with its reviews (Table 4's representative action).
pub fn single_paper(app: &App, viewer: &Viewer, paper: i64) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(obj) = app.get("paper", paper) else {
        return "no such paper".to_owned();
    };
    let Some(row) = session.view_object(app, &obj) else {
        return "no such paper".to_owned();
    };
    let title = row[0].as_str().unwrap_or("?").to_owned();
    let author = author_name(app, &mut session, &row[1]);
    let mut page = format!("= {title} by {author} =\n");
    let reviews = app
        .filter_eq("review", "paper", Value::Int(paper))
        .unwrap_or_default();
    for r in session.view_rows(app, &reviews) {
        let reviewer = author_name(app, &mut session, &r[1]);
        page.push_str(&format!(
            "review by {reviewer}: score {} — {}\n",
            r[2],
            r[3].as_str().unwrap_or("?")
        ));
    }
    page
}

/// View all user profiles (Table 3).
pub fn all_users(app: &App, viewer: &Viewer) -> String {
    let mut session = Session::new(viewer.clone());
    let users = app.all("user_profile").unwrap_or_default();
    let mut page = String::from("== Users ==\n");
    for row in session.view_rows(app, &users) {
        page.push_str(&format!(
            "{} ({}) <{}>\n",
            row[0].as_str().unwrap_or("?"),
            row[2].as_str().unwrap_or("?"),
            row[3].as_str().unwrap_or("?"),
        ));
    }
    page
}

/// View one user profile (Table 4).
pub fn single_user(app: &App, viewer: &Viewer, user: i64) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(obj) = app.get("user_profile", user) else {
        return "no such user".to_owned();
    };
    match session.view_object(app, &obj) {
        Some(row) => format!(
            "{} ({}) <{}>\n",
            row[0].as_str().unwrap_or("?"),
            row[2].as_str().unwrap_or("?"),
            row[3].as_str().unwrap_or("?"),
        ),
        None => "no such user".to_owned(),
    }
}

/// Submit a paper (a write action; policy-agnostic).
///
/// # Errors
///
/// Propagates database errors.
pub fn submit_paper(app: &App, viewer: &Viewer, title: &str) -> form::FormResult<i64> {
    let author = viewer.user_jid().unwrap_or(-1);
    app.create(
        "paper",
        vec![Value::from(title), Value::Int(author), Value::Bool(false)],
    )
}

/// Submit a review.
///
/// # Errors
///
/// Propagates database errors.
pub fn submit_review(
    app: &App,
    viewer: &Viewer,
    paper: i64,
    score: i64,
    text: &str,
) -> form::FormResult<i64> {
    let reviewer = viewer.user_jid().unwrap_or(-1);
    app.create(
        "review",
        vec![
            Value::Int(paper),
            Value::Int(reviewer),
            Value::Int(score),
            Value::from(text),
        ],
    )
}

/// Builds the conference router (the MVC wiring). Every page is a
/// read-only route, so the concurrent executor serves them in
/// parallel; the two submission actions are write routes. Each route
/// declares its table footprint — including the tables its models'
/// *policies* consult at output time (`conf_state` for the phase,
/// `user_profile` for roles, `paper_pc_conflict` for conflicts) — so
/// the executor locks at table granularity: submitting a review no
/// longer blocks the user list.
#[must_use]
pub fn router() -> Router {
    let mut r = Router::new();
    r.route_read_tables(
        "papers/all",
        &["conf_state", "paper", "paper_pc_conflict", "user_profile"],
        |app, req: &Request| Response::ok(all_papers(app, &req.viewer)),
    );
    // Fragment repair: one line per paper, spliced from the write
    // journal on single-paper writes. `users/all` deliberately does
    // NOT register fragments — the chair check in `restrict_email`
    // makes one user's row change how *every* user's line renders,
    // violating the no-cross-row-dependence contract.
    r.route_fragments(
        "papers/all",
        "paper",
        |_, _| ("== Papers ==\n".to_owned(), String::new()),
        |app, req: &Request, jid| paper_fragment(app, &req.viewer, jid),
    );
    r.route_read_tables(
        "papers/one",
        &[
            "conf_state",
            "paper",
            "paper_pc_conflict",
            "review",
            "user_profile",
        ],
        |app, req: &Request| match req.int_param("id") {
            Some(id) => Response::ok(single_paper(app, &req.viewer, id)),
            None => Response::bad_request("papers/one requires a numeric id parameter"),
        },
    );
    r.route_read_tables("users/all", &["user_profile"], |app, req: &Request| {
        Response::ok(all_users(app, &req.viewer))
    });
    r.route_read_tables(
        "users/one",
        &["user_profile"],
        |app, req: &Request| match req.int_param("id") {
            Some(id) => Response::ok(single_user(app, &req.viewer, id)),
            None => Response::bad_request("users/one requires a numeric id parameter"),
        },
    );
    r.route_tables("papers/submit", &[], &["paper"], |app, req: &Request| {
        if req.viewer.user_jid().is_none() {
            return Response::forbidden("submitting a paper requires a login session");
        }
        match req.params.get("title") {
            Some(title) => match submit_paper(app, &req.viewer, title) {
                Ok(jid) => Response::ok(jid.to_string()),
                Err(e) => Response::error(&e.to_string()),
            },
            None => Response::bad_request("papers/submit requires a title parameter"),
        }
    });
    r.route_tables("reviews/submit", &[], &["review"], |app, req: &Request| {
        if req.viewer.user_jid().is_none() {
            return Response::forbidden("submitting a review requires a login session");
        }
        match (req.int_param("paper"), req.int_param("score")) {
            (Some(paper), Some(score)) => {
                let text = req.params.get("text").map_or("", String::as_str);
                match submit_review(app, &req.viewer, paper, score, text) {
                    Ok(jid) => Response::ok(jid.to_string()),
                    Err(e) => Response::error(&e.to_string()),
                }
            }
            _ => Response::bad_request("reviews/submit requires numeric paper and score"),
        }
    });
    // Render-cache key canonicalization: the object pages read only
    // `id`, the list pages read nothing — stray params and
    // denormalized ids (`id=07`) fold onto one cached entry.
    r.canonicalize_int_params("papers/one", &["id"]);
    r.canonicalize_int_params("users/one", &["id"]);
    r.canonicalize_int_params("papers/all", &[]);
    r.canonicalize_int_params("users/all", &[]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (App, i64, i64, i64) {
        let mut app = App::new();
        register(&mut app).unwrap();
        set_phase(&app, PHASE_REVIEW).unwrap();
        let chair = app
            .create(
                "user_profile",
                vec![
                    Value::from("carol chair"),
                    Value::from("chair"),
                    Value::from("CMU"),
                    Value::from("carol@cmu.edu"),
                ],
            )
            .unwrap();
        let author = app
            .create(
                "user_profile",
                vec![
                    Value::from("alice author"),
                    Value::from("normal"),
                    Value::from("MIT"),
                    Value::from("alice@mit.edu"),
                ],
            )
            .unwrap();
        let paper = submit_paper(&app, &Viewer::User(author), "Faceted Everything").unwrap();
        (app, chair, author, paper)
    }

    #[test]
    fn author_sees_own_paper_title() {
        let (app, _, author, _) = setup();
        let page = all_papers(&app, &Viewer::User(author));
        assert!(page.contains("Faceted Everything"), "{page}");
        assert!(page.contains("alice author"), "{page}");
    }

    #[test]
    fn outsider_sees_placeholders() {
        let (app, _, _, _) = setup();
        let outsider = app
            .create(
                "user_profile",
                vec![
                    Value::from("oscar"),
                    Value::from("normal"),
                    Value::from("X"),
                    Value::from("o@x.org"),
                ],
            )
            .unwrap();
        let page = all_papers(&app, &Viewer::User(outsider));
        assert!(page.contains("(title hidden)"), "{page}");
        assert!(!page.contains("Faceted Everything"), "{page}");
        assert!(!page.contains("alice author"), "{page}");
    }

    #[test]
    fn chair_sees_everything() {
        let (app, chair, _, _) = setup();
        let page = all_papers(&app, &Viewer::User(chair));
        assert!(page.contains("Faceted Everything"));
        assert!(page.contains("alice author"));
    }

    #[test]
    fn conflicted_pc_member_cannot_see_author() {
        let (app, _, _, paper) = setup();
        let pc = app
            .create(
                "user_profile",
                vec![
                    Value::from("pat pc"),
                    Value::from("pc"),
                    Value::from("UW"),
                    Value::from("pat@uw.edu"),
                ],
            )
            .unwrap();
        app.create("paper_pc_conflict", vec![Value::Int(paper), Value::Int(pc)])
            .unwrap();
        let page = all_papers(&app, &Viewer::User(pc));
        assert!(page.contains("(anonymous)"), "{page}");
    }

    #[test]
    fn final_phase_reveals_authors() {
        let (app, _, _, _) = setup();
        set_phase(&app, PHASE_FINAL).unwrap();
        let page = all_papers(&app, &Viewer::Anonymous);
        assert!(page.contains("alice author"), "{page}");
        assert!(page.contains("Faceted Everything"));
    }

    #[test]
    fn email_visible_to_self_and_chair_only() {
        let (app, chair, author, _) = setup();
        let mine = single_user(&app, &Viewer::User(author), author);
        assert!(mine.contains("alice@mit.edu"));
        let chairs = single_user(&app, &Viewer::User(chair), author);
        assert!(chairs.contains("alice@mit.edu"));
        let anon = single_user(&app, &Viewer::Anonymous, author);
        assert!(anon.contains("[email withheld]"), "{anon}");
    }

    #[test]
    fn review_text_hidden_until_final_phase() {
        let (app, chair, author, paper) = setup();
        let pc = app
            .create(
                "user_profile",
                vec![
                    Value::from("pat pc"),
                    Value::from("pc"),
                    Value::from("UW"),
                    Value::from("pat@uw.edu"),
                ],
            )
            .unwrap();
        submit_review(&app, &Viewer::User(pc), paper, 2, "solid work").unwrap();

        let author_view = single_paper(&app, &Viewer::User(author), paper);
        assert!(author_view.contains("[review hidden]"), "{author_view}");
        let chair_view = single_paper(&app, &Viewer::User(chair), paper);
        assert!(chair_view.contains("solid work"));

        set_phase(&app, PHASE_FINAL).unwrap();
        let author_final = single_paper(&app, &Viewer::User(author), paper);
        assert!(author_final.contains("solid work"), "{author_final}");
        assert!(
            author_final.contains("(anonymous)") || !author_final.contains("pat pc"),
            "reviewer identity stays hidden from the author: {author_final}"
        );
    }

    #[test]
    fn router_dispatches_pages() {
        let (app, _, author, paper) = setup();
        let r = router();
        let resp = r.handle(
            &app,
            &Request::new("papers/one", Viewer::User(author)).with_param("id", &paper.to_string()),
        );
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("Faceted Everything"));
        assert_eq!(
            r.handle(&app, &Request::new("zzz", Viewer::Anonymous))
                .status,
            404
        );
    }
}
