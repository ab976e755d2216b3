//! Course manager — Jacqueline implementation (§6.1).
//!
//! Instructors and students organize assignments and submissions;
//! policies depend on the role of the viewer and on state (whether an
//! assignment has been submitted / graded). The "show all courses"
//! page also looks up each course's instructor — the computation that
//! makes Early Pruning *necessary* (Table 5): without pruning the
//! page is one faceted string whose facet count doubles per course.

use faceted::{Faceted, FacetedList};
use form::object_field;
use jacqueline::{label_for, App, ModelDef, Request, Response, Router, Session, Viewer};
use microdb::{ColumnDef, ColumnType, Value};

// [section: models]

/// Registers the course-manager models and policies.
///
/// # Errors
///
/// Propagates registration errors.
pub fn register(app: &mut App) -> form::FormResult<()> {
    app.register_model(ModelDef::public(
        "cuser",
        vec![
            ColumnDef::new("name", ColumnType::Str),
            ColumnDef::new("role", ColumnType::Str), // instructor | student
        ],
    ))?;
    app.register_model(ModelDef::public(
        "enrollment",
        vec![
            ColumnDef::new("course", ColumnType::Int),
            ColumnDef::new("student", ColumnType::Int),
        ],
    ))?;
    app.register_model(ModelDef::public(
        "assignment",
        vec![
            ColumnDef::new("course", ColumnType::Int),
            ColumnDef::new("title", ColumnType::Str),
        ],
    ))?;

    let course = ModelDef::public(
        "course",
        vec![
            ColumnDef::new("title", ColumnType::Str),
            ColumnDef::new("instructor", ColumnType::Int),
        ],
    )
    // <policy>
    .with_policy(label_for(
        // Course details visible to the instructor and enrolled
        // students; everyone else sees a closed listing.
        "restrict_course",
        vec![0, 1],
        |_row| vec![Value::from("[closed course]"), Value::Int(-1)],
        |args| {
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            if args.row[1].as_int() == Some(viewer) {
                return Faceted::leaf(true);
            }
            let student = |e: &microdb::Row| e[1] == Value::Int(viewer);
            let enrolled = args
                .db
                .exists_eq("enrollment", "course", Value::Int(args.jid), student);
            enrolled.unwrap_or_else(|_| Faceted::leaf(false))
        },
    ));
    // </policy>
    app.register_model(course)?;

    let submission = ModelDef::public(
        "submission",
        vec![
            ColumnDef::new("assignment", ColumnType::Int),
            ColumnDef::new("student", ColumnType::Int),
            ColumnDef::new("text", ColumnType::Str),
            ColumnDef::new("grade", ColumnType::Int),
            ColumnDef::new("graded", ColumnType::Bool),
        ],
    )
    // <policy>
    .with_policy(label_for(
        // Submission text: the student and the course instructor.
        "restrict_submission",
        vec![2],
        |_row| vec![Value::from("[submission hidden]")],
        |args| {
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            if args.row[1].as_int() == Some(viewer) {
                return Faceted::leaf(true);
            }
            Faceted::leaf(instructor_of_assignment(args.db, args.row[0].as_int()) == Some(viewer))
        },
    ))
    // </policy>
    // <policy>
    .with_policy(label_for(
        // Grade: instructor always; the student once graded — a
        // stateful policy on the row itself at output time.
        "restrict_grade",
        vec![3],
        |_row| vec![Value::Int(-1)],
        |args| {
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            if instructor_of_assignment(args.db, args.row[0].as_int()) == Some(viewer) {
                return Faceted::leaf(true);
            }
            if args.row[1].as_int() != Some(viewer) {
                return Faceted::leaf(false);
            }
            // Graded-ness is read from the *current* row state.
            args.db
                .get("submission", args.jid)
                .ok()
                .map(|o| object_field(&o, 4))
                .map_or(Faceted::leaf(false), |f| {
                    f.map(&mut |v| v.as_bool() == Some(true))
                })
        },
    ));
    // </policy>
    app.register_model(submission)?;

    // Foreign-key indexes (Django defaults).
    app.db.create_index("enrollment", "course")?;
    app.db.create_index("assignment", "course")?;
    app.db.create_index("submission", "assignment")?;

    Ok(())
}

// <policy>
fn instructor_of_assignment(db: &form::FormDb, assignment: Option<i64>) -> Option<i64> {
    let course = db.public_row("assignment", assignment?, |a| a?[0].as_int());
    let course = course.ok()??;
    let c = db.get("course", course).ok()?;
    // The instructor field is protected; policies may consult the
    // secret facet (they run in the trusted resolver).
    object_field(&c, 1)
        .leaves()
        .into_iter()
        .filter_map(|(_, v)| v.as_int())
        .find(|v| *v >= 0)
}
// </policy>

// [section: views]
/// The Table 5 / Figure 9c page, Early Pruning ON: one session
/// resolves each course label once; work stays linear.
pub fn all_courses(app: &App, viewer: &Viewer) -> String {
    let mut session = Session::new(viewer.clone());
    let courses = app.all("course").unwrap_or_default();
    let mut page = String::from("== Courses ==\n");
    for row in session.view_rows(app, &courses) {
        let instructor = row[1].as_int().unwrap_or(-1);
        let name = if instructor >= 0 {
            app.get("cuser", instructor)
                .ok()
                .and_then(|o| session.view_object(app, &o))
                .map_or_else(
                    || "(unknown)".to_owned(),
                    |r| r[0].as_str().unwrap_or("?").to_owned(),
                )
        } else {
            "(unlisted)".to_owned()
        };
        page.push_str(&format!(
            "{} taught by {name}\n",
            row[0].as_str().unwrap_or("?")
        ));
    }
    page
}

/// One course's line of [`all_courses`], rendered for `viewer`
/// through the same faceted projection the full page runs — the
/// render cache's repair path re-renders exactly these. A course the
/// viewer cannot see (or that no longer exists) contributes no bytes,
/// matching the full page's guard-filtered row scan. The enrollment
/// table (which the course policy consults) is a *different*
/// footprint table, so any enrollment change blocks repair outright.
pub fn course_fragment(app: &App, viewer: &Viewer, jid: i64) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(course) = app.get("course", jid) else {
        return String::new();
    };
    let Some(row) = session.view_object(app, &course) else {
        return String::new();
    };
    let instructor = row[1].as_int().unwrap_or(-1);
    let name = if instructor >= 0 {
        app.get("cuser", instructor)
            .ok()
            .and_then(|o| session.view_object(app, &o))
            .map_or_else(
                || "(unknown)".to_owned(),
                |r| r[0].as_str().unwrap_or("?").to_owned(),
            )
    } else {
        "(unlisted)".to_owned()
    };
    format!("{} taught by {name}\n", row[0].as_str().unwrap_or("?"))
}

/// The same page with Early Pruning OFF: the page is built as one
/// *faceted* string — every course's label doubles the facet count,
/// reproducing the blowup of Table 5. Policies are resolved only at
/// the final sink, by one fresh session.
pub fn all_courses_no_pruning(app: &App, viewer: &Viewer) -> String {
    let courses: FacetedList<form::GuardedRow> = app.all("course").unwrap_or_default();
    let mut page: Faceted<String> = Faceted::leaf(String::from("== Courses ==\n"));
    for (guard, row) in courses.iter() {
        // The faceted line for this course: visible views see the
        // title + instructor lookup, others see nothing.
        let instructor = row.fields[1].as_int().unwrap_or(-1);
        let name = if instructor >= 0 {
            match app.get("cuser", instructor) {
                Ok(o) => object_field(&o, 0).map(&mut |v| v.as_str().unwrap_or("?").to_owned()),
                Err(_) => Faceted::leaf("(unknown)".to_owned()),
            }
        } else {
            Faceted::leaf("(unlisted)".to_owned())
        };
        let title = row.fields[0].as_str().unwrap_or("?").to_owned();
        let line = name.map(&mut |n| format!("{title} taught by {n}\n"));
        let extended = page.zip_with(&line, &mut |p, l| format!("{p}{l}"));
        page = Faceted::split_branches(guard, extended, page);
    }
    Session::new(viewer.clone()).view_value(app, &page)
}

/// A student's submission view.
pub fn view_submission(app: &App, viewer: &Viewer, submission: i64) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(obj) = app.get("submission", submission) else {
        return "no such submission".to_owned();
    };
    match session.view_object(app, &obj) {
        Some(row) => {
            let grade = match row[3].as_int() {
                Some(g) if g >= 0 => g.to_string(),
                _ => "(not released)".to_owned(),
            };
            format!("{} — grade {grade}\n", row[2].as_str().unwrap_or("?"))
        }
        None => "no such submission".to_owned(),
    }
}

/// Grades a submission (instructor action): a stateful update the
/// grade policy observes. The update preserves facet structure — the
/// public grade facet stays hidden. Takes `&self` access like every
/// row-level write, so the grade route runs under footprint locks.
///
/// # Errors
///
/// Propagates database errors.
pub fn grade_submission(app: &App, submission: i64, grade: i64) -> form::FormResult<()> {
    app.update_fields(
        "submission",
        submission,
        &[(3, Value::Int(grade)), (4, Value::Bool(true))],
        &faceted::Branches::new(),
    )
}

/// Submits an assignment answer (student action).
///
/// # Errors
///
/// Propagates database errors.
pub fn submit_answer(
    app: &App,
    viewer: &Viewer,
    assignment: i64,
    text: &str,
) -> form::FormResult<i64> {
    let student = viewer.user_jid().unwrap_or(-1);
    app.create(
        "submission",
        vec![
            Value::Int(assignment),
            Value::Int(student),
            Value::from(text),
            Value::Int(-1),
            Value::Bool(false),
        ],
    )
}

/// Builds the course-manager router. Read pages declare the tables
/// their policies consult at output time (`enrollment` for course
/// visibility, `assignment`/`course` for the submission and grade
/// policies); the two write actions require a login session and
/// declare their write footprints.
#[must_use]
pub fn router() -> Router {
    let mut r = Router::new();
    r.route_read_tables(
        "courses/all",
        &["course", "cuser", "enrollment"],
        |app, req: &Request| Response::ok(all_courses(app, &req.viewer)),
    );
    r.route_read_tables(
        "courses/all_unpruned",
        &["course", "cuser", "enrollment"],
        |app, req: &Request| Response::ok(all_courses_no_pruning(app, &req.viewer)),
    );
    // Fragment repair for both course listings: one line per course.
    // The unpruned ablation page renders byte-identically to the
    // pruned one (the Early Pruning soundness the differential suite
    // pins), so one fragment renderer serves both — and the executor
    // verifies the decomposition against each page's actual bytes on
    // every store.
    for path in ["courses/all", "courses/all_unpruned"] {
        r.route_fragments(
            path,
            "course",
            |_, _| ("== Courses ==\n".to_owned(), String::new()),
            |app, req: &Request, jid| course_fragment(app, &req.viewer, jid),
        );
    }
    r.route_read_tables(
        "submissions/one",
        &["submission", "assignment", "course"],
        |app, req: &Request| match req.int_param("id") {
            Some(id) => Response::ok(view_submission(app, &req.viewer, id)),
            None => Response::bad_request("submissions/one requires a numeric id parameter"),
        },
    );
    r.route_tables(
        "submissions/submit",
        &[],
        &["submission"],
        |app, req: &Request| {
            if req.viewer.user_jid().is_none() {
                return Response::forbidden("submitting an answer requires a login session");
            }
            match req.int_param("assignment") {
                Some(assignment) => {
                    let text = req.params.get("text").map_or("", String::as_str);
                    match submit_answer(app, &req.viewer, assignment, text) {
                        Ok(jid) => Response::ok(jid.to_string()),
                        Err(e) => Response::error(&e.to_string()),
                    }
                }
                None => Response::bad_request("submissions/submit requires a numeric assignment"),
            }
        },
    );
    r.route_tables(
        "submissions/grade",
        &[],
        &["submission"],
        |app, req: &Request| {
            if req.viewer.user_jid().is_none() {
                return Response::forbidden("grading requires a login session");
            }
            match (req.int_param("id"), req.int_param("grade")) {
                (Some(id), Some(grade)) => match grade_submission(app, id, grade) {
                    Ok(()) => Response::ok("graded".to_owned()),
                    Err(e) => Response::error(&e.to_string()),
                },
                _ => Response::bad_request("submissions/grade requires numeric id and grade"),
            }
        },
    );
    // Render-cache key canonicalization (see the conf router): only
    // `id` distinguishes submission pages; the course lists read no
    // params at all.
    r.canonicalize_int_params("submissions/one", &["id"]);
    r.canonicalize_int_params("courses/all", &[]);
    r.canonicalize_int_params("courses/all_unpruned", &[]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (App, i64, i64, i64) {
        let mut app = App::new();
        register(&mut app).unwrap();
        let teacher = app
            .create(
                "cuser",
                vec![Value::from("prof"), Value::from("instructor")],
            )
            .unwrap();
        let student = app
            .create("cuser", vec![Value::from("sam"), Value::from("student")])
            .unwrap();
        let course = app
            .create("course", vec![Value::from("PL 101"), Value::Int(teacher)])
            .unwrap();
        app.create("enrollment", vec![Value::Int(course), Value::Int(student)])
            .unwrap();
        (app, teacher, student, course)
    }

    #[test]
    fn enrolled_student_sees_course() {
        let (app, _, student, _) = setup();
        let page = all_courses(&app, &Viewer::User(student));
        assert!(page.contains("PL 101"), "{page}");
        assert!(page.contains("prof"));
    }

    #[test]
    fn outsider_sees_closed_listing() {
        let (app, _, _, _) = setup();
        let outsider = app
            .create("cuser", vec![Value::from("eve"), Value::from("student")])
            .unwrap();
        let page = all_courses(&app, &Viewer::User(outsider));
        assert!(page.contains("[closed course]"), "{page}");
        assert!(!page.contains("PL 101"));
    }

    #[test]
    fn pruned_and_unpruned_pages_agree() {
        let (app, teacher, student, _) = setup();
        for viewer in [
            Viewer::User(teacher),
            Viewer::User(student),
            Viewer::Anonymous,
        ] {
            let fast = all_courses(&app, &viewer);
            let slow = all_courses_no_pruning(&app, &viewer);
            assert_eq!(fast, slow, "viewer {viewer}");
        }
    }

    #[test]
    fn router_serves_pages_and_gates_writes() {
        let (app, teacher, student, course) = setup();
        let r = router();
        let page = r.handle(&app, &Request::new("courses/all", Viewer::User(student)));
        assert_eq!(page.status, 200);
        assert!(page.body.contains("PL 101"));
        let anon_submit = r.handle(&app, &Request::new("submissions/submit", Viewer::Anonymous));
        assert_eq!(anon_submit.status, 403, "writes require a session");
        let missing = r.handle(
            &app,
            &Request::new("submissions/one", Viewer::User(student)),
        );
        assert_eq!(missing.status, 400, "missing id is a parameter error");
        // Full write cycle through the router: submit then grade.
        let assignment = app
            .create("assignment", vec![Value::Int(course), Value::from("hw1")])
            .unwrap();
        let submitted = r.handle(
            &app,
            &Request::new("submissions/submit", Viewer::User(student))
                .with_param("assignment", &assignment.to_string())
                .with_param("text", "router answer"),
        );
        assert_eq!(submitted.status, 200);
        let sid = submitted.body.clone();
        let graded = r.handle(
            &app,
            &Request::new("submissions/grade", Viewer::User(teacher))
                .with_param("id", &sid)
                .with_param("grade", "91"),
        );
        assert_eq!(graded.status, 200);
        let view = r.handle(
            &app,
            &Request::new("submissions/one", Viewer::User(student)).with_param("id", &sid),
        );
        assert!(view.body.contains("91"), "{}", view.body);
    }

    #[test]
    fn grade_visible_to_student_only_after_grading() {
        let (app, teacher, student, course) = setup();
        let assignment = app
            .create("assignment", vec![Value::Int(course), Value::from("hw1")])
            .unwrap();
        let submission = app
            .create(
                "submission",
                vec![
                    Value::Int(assignment),
                    Value::Int(student),
                    Value::from("my answer"),
                    Value::Int(-1),
                    Value::Bool(false),
                ],
            )
            .unwrap();
        let before = view_submission(&app, &Viewer::User(student), submission);
        assert!(before.contains("(not released)"), "{before}");
        grade_submission(&app, submission, 95).unwrap();
        let after = view_submission(&app, &Viewer::User(student), submission);
        assert!(after.contains("95"), "{after}");
        let teacher_view = view_submission(&app, &Viewer::User(teacher), submission);
        assert!(teacher_view.contains("my answer"));
    }

    #[test]
    fn submission_text_hidden_from_other_students() {
        let (app, _, student, course) = setup();
        let other = app
            .create("cuser", vec![Value::from("olly"), Value::from("student")])
            .unwrap();
        app.create("enrollment", vec![Value::Int(course), Value::Int(other)])
            .unwrap();
        let assignment = app
            .create("assignment", vec![Value::Int(course), Value::from("hw1")])
            .unwrap();
        let submission = app
            .create(
                "submission",
                vec![
                    Value::Int(assignment),
                    Value::Int(student),
                    Value::from("secret answer"),
                    Value::Int(-1),
                    Value::Bool(false),
                ],
            )
            .unwrap();
        let peek = view_submission(&app, &Viewer::User(other), submission);
        assert!(peek.contains("[submission hidden]"), "{peek}");
    }
}
