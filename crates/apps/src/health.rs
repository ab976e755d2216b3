//! Health record manager — Jacqueline implementation (§6.1).
//!
//! Models a representative fragment of the HIPAA privacy standards:
//! individuals (patients, doctors, insurers), health records, and
//! permission waivers. Visibility depends on roles and on stateful
//! information — whether a waiver exists *at output time*.

use faceted::Faceted;
use jacqueline::{label_for, App, ModelDef, Request, Response, Router, Session, Viewer};
use microdb::{ColumnDef, ColumnType, Value};

// [section: models]

/// Registers the health models and policies.
///
/// # Errors
///
/// Propagates registration errors.
pub fn register(app: &mut App) -> form::FormResult<()> {
    app.register_model(ModelDef::public(
        "individual",
        vec![
            ColumnDef::new("name", ColumnType::Str),
            ColumnDef::new("role", ColumnType::Str), // patient | doctor | insurer
        ],
    ))?;
    app.register_model(ModelDef::public(
        "waiver",
        vec![
            ColumnDef::new("record", ColumnType::Int),
            ColumnDef::new("grantee", ColumnType::Int),
            ColumnDef::new("active", ColumnType::Bool),
        ],
    ))?;

    let record = ModelDef::public(
        "health_record",
        vec![
            ColumnDef::new("patient", ColumnType::Int),
            ColumnDef::new("doctor", ColumnType::Int),
            ColumnDef::new("insurer", ColumnType::Int),
            ColumnDef::new("diagnosis", ColumnType::Str),
            ColumnDef::new("treatment", ColumnType::Str),
        ],
    )
    // <policy>
    .with_policy(label_for(
        // HIPAA-style disclosure rule for the medical contents.
        "restrict_contents",
        vec![3, 4],
        |_row| vec![Value::from("[protected]"), Value::from("[protected]")],
        |args| {
            let Some(viewer) = args.viewer.user_jid() else {
                return Faceted::leaf(false);
            };
            // The patient and the treating doctor always have access.
            if args.row[0].as_int() == Some(viewer) || args.row[1].as_int() == Some(viewer) {
                return Faceted::leaf(true);
            }
            // The insurer (or anyone else) needs an *active* waiver —
            // checked against the waiver table at output time.
            let granted =
                |w: &microdb::Row| w[1] == Value::Int(viewer) && w[2] == Value::Bool(true);
            let waived = args
                .db
                .exists_eq("waiver", "record", Value::Int(args.jid), granted);
            waived.unwrap_or_else(|_| Faceted::leaf(false))
        },
    ));
    // </policy>
    app.register_model(record)?;

    // Foreign-key indexes (Django defaults).
    app.db.create_index("waiver", "record")?;
    app.db.create_index("health_record", "patient")?;

    Ok(())
}

// [section: views]
/// Summary page of all records (the Figure 9b stress-test page):
/// patient name, diagnosis (policy-resolved), treatment.
pub fn all_records_summary(app: &App, viewer: &Viewer) -> String {
    let mut session = Session::new(viewer.clone());
    let records = app.all("health_record").unwrap_or_default();
    let mut page = String::from("== Records ==\n");
    for row in session.view_rows(app, &records) {
        let patient = row[0].as_int().unwrap_or(-1);
        let name = app
            .get("individual", patient)
            .ok()
            .and_then(|o| session.view_object(app, &o))
            .map_or_else(
                || "(unknown)".to_owned(),
                |r| r[0].as_str().unwrap_or("?").to_owned(),
            );
        page.push_str(&format!(
            "{name}: {} / {}\n",
            row[3].as_str().unwrap_or("?"),
            row[4].as_str().unwrap_or("?"),
        ));
    }
    page
}

/// One record's line of [`all_records_summary`], rendered for
/// `viewer` through the same faceted projection the full page runs —
/// the render cache's repair path re-renders exactly these. The
/// waiver table (which the record policy consults) is a different
/// footprint table, so any waiver change blocks repair outright.
pub fn record_fragment(app: &App, viewer: &Viewer, jid: i64) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(record) = app.get("health_record", jid) else {
        return String::new();
    };
    let Some(row) = session.view_object(app, &record) else {
        return String::new();
    };
    let patient = row[0].as_int().unwrap_or(-1);
    let name = app
        .get("individual", patient)
        .ok()
        .and_then(|o| session.view_object(app, &o))
        .map_or_else(
            || "(unknown)".to_owned(),
            |r| r[0].as_str().unwrap_or("?").to_owned(),
        );
    format!(
        "{name}: {} / {}\n",
        row[3].as_str().unwrap_or("?"),
        row[4].as_str().unwrap_or("?"),
    )
}

/// One record in detail.
pub fn single_record(app: &App, viewer: &Viewer, record: i64) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(obj) = app.get("health_record", record) else {
        return "no such record".to_owned();
    };
    match session.view_object(app, &obj) {
        Some(row) => format!(
            "patient #{}: {} / {}\n",
            row[0],
            row[3].as_str().unwrap_or("?"),
            row[4].as_str().unwrap_or("?"),
        ),
        None => "no such record".to_owned(),
    }
}

/// Grants or revokes a waiver (stateful policy input). Takes `&self`
/// like every row-level write, so the waiver route runs under
/// footprint locks.
///
/// # Errors
///
/// Propagates database errors.
pub fn set_waiver(app: &App, record: i64, grantee: i64, active: bool) -> form::FormResult<i64> {
    app.create(
        "waiver",
        vec![Value::Int(record), Value::Int(grantee), Value::Bool(active)],
    )
}

/// Builds the health-records router: the two record pages (their
/// disclosure policy consults `waiver` at output time) plus the
/// waiver-granting write action, which requires a login session.
#[must_use]
pub fn router() -> Router {
    let mut r = Router::new();
    r.route_read_tables(
        "records/all",
        &["health_record", "individual", "waiver"],
        |app, req: &Request| Response::ok(all_records_summary(app, &req.viewer)),
    );
    // Fragment repair: one line per record, spliced from the write
    // journal on single-record writes.
    r.route_fragments(
        "records/all",
        "health_record",
        |_, _| ("== Records ==\n".to_owned(), String::new()),
        |app, req: &Request, jid| record_fragment(app, &req.viewer, jid),
    );
    r.route_read_tables(
        "records/one",
        &["health_record", "waiver"],
        |app, req: &Request| match req.int_param("id") {
            Some(id) => Response::ok(single_record(app, &req.viewer, id)),
            None => Response::bad_request("records/one requires a numeric id parameter"),
        },
    );
    r.route_tables("waivers/set", &[], &["waiver"], |app, req: &Request| {
        if req.viewer.user_jid().is_none() {
            return Response::forbidden("granting a waiver requires a login session");
        }
        match (req.int_param("record"), req.int_param("grantee")) {
            (Some(record), Some(grantee)) => {
                let active = req
                    .params
                    .get("active")
                    .is_none_or(|v| v == "true" || v == "1");
                match set_waiver(app, record, grantee, active) {
                    Ok(jid) => Response::ok(jid.to_string()),
                    Err(e) => Response::error(&e.to_string()),
                }
            }
            _ => Response::bad_request("waivers/set requires numeric record and grantee"),
        }
    });
    // Render-cache key canonicalization: record pages key on `id`
    // alone, the summary page on nothing.
    r.canonicalize_int_params("records/one", &["id"]);
    r.canonicalize_int_params("records/all", &[]);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (App, i64, i64, i64, i64) {
        let mut app = App::new();
        register(&mut app).unwrap();
        let patient = app
            .create(
                "individual",
                vec![Value::from("pat"), Value::from("patient")],
            )
            .unwrap();
        let doctor = app
            .create(
                "individual",
                vec![Value::from("doc"), Value::from("doctor")],
            )
            .unwrap();
        let insurer = app
            .create(
                "individual",
                vec![Value::from("ins"), Value::from("insurer")],
            )
            .unwrap();
        let record = app
            .create(
                "health_record",
                vec![
                    Value::Int(patient),
                    Value::Int(doctor),
                    Value::Int(insurer),
                    Value::from("flu"),
                    Value::from("rest"),
                ],
            )
            .unwrap();
        (app, patient, doctor, insurer, record)
    }

    #[test]
    fn patient_and_doctor_see_contents() {
        let (app, patient, doctor, _, record) = setup();
        assert!(single_record(&app, &Viewer::User(patient), record).contains("flu"));
        assert!(single_record(&app, &Viewer::User(doctor), record).contains("flu"));
    }

    #[test]
    fn insurer_needs_active_waiver() {
        let (app, _, _, insurer, record) = setup();
        let before = single_record(&app, &Viewer::User(insurer), record);
        assert!(before.contains("[protected]"), "{before}");
        set_waiver(&app, record, insurer, true).unwrap();
        let after = single_record(&app, &Viewer::User(insurer), record);
        assert!(after.contains("flu"), "{after}");
    }

    #[test]
    fn inactive_waiver_grants_nothing() {
        let (app, _, _, insurer, record) = setup();
        set_waiver(&app, record, insurer, false).unwrap();
        assert!(single_record(&app, &Viewer::User(insurer), record).contains("[protected]"));
    }

    #[test]
    fn router_serves_pages_and_gates_waivers() {
        let (app, _, _, insurer, record) = setup();
        let r = router();
        let page = r.handle(&app, &Request::new("records/all", Viewer::User(insurer)));
        assert_eq!(page.status, 200);
        assert!(page.body.contains("[protected]"), "{}", page.body);
        let missing = r.handle(&app, &Request::new("records/one", Viewer::User(insurer)));
        assert_eq!(missing.status, 400);
        let anon = r.handle(&app, &Request::new("waivers/set", Viewer::Anonymous));
        assert_eq!(anon.status, 403);
        let granted = r.handle(
            &app,
            &Request::new("waivers/set", Viewer::User(insurer))
                .with_param("record", &record.to_string())
                .with_param("grantee", &insurer.to_string()),
        );
        assert_eq!(granted.status, 200);
        let after = r.handle(
            &app,
            &Request::new("records/one", Viewer::User(insurer))
                .with_param("id", &record.to_string()),
        );
        assert!(after.body.contains("flu"), "{}", after.body);
    }

    #[test]
    fn strangers_see_placeholders_in_summary() {
        let (app, _, _, _, _) = setup();
        let stranger = app
            .create(
                "individual",
                vec![Value::from("eve"), Value::from("patient")],
            )
            .unwrap();
        let page = all_records_summary(&app, &Viewer::User(stranger));
        assert!(page.contains("[protected]"), "{page}");
        assert!(!page.contains("flu"));
    }
}
