//! Wiring the case-study applications to the socket front-end: each
//! app's router registered behind its wire paths, plus a `login`
//! route that mints session tokens.
//!
//! The [`Site`]s built here are what [`jacqueline::Server::bind`]
//! serves. Viewer identity never travels in request parameters: a
//! client POSTs `login` with `user=<jid>`, receives an opaque token
//! (body and `Set-Cookie: session=…`), and every later request is
//! resolved back to that viewer by the server's
//! [`Authenticator`] — exactly the boundary the in-process harness
//! skips.
//!
//! # Persistence
//!
//! The `*_site_persistent` constructors wrap an app with the durable
//! checkpoint machinery: the write log attaches to a checkpoint
//! directory and the router gains the `admin/checkpoint` route (see
//! [`jacqueline::checkpoint`]). The matching
//! `*_site_restored` constructors are **boot-from-checkpoint**: a
//! blank app registers the same models, restores the checkpoint (plus
//! log replay), and comes back serving byte-identical pages to every
//! viewer. Sessions are deliberately ephemeral — clients re-login
//! after a restart; everything behind the login (labels, policies,
//! facet DAGs, rows) survives.

use std::path::Path;
use std::sync::Arc;

use jacqueline::{App, Authenticator, Request, Response, Router, Site, Viewer};

use crate::{conf, courses, health};

/// Adds the `login` route to a router: `user=<jid>` must name an
/// existing profile object in `user_table`; success mints a session
/// token, returned both as the response body and as a
/// `Set-Cookie: session=…` header.
///
/// The reproduction's credential check is profile existence — the
/// paper's evaluation drives known users through FunkLoad the same
/// way. A real deployment would verify a password here; everything
/// *after* this point (token → viewer → policies) is the part the
/// paper is about.
///
/// Registered as a *write* route (database footprint: reads only):
/// minting a token mutates the session store, and the server only
/// lets write routes answer `POST` — so a crawler `GET /login?user=2`
/// cannot leak tokens into URLs/logs or grow the session map.
pub fn add_login_route(router: &mut Router, auth: Arc<Authenticator>, user_table: &'static str) {
    router.route_tables(
        "login",
        &[user_table],
        &[],
        move |app: &App, req: &Request| {
            let Some(jid) = req.int_param("user") else {
                return Response::bad_request("login requires a numeric user=<jid> parameter");
            };
            if app.get(user_table, jid).is_err() {
                return Response::forbidden("no such user");
            }
            let token = auth.login(Viewer::User(jid));
            let cookie = format!("session={token}; HttpOnly");
            Response::ok(token).with_header("Set-Cookie", &cookie)
        },
    );
}

fn site_with_login(app: App, mut router: Router, user_table: &'static str) -> Site {
    let auth = Arc::new(Authenticator::new());
    add_login_route(&mut router, Arc::clone(&auth), user_table);
    // Every served site exposes `admin/health`, so an operator (or
    // the chaos harness) can tell "down" apart from "read-only
    // degraded" without guessing from a failed write.
    jacqueline::add_health_route(&mut router);
    Site {
        app: Arc::new(app),
        router: Arc::new(router),
        auth,
    }
}

/// The conference manager behind its wire paths (`papers/all`,
/// `papers/one`, `users/all`, `users/one`, `papers/submit`,
/// `reviews/submit`) plus `login` over `user_profile`.
#[must_use]
pub fn conference_site(app: App) -> Site {
    site_with_login(app, conf::router(), "user_profile")
}

/// The course manager behind its wire paths (`courses/all`,
/// `courses/all_unpruned`, `submissions/*`) plus `login` over
/// `cuser`.
#[must_use]
pub fn courses_site(app: App) -> Site {
    site_with_login(app, courses::router(), "cuser")
}

/// The health-record manager behind its wire paths (`records/all`,
/// `records/one`, `waivers/set`) plus `login` over `individual`.
#[must_use]
pub fn health_site(app: App) -> Site {
    site_with_login(app, health::router(), "individual")
}

/// Wraps an app + router with persistence: the log attached to `dir`,
/// an initial checkpoint taken, `admin/checkpoint` registered, login
/// wired over `user_table`.
///
/// The initial checkpoint matters twice over: state that predates
/// `enable_persistence` (seed data, a freshly restored snapshot) is
/// not in the log, so without it a crash before the first
/// `admin/checkpoint` would leave the directory unrestorable — and
/// on the restore path it compacts the replayed log into a clean
/// baseline.
fn persistent_site(
    mut app: App,
    mut router: Router,
    user_table: &'static str,
    dir: &Path,
) -> form::FormResult<Site> {
    app.enable_persistence(dir)?;
    app.checkpoint_quiescent(dir)?;
    jacqueline::add_checkpoint_route(&mut router, dir);
    Ok(site_with_login(app, router, user_table))
}

/// Boot-from-checkpoint: a blank app, the same models re-registered,
/// state restored from `dir`, persistence re-enabled.
fn restored_site(
    register: impl FnOnce(&mut App) -> form::FormResult<()>,
    router: Router,
    user_table: &'static str,
    dir: &Path,
) -> form::FormResult<Site> {
    let mut app = App::new();
    register(&mut app)?;
    app.restore_from(dir)?;
    persistent_site(app, router, user_table, dir)
}

/// [`conference_site`] plus persistence: the write log in `dir`, and
/// the `admin/checkpoint` route.
///
/// # Errors
///
/// I/O errors attaching the log.
pub fn conference_site_persistent(app: App, dir: impl AsRef<Path>) -> form::FormResult<Site> {
    persistent_site(app, conf::router(), "user_profile", dir.as_ref())
}

/// Boots the conference app from the checkpoint in `dir`: every page
/// a restored server renders is byte-identical to the pre-restart
/// server, for every viewer.
///
/// # Errors
///
/// Missing/corrupt checkpoint, or a checkpoint from different
/// application code.
pub fn conference_site_restored(dir: impl AsRef<Path>) -> form::FormResult<Site> {
    restored_site(conf::register, conf::router(), "user_profile", dir.as_ref())
}

/// [`courses_site`] plus persistence (see
/// [`conference_site_persistent`]).
///
/// # Errors
///
/// I/O errors attaching the log.
pub fn courses_site_persistent(app: App, dir: impl AsRef<Path>) -> form::FormResult<Site> {
    persistent_site(app, courses::router(), "cuser", dir.as_ref())
}

/// Boots the course manager from the checkpoint in `dir`.
///
/// # Errors
///
/// Missing/corrupt checkpoint, or a checkpoint from different
/// application code.
pub fn courses_site_restored(dir: impl AsRef<Path>) -> form::FormResult<Site> {
    restored_site(courses::register, courses::router(), "cuser", dir.as_ref())
}

/// [`health_site`] plus persistence (see
/// [`conference_site_persistent`]).
///
/// # Errors
///
/// I/O errors attaching the log.
pub fn health_site_persistent(app: App, dir: impl AsRef<Path>) -> form::FormResult<Site> {
    persistent_site(app, health::router(), "individual", dir.as_ref())
}

/// Boots the health-record manager from the checkpoint in `dir`.
///
/// # Errors
///
/// Missing/corrupt checkpoint, or a checkpoint from different
/// application code.
pub fn health_site_restored(dir: impl AsRef<Path>) -> form::FormResult<Site> {
    restored_site(
        health::register,
        health::router(),
        "individual",
        dir.as_ref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn login_mints_a_token_bound_to_the_viewer() {
        let site = conference_site(workload::conference(6, 4).app);
        let response = site.router.handle(
            &site.app,
            &Request::new("login", Viewer::Anonymous).with_param("user", "3"),
        );
        assert_eq!(response.status, 200);
        let token = response.body.clone();
        assert_eq!(site.auth.viewer_for(&token), Some(Viewer::User(3)));
        let cookie = response.header("set-cookie").unwrap();
        assert!(cookie.starts_with(&format!("session={token}")), "{cookie}");
    }

    #[test]
    fn login_rejects_unknown_users_and_bad_params() {
        let site = conference_site(workload::conference(4, 2).app);
        let unknown = site.router.handle(
            &site.app,
            &Request::new("login", Viewer::Anonymous).with_param("user", "999"),
        );
        assert_eq!(unknown.status, 403);
        let malformed = site.router.handle(
            &site.app,
            &Request::new("login", Viewer::Anonymous).with_param("user", "carol"),
        );
        assert_eq!(malformed.status, 400);
        let missing = site
            .router
            .handle(&site.app, &Request::new("login", Viewer::Anonymous));
        assert_eq!(missing.status, 400);
        assert_eq!(site.auth.live_sessions(), 0, "failures mint nothing");
    }

    /// Every app's full all-pages × all-viewers grid survives a
    /// checkpoint → blank process → restore cycle byte-for-byte, with
    /// facet-DAG sharing intact (the ISSUE's acceptance criterion, in
    /// its in-process form; `tests/checkpoint_e2e.rs` pins the served
    /// version under concurrent writers).
    #[test]
    fn restored_sites_render_identical_grids() {
        let dir_root =
            std::env::temp_dir().join(format!("jacq_serve_restore_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir_root);
        type SiteBuilder = fn(App) -> Site;
        type RestoredBuilder = fn(&std::path::Path) -> form::FormResult<Site>;
        type Case = (
            &'static str,
            App,
            SiteBuilder,
            RestoredBuilder,
            Vec<String>,
            i64,
        );
        let cases: Vec<Case> = vec![
            (
                "conference",
                workload::conference(6, 5).app,
                conference_site as SiteBuilder,
                (|d| conference_site_restored(d)) as RestoredBuilder,
                {
                    let mut pages = vec!["papers/all".to_owned(), "users/all".to_owned()];
                    pages.extend((1..=5).map(|p| format!("papers/one?id={p}")));
                    pages
                },
                6,
            ),
            (
                "courses",
                workload::courses(4).app,
                courses_site as SiteBuilder,
                (|d| courses_site_restored(d)) as RestoredBuilder,
                vec!["courses/all".to_owned()],
                5,
            ),
            (
                "health",
                workload::health(8).app,
                health_site as SiteBuilder,
                (|d| health_site_restored(d)) as RestoredBuilder,
                vec!["records/all".to_owned()],
                8,
            ),
        ];
        for (name, app, build, restore, pages, users) in cases {
            let dir = dir_root.join(name);
            let stats = app.checkpoint_quiescent(&dir).unwrap();
            assert!(stats.objects > 0, "{name}: checkpoint captured objects");
            let site = build(app);
            let restored = restore(&dir).unwrap_or_else(|e| panic!("{name}: {e}"));
            let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
                .chain((1..=users).map(Viewer::User))
                .collect();
            for page in &pages {
                let (path, params) = match page.split_once('?') {
                    None => (page.as_str(), None),
                    Some((p, q)) => (p, q.split_once('=')),
                };
                for viewer in &viewers {
                    let mut request = Request::new(path, viewer.clone());
                    if let Some((k, v)) = params {
                        request = request.with_param(k, v);
                    }
                    let before = site.router.handle(&site.app, &request);
                    let after = restored.router.handle(&restored.app, &request);
                    assert_eq!(
                        (before.status, before.body),
                        (after.status, after.body),
                        "{name}: {page} for {viewer}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir_root);
    }

    #[test]
    fn all_three_sites_have_login_and_their_pages() {
        for (site, page) in [
            (
                conference_site(workload::conference(4, 2).app),
                "papers/all",
            ),
            (courses_site(workload::courses(3).app), "courses/all"),
            (health_site(workload::health(6).app), "records/all"),
        ] {
            assert!(site.router.paths().contains(&"login"), "{page}");
            let served = site
                .router
                .handle(&site.app, &Request::new(page, Viewer::Anonymous));
            assert_eq!(served.status, 200, "{page}");
        }
    }
}
