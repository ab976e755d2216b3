//! `paper_pages`: the paper's §6 pages in process, one thread, closed
//! loop. Each Jacqueline request goes through `Router::handle` (so the
//! render cache is not involved) and is followed by its hand-coded
//! baseline twin for the same viewer; the two must render the same
//! bytes.
//!
//! The traced run repeats each page's controller calls in the
//! controller's order, timing the `App` queries (`form`) and the
//! `Session` projections (`session`, which includes `labelsat`); the
//! rest of the controller's time is page formatting (`apps`). The
//! traced page must equal the controller's bytes.

use std::path::Path;
use std::time::{Duration, Instant};

use apps::workload::{self, CoursesWorkload, HealthWorkload};
use apps::{conf, courses, health};
use jacqueline::{App, Request, Response, Router, Session, Viewer};
use microdb::Value;

use crate::data::{self, Conference, Rng};
use crate::oracle::email_leak;
use crate::served::facet_metrics;
use crate::stats::{geomean, median, ms, percentile, ratio, us, Latencies, Report};

/// Rows per page: papers and users in the conference, courses, and
/// individuals in the health app.
const N: usize = 1024;
const SETUPS: usize = 5;
/// In-process writes timed after the page loop, paced so they sample
/// the host over a few seconds rather than one burst.
const WRITES: usize = 5000;
const WRITE_EVERY: Duration = Duration::from_micros(500);
/// Restore rounds, spread across the page loop.
const RESTORES: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Page {
    PapersAll,
    UsersAll,
    PapersOne,
    UsersOne,
    CoursesAll,
    RecordsAll,
}

const PAGES: [Page; 6] = [
    Page::PapersAll,
    Page::UsersAll,
    Page::PapersOne,
    Page::UsersOne,
    Page::CoursesAll,
    Page::RecordsAll,
];

impl Page {
    fn key(self) -> &'static str {
        match self {
            Page::PapersAll => "papers_all",
            Page::UsersAll => "users_all",
            Page::PapersOne => "papers_one",
            Page::UsersOne => "users_one",
            Page::CoursesAll => "courses_all",
            Page::RecordsAll => "records_all",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Page::PapersAll => "papers/all",
            Page::UsersAll => "users/all",
            Page::PapersOne => "papers/one",
            Page::UsersOne => "users/one",
            Page::CoursesAll => "courses/all",
            Page::RecordsAll => "records/all",
        }
    }
}

/// The three case studies, each in both implementations.
struct Apps {
    conf: Conference,
    conf_router: Router,
    courses: CoursesWorkload,
    courses_router: Router,
    health: HealthWorkload,
    health_router: Router,
    doctors: Vec<i64>,
}

struct Item {
    page: Page,
    req: Request,
}

impl Apps {
    fn build(seed: u64) -> Apps {
        let conf = data::conference(N, N, seed);
        let courses = workload::courses(N);
        let mut health = workload::health(N);
        let doctors = (1..=N as i64 + 1)
            .filter(|&jid| {
                matches!(health.vanilla.db.get("individual", jid), Ok(Some(row))
                    if row[2].as_str() == Some("doctor"))
            })
            .collect();
        let mut apps = Apps {
            conf,
            conf_router: conf::router(),
            courses,
            courses_router: courses::router(),
            health,
            health_router: health::router(),
            doctors,
        };
        // Warm the decode caches the way a running server's would be.
        let mut rng = Rng::new(seed);
        for item in apps.items(&mut rng, 2) {
            let _ = apps.jacqueline(&item);
            let _ = apps.baseline(&item);
        }
        apps
    }

    /// `rounds` requests of every page, viewers and ids drawn by seed:
    /// conference pages for any user, `courses/all` for the enrolled
    /// student (Figure 9c), `records/all` for any doctor (Figure 9b).
    fn items(&self, rng: &mut Rng, rounds: usize) -> Vec<Item> {
        let users = &self.conf.users;
        let mut out = Vec::with_capacity(rounds * PAGES.len());
        for _ in 0..rounds {
            for page in PAGES {
                let viewer = match page {
                    Page::CoursesAll => self.courses.student,
                    Page::RecordsAll => self.doctors[rng.below(self.doctors.len())],
                    _ => users[rng.below(users.len())].jid,
                };
                let mut req = Request::new(page.path(), Viewer::User(viewer));
                match page {
                    Page::PapersOne => {
                        let id = self.conf.papers[rng.below(self.conf.papers.len())];
                        req = req.with_param("id", &id.to_string());
                    }
                    Page::UsersOne => {
                        let id = users[rng.below(users.len())].jid;
                        req = req.with_param("id", &id.to_string());
                    }
                    _ => {}
                }
                out.push(Item { page, req });
            }
        }
        out
    }

    fn app_and_router(&self, page: Page) -> (&App, &Router) {
        match page {
            Page::CoursesAll => (&self.courses.app, &self.courses_router),
            Page::RecordsAll => (&self.health.app, &self.health_router),
            _ => (&self.conf.app, &self.conf_router),
        }
    }

    fn jacqueline(&self, item: &Item) -> Response {
        let (app, router) = self.app_and_router(item.page);
        router.handle(app, &item.req)
    }

    fn baseline(&mut self, item: &Item) -> String {
        let viewer = &item.req.viewer;
        let id = item.req.int_param("id").unwrap_or(-1);
        match item.page {
            Page::PapersAll => self.conf.vanilla.all_papers(viewer),
            Page::UsersAll => self.conf.vanilla.all_users(viewer),
            Page::PapersOne => self.conf.vanilla.single_paper(viewer, id),
            Page::UsersOne => self.conf.vanilla.single_user(viewer, id),
            Page::CoursesAll => self.courses.vanilla.all_courses(viewer),
            Page::RecordsAll => self.health.vanilla.all_records_summary(viewer),
        }
    }

    /// The page's controller, re-run with its `form` and `session`
    /// calls timed.
    fn traced(&self, item: &Item, t: &mut Split) -> String {
        let (app, _) = self.app_and_router(item.page);
        let viewer = &item.req.viewer;
        let id = item.req.int_param("id").unwrap_or(-1);
        match item.page {
            Page::PapersAll => papers_all(app, viewer, t),
            Page::UsersAll => users_all(app, viewer, t),
            Page::PapersOne => single_paper(app, viewer, id, t),
            Page::UsersOne => single_user(app, viewer, id, t),
            Page::CoursesAll => all_courses(app, viewer, t),
            Page::RecordsAll => all_records(app, viewer, t),
        }
    }

    fn all_apps(&self) -> [&App; 3] {
        [&self.conf.app, &self.courses.app, &self.health.app]
    }
}

/// Time spent in the `form` queries and the `session` projections of
/// one traced page.
#[derive(Default)]
struct Split {
    form: Duration,
    session: Duration,
}

impl Split {
    fn form<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.form += started.elapsed();
        out
    }

    fn session<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.session += started.elapsed();
        out
    }
}

fn first_str(row: &[Value], i: usize) -> &str {
    row[i].as_str().unwrap_or("?")
}

/// `conf::author_name`, timed.
fn author_name(app: &App, session: &mut Session, author: &Value, t: &mut Split) -> String {
    match author.as_int() {
        Some(jid) if jid >= 0 => match t.form(|| app.get("user_profile", jid)) {
            Ok(profile) => t
                .session(|| session.view_object(app, &profile))
                .map_or_else(|| "(unknown)".to_owned(), |r| first_str(&r, 0).to_owned()),
            Err(_) => "(unknown)".to_owned(),
        },
        _ => "(anonymous)".to_owned(),
    }
}

/// `conf::all_papers`, timed.
fn papers_all(app: &App, viewer: &Viewer, t: &mut Split) -> String {
    let mut session = Session::new(viewer.clone());
    let papers = t.form(|| app.all("paper").unwrap_or_default());
    let mut page = String::from("== Papers ==\n");
    for row in t.session(|| session.view_rows(app, &papers)) {
        let title = first_str(row, 0).to_owned();
        let author = author_name(app, &mut session, &row[1], t);
        page.push_str(&format!("{title} by {author}\n"));
    }
    page
}

/// `conf::all_users`, timed.
fn users_all(app: &App, viewer: &Viewer, t: &mut Split) -> String {
    let mut session = Session::new(viewer.clone());
    let users = t.form(|| app.all("user_profile").unwrap_or_default());
    let mut page = String::from("== Users ==\n");
    for row in t.session(|| session.view_rows(app, &users)) {
        page.push_str(&format!(
            "{} ({}) <{}>\n",
            first_str(row, 0),
            first_str(row, 2),
            first_str(row, 3),
        ));
    }
    page
}

/// `conf::single_paper`, timed.
fn single_paper(app: &App, viewer: &Viewer, paper: i64, t: &mut Split) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(obj) = t.form(|| app.get("paper", paper)) else {
        return "no such paper".to_owned();
    };
    let Some(row) = t.session(|| session.view_object(app, &obj)) else {
        return "no such paper".to_owned();
    };
    let title = first_str(&row, 0).to_owned();
    let author = author_name(app, &mut session, &row[1], t);
    let mut page = format!("= {title} by {author} =\n");
    let reviews = t.form(|| {
        app.filter_eq("review", "paper", Value::Int(paper))
            .unwrap_or_default()
    });
    for r in t.session(|| session.view_rows(app, &reviews)) {
        let reviewer = author_name(app, &mut session, &r[1], t);
        page.push_str(&format!(
            "review by {reviewer}: score {} — {}\n",
            r[2],
            first_str(r, 3)
        ));
    }
    page
}

/// `conf::single_user`, timed.
fn single_user(app: &App, viewer: &Viewer, user: i64, t: &mut Split) -> String {
    let mut session = Session::new(viewer.clone());
    let Ok(obj) = t.form(|| app.get("user_profile", user)) else {
        return "no such user".to_owned();
    };
    match t.session(|| session.view_object(app, &obj)) {
        Some(row) => format!(
            "{} ({}) <{}>\n",
            first_str(&row, 0),
            first_str(&row, 2),
            first_str(&row, 3),
        ),
        None => "no such user".to_owned(),
    }
}

/// `courses::all_courses`, timed.
fn all_courses(app: &App, viewer: &Viewer, t: &mut Split) -> String {
    let mut session = Session::new(viewer.clone());
    let courses = t.form(|| app.all("course").unwrap_or_default());
    let mut page = String::from("== Courses ==\n");
    for row in t.session(|| session.view_rows(app, &courses)) {
        let instructor = row[1].as_int().unwrap_or(-1);
        let name = if instructor >= 0 {
            t.form(|| app.get("cuser", instructor))
                .ok()
                .and_then(|o| t.session(|| session.view_object(app, &o)))
                .map_or_else(|| "(unknown)".to_owned(), |r| first_str(&r, 0).to_owned())
        } else {
            "(unlisted)".to_owned()
        };
        page.push_str(&format!("{} taught by {name}\n", first_str(row, 0)));
    }
    page
}

/// `health::all_records_summary`, timed.
fn all_records(app: &App, viewer: &Viewer, t: &mut Split) -> String {
    let mut session = Session::new(viewer.clone());
    let records = t.form(|| app.all("health_record").unwrap_or_default());
    let mut page = String::from("== Records ==\n");
    for row in t.session(|| session.view_rows(app, &records)) {
        let patient = row[0].as_int().unwrap_or(-1);
        let name = t
            .form(|| app.get("individual", patient))
            .ok()
            .and_then(|o| t.session(|| session.view_object(app, &o)))
            .map_or_else(|| "(unknown)".to_owned(), |r| first_str(&r, 0).to_owned());
        page.push_str(&format!(
            "{name}: {} / {}\n",
            first_str(row, 3),
            first_str(row, 4),
        ));
    }
    page
}

/// Per-page samples of one run.
#[derive(Default)]
struct PerPage {
    jacqueline: Vec<f64>,
    baseline: Vec<f64>,
    traced: Vec<f64>,
    form: Vec<f64>,
    session: Vec<f64>,
    format: Vec<f64>,
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    report.note(format!(
        "workload paper_pages: conference {N} users x {N} papers, courses n={N}, health n={N}; one thread, closed loop, each request followed by its baseline twin"
    ));
    let mut setups = Vec::new();
    let mut apps = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(apps.take());
        let started = Instant::now();
        apps = Some(Apps::build(seed));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut apps = apps.expect("at least one set-up");
    let mut rng = Rng::new(seed ^ 0x7061_6765);
    let items = apps.items(&mut rng, 2000);

    // Restores run between rounds across the loop, so their median
    // samples the host over the whole run rather than one moment.
    let store = if trace { 0.0 } else { checkpoint(&apps, work)? };
    let mut restores = Vec::new();
    let mut restored = Vec::new();
    let restore_every = Duration::from_secs_f64(seconds / RESTORES as f64);
    let mut next_restore = Instant::now();

    let decode0 = data::decode_stats(&apps.all_apps());
    let facets0 = data::facets();
    let mut per: Vec<PerPage> = PAGES.iter().map(|_| PerPage::default()).collect();
    let mut all_j = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut requests = 0.0;
    for (n, item) in items.iter().enumerate().cycle() {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if !trace && n % PAGES.len() == 0 && now >= next_restore {
            let (took, apps) = restore(work)?;
            restores.push(took);
            restored = apps;
            next_restore = now + restore_every;
        }
        requests += 1.0;
        let p = PAGES
            .iter()
            .position(|&x| x == item.page)
            .expect("known page");
        // The traced run alternates rounds: a page rendered twice in a
        // row would find the first render's memo entries, so traced and
        // untraced renders never share a (page, viewer) back to back.
        if trace && (n / PAGES.len()) % 2 == 1 {
            let mut split = Split::default();
            let started = Instant::now();
            let page = apps.traced(item, &mut split);
            let total = started.elapsed();
            let response = apps.jacqueline(item);
            if page != response.body {
                report.wrong(format!(
                    "traced {} differs from its controller",
                    item.page.key()
                ));
            }
            let baseline = apps.baseline(item);
            check(item, &response, &baseline, &apps, report);
            per[p].traced.push(ms(total));
            per[p].form.push(us(split.form));
            per[p].session.push(us(split.session));
            per[p]
                .format
                .push(us(total.saturating_sub(split.form + split.session)));
            continue;
        }
        let started = Instant::now();
        let response = apps.jacqueline(item);
        let j = started.elapsed();
        let started = Instant::now();
        let baseline = apps.baseline(item);
        let b = started.elapsed();
        check(item, &response, &baseline, &apps, report);
        per[p].jacqueline.push(ms(j));
        per[p].baseline.push(ms(b));
        all_j.push(j.as_secs_f64());
    }
    report.note(format!(
        "samples: {} Jacqueline pages ({} per page type)",
        all_j.len(),
        per.iter().map(|p| p.jacqueline.len()).min().unwrap_or(0)
    ));
    for (page, p) in PAGES.iter().zip(&per) {
        report.note(format!(
            "  {:<12} jacqueline p50 {:.4} ms, baseline p50 {:.4} ms, ratio {:.3}",
            page.key(),
            median(&p.jacqueline),
            median(&p.baseline),
            ratio(median(&p.jacqueline), median(&p.baseline))
        ));
    }

    if trace {
        for (page, p) in PAGES.iter().zip(&per) {
            report.metric(
                &format!("form.query_us.{}", page.key()),
                median(&p.form),
                "us",
            );
            report.metric(
                &format!("session.view_us.{}", page.key()),
                median(&p.session),
                "us",
            );
            report.metric(
                &format!("apps.format_us.{}", page.key()),
                median(&p.format),
                "us",
            );
        }
        let decode1 = data::decode_stats(&apps.all_apps());
        let hits = decode1.0 - decode0.0;
        report.metric(
            "form.decode_hit_ratio",
            ratio(hits, hits + decode1.1 - decode0.1),
            "ratio",
        );
        facet_metrics(facets0, data::facets(), requests, report);
        let slowdown: Vec<f64> = per
            .iter()
            .map(|p| ratio(median(&p.traced), median(&p.jacqueline)))
            .collect();
        report.metric(
            "trace.overhead_pct",
            (geomean(&slowdown) - 1.0) * 100.0,
            "pct",
        );
        return Ok(());
    }

    check_restored(&apps, &restored, &items, report);
    report.metric("setup_s", median(&setups), "s");
    let p50s: Vec<f64> = per.iter().map(|p| median(&p.jacqueline)).collect();
    report.metric("read_p50_ms", geomean(&p50s), "ms");
    report.metric("read_p99_ms", percentile(&all_j, 99.0) * 1e3, "ms");
    let writes = writes(&apps, &mut rng, report);
    report.metric("write_p50_ms", writes.p50(), "ms");
    report.metric("write_p99_ms", writes.p99(), "ms");
    report.metric("peak_rps", ratio(requests, all_j.iter().sum()), "req/s");
    let ratios: Vec<f64> = per
        .iter()
        .map(|p| ratio(median(&p.jacqueline), median(&p.baseline)))
        .collect();
    report.metric("overhead_x", geomean(&ratios), "ratio");
    report.metric("restore_s", median(&restores), "s");
    report.metric("store_bytes_per_row", store, "B/row");
    Ok(())
}

/// The oracle for one request: OK status, Jacqueline bytes equal to the
/// baseline's, and no email leak.
fn check(item: &Item, response: &Response, baseline: &str, apps: &Apps, report: &mut Report) {
    if response.status != 200 {
        report.count(false);
        return;
    }
    if response.body != baseline {
        report.wrong(format!(
            "{} for {} differs between Jacqueline and the baseline",
            item.page.key(),
            item.req.viewer
        ));
        return;
    }
    if matches!(item.page, Page::UsersAll | Page::UsersOne) {
        let viewer = item.req.viewer.user_jid();
        let user = apps.conf.users.iter().find(|u| Some(u.jid) == viewer);
        if !user.is_some_and(data::User::is_chair) {
            if let Some(leak) = email_leak(&response.body, user.map(|u| u.email.as_str())) {
                report.wrong(format!(
                    "{} for {} shows {leak}",
                    item.page.key(),
                    item.req.viewer
                ));
                return;
            }
        }
    }
    report.count(true);
}

/// `WRITES` acknowledged writes through `Router::handle` on the
/// conference app (paper and review submissions, alternating), one
/// every `WRITE_EVERY`, each timed on its own.
fn writes(apps: &Apps, rng: &mut Rng, report: &mut Report) -> Latencies {
    let users = &apps.conf.users;
    let papers = &apps.conf.papers;
    let mut out = Latencies::default();
    let start = Instant::now();
    for i in 0..WRITES {
        let viewer = Viewer::User(users[rng.below(users.len())].jid);
        let req = if i % 2 == 0 {
            Request::new("papers/submit", viewer).with_param("title", &format!("bench paper {i}"))
        } else {
            Request::new("reviews/submit", viewer)
                .with_param("paper", &papers[rng.below(papers.len())].to_string())
                .with_param("score", &rng.below(5).to_string())
                .with_param("text", &format!("bench review {i}"))
        };
        let due = WRITE_EVERY * i as u32;
        if let Some(wait) = (start + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let started = Instant::now();
        let response = apps.conf_router.handle(&apps.conf.app, &req);
        let elapsed = started.elapsed();
        let ok = response.status == 200 && response.body.parse::<i64>().is_ok();
        report.count(ok);
        if ok {
            let page = if i % 2 == 0 {
                "papers/submit"
            } else {
                "reviews/submit"
            };
            out.push(page, due, ms(elapsed));
        }
    }
    out
}

type Register = fn(&mut App) -> form::FormResult<()>;

/// The three apps' persistence directories and how to re-register each.
const STORES: [(&str, Register); 3] = [
    ("conference", conf::register),
    ("courses", courses::register),
    ("health", health::register),
];

/// Checkpoints the three apps into `work`; returns bytes per physical
/// row across the three directories.
fn checkpoint(apps: &Apps, work: &Path) -> Result<f64, String> {
    let (mut bytes, mut rows) = (0, 0);
    for ((name, _), app) in STORES.iter().zip(apps.all_apps()) {
        let dir = work.join(name);
        data::fresh_dir(&dir).map_err(|e| e.to_string())?;
        app.checkpoint_quiescent(&dir)
            .map_err(|e| format!("checkpoint {name}: {e}"))?;
        bytes += data::dir_bytes(&dir);
        rows += data::physical_rows(app);
    }
    Ok(bytes as f64 / rows as f64)
}

/// Restores three blank apps from `work`, timed together.
fn restore(work: &Path) -> Result<(f64, Vec<App>), String> {
    let started = Instant::now();
    let mut restored = Vec::with_capacity(STORES.len());
    for (name, register) in STORES {
        let mut app = App::new();
        register(&mut app).map_err(|e| e.to_string())?;
        app.restore_from(work.join(name))
            .map_err(|e| format!("restore {name}: {e}"))?;
        restored.push(app);
    }
    Ok((started.elapsed().as_secs_f64(), restored))
}

/// The restored apps must render sampled pages as the live ones do.
fn check_restored(apps: &Apps, restored: &[App], items: &[Item], report: &mut Report) {
    for item in items.iter().take(PAGES.len() * 8) {
        let (_, router) = apps.app_and_router(item.page);
        let app = &restored[match item.page {
            Page::CoursesAll => 1,
            Page::RecordsAll => 2,
            _ => 0,
        }];
        if router.handle(app, &item.req).body == apps.jacqueline(item).body {
            report.count(true);
        } else {
            report.wrong(format!(
                "{} for {} differs after restore",
                item.page.key(),
                item.req.viewer
            ));
        }
    }
}
