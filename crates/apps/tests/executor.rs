//! Concurrent-executor differential tests: several threads running
//! [`Executor::run`] against one shared app must produce
//! **byte-identical** page output to one sequential run (and therefore, transitively through `differential.rs`, to the
//! hand-coded baselines) — the strongest check that sharing one
//! `Send + Sync` faceted database across worker threads changes
//! nothing observable.

use apps::workload;
use jacqueline::{App, Executor, Request, Response, Router, Viewer};

/// All three apps now ship real routers (with declared footprints, so
/// in debug builds every dispatch below also runs the footprint
/// checker over the full differential grid).
fn courses_router() -> Router {
    apps::courses::router()
}

fn health_router() -> Router {
    apps::health::router()
}

/// Runs `requests` on `workers` scoped threads sharing one app:
/// worker `w` sends every `workers`-th request from `w` on through its
/// own [`Executor::run`], and the responses are reassembled in
/// submission order.
fn run_strided(app: &App, router: &Router, requests: &[Request], workers: usize) -> Vec<Response> {
    let mut shares: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let share: Vec<Request> =
                    requests.iter().skip(w).step_by(workers).cloned().collect();
                scope.spawn(move || Executor::run(app, router, &share))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked").into_iter())
            .collect()
    });
    (0..requests.len())
        .map(|i| {
            shares[i % workers]
                .next()
                .expect("one response per request")
        })
        .collect()
}

/// Runs `requests` sequentially and on 2/4 workers, asserting the
/// responses (status *and* body bytes) are identical.
fn assert_concurrent_matches_sequential(
    app: App,
    router: &Router,
    requests: &[Request],
    context: &str,
) {
    let sequential = Executor::run(&app, router, requests);
    for workers in [2, 4] {
        let concurrent = run_strided(&app, router, requests, workers);
        assert_eq!(
            concurrent.len(),
            sequential.len(),
            "[{context}] response count on {workers} workers"
        );
        for (i, (c, s)) in concurrent.iter().zip(&sequential).enumerate() {
            assert_eq!(
                c, s,
                "[{context}] request {i} ({}) differs on {workers} workers",
                requests[i].path
            );
        }
    }
}

#[test]
fn conference_pages_identical_across_executors() {
    let w = workload::conference(12, 10);
    let router = apps::conf::router();
    // The full differential grid: every page for every viewer.
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=12).map(Viewer::User))
        .collect();
    let mut requests = Vec::new();
    for viewer in &viewers {
        requests.push(Request::new("papers/all", viewer.clone()));
        requests.push(Request::new("users/all", viewer.clone()));
        for paper in 1..=10 {
            requests.push(
                Request::new("papers/one", viewer.clone()).with_param("id", &paper.to_string()),
            );
        }
        for user in 1..=12 {
            requests.push(
                Request::new("users/one", viewer.clone()).with_param("id", &user.to_string()),
            );
        }
    }
    assert_concurrent_matches_sequential(w.app, &router, &requests, "conference");
}

#[test]
fn conference_executor_matches_vanilla_baseline() {
    // Close the loop with the hand-coded implementation: pages served
    // by 4 concurrent executor workers equal the baseline's renderings.
    let w = workload::conference(8, 6);
    let mut vanilla = w.vanilla;
    let router = apps::conf::router();
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=8).map(Viewer::User))
        .collect();
    let requests: Vec<Request> = viewers
        .iter()
        .map(|v| Request::new("papers/all", v.clone()))
        .collect();
    let app = w.app;
    let responses = run_strided(&app, &router, &requests, 4);
    for (viewer, response) in viewers.iter().zip(&responses) {
        assert_eq!(
            response.body,
            vanilla.all_papers(viewer),
            "executor page for {viewer} must match the baseline"
        );
    }
}

#[test]
fn courses_pages_identical_across_executors() {
    let w = workload::courses(8);
    let router = courses_router();
    let n_users = 1 + 8; // student + one instructor per course
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=n_users).map(Viewer::User))
        .collect();
    let mut requests = Vec::new();
    for viewer in &viewers {
        requests.push(Request::new("courses/all", viewer.clone()));
        requests.push(Request::new("courses/all_unpruned", viewer.clone()));
    }
    assert_concurrent_matches_sequential(w.app, &router, &requests, "courses");
}

#[test]
fn health_pages_identical_across_executors() {
    let w = workload::health(12);
    let router = health_router();
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=12).map(Viewer::User))
        .collect();
    let mut requests = Vec::new();
    for viewer in &viewers {
        requests.push(Request::new("records/all", viewer.clone()));
        for rec in 1..=6 {
            requests.push(
                Request::new("records/one", viewer.clone()).with_param("id", &rec.to_string()),
            );
        }
    }
    assert_concurrent_matches_sequential(w.app, &router, &requests, "health");
}

/// The stress test: N workers × M requests on the conference
/// workload; results must match one sequential run
/// request-for-request. Sized to bite in release CI while staying
/// tractable in debug runs.
#[test]
fn concurrent_stress_matches_sequential() {
    let w = workload::conference(16, 24);
    let router = apps::conf::router();
    let requests = workload::conference_requests(192, 16, 24);
    let app = w.app;
    let sequential = Executor::run(&app, &router, &requests);
    assert!(sequential.iter().all(|r| r.status == 200));
    for workers in [2, 4] {
        let concurrent = run_strided(&app, &router, &requests, workers);
        assert_eq!(concurrent, sequential, "{workers} workers");
    }
}

#[test]
fn executor_serializes_interleaved_writes() {
    // Reads and writes interleaved: every write must land exactly
    // once, and a full read afterwards sees all of them.
    let w = workload::conference(8, 4);
    let router = apps::conf::router();
    let app = w.app;
    let mut requests: Vec<Request> = (0..16)
        .map(|i| {
            Request::new("papers/submit", Viewer::User(1 + i % 8))
                .with_param("title", &format!("Stress paper {i}"))
        })
        .collect();
    requests.extend((0..16).map(|i| Request::new("papers/all", Viewer::User(1 + i % 8))));
    let responses = run_strided(&app, &router, &requests, 4);
    assert!(responses.iter().all(|r| r.status == 200));
    let papers = app.all("paper").unwrap();
    let distinct_new: std::collections::BTreeSet<i64> = papers
        .iter()
        .filter(|(_, r)| {
            r.fields[0]
                .as_str()
                .is_some_and(|t| t.starts_with("Stress paper"))
        })
        .map(|(_, r)| r.jid)
        .collect();
    assert_eq!(distinct_new.len(), 16, "each submit landed exactly once");
}
