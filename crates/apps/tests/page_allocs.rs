//! Heap allocations per row of the §6 list pages, pinned. A list page
//! resolves the policies of every row, and the paper, course and
//! record checks each read the database (a conflict, enrollment or
//! waiver lookup), so the count moves whenever a layer under the check
//! starts or stops copying: routing `FormDb::filter_eq` back through
//! the query planner, for one, adds allocations to every row of those
//! three pages.
//!
//! A second pin counts the allocations of a *cold* `App::get`: the
//! first read of an object whose table's decoded snapshot is warm. The
//! rebuild reuses the decoded rows' interned leaves, so it allocates
//! only the facet splits and its scratch buffer, never a row copy.
//!
//! It lives in a test binary of its own because it installs a
//! counting global allocator. Only the calling thread's allocations
//! count, so the harness's own threads cannot disturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use apps::workload;
use apps::{conf, courses, health};
use jacqueline::{App, Request, Router, Viewer};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds `GlobalAlloc`'s contract; the counter is a
// const-initialized thread-local `Cell` without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` guarantees are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's, passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows per page, as in the benchmark's `paper_pages`.
const N: usize = 1024;

/// Allocations of one render after a warm-up render of the same
/// request.
fn allocations(app: &App, router: &Router, path: &str, viewer: i64) -> u64 {
    let req = Request::new(path, Viewer::User(viewer));
    let warm = router.handle(app, &req);
    assert_eq!(warm.status, 200, "{path}");
    let before = ALLOCATIONS.with(Cell::get);
    let page = router.handle(app, &req);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(page.body, warm.body, "{path}");
    allocations
}

#[test]
fn list_pages_allocate_at_most_their_pinned_count_per_row() {
    let conference = workload::conference(N, N);
    let conf_router = conf::router();
    let courses = workload::courses(N);
    let health = workload::health(N);
    let pages = [
        (
            "papers/all",
            allocations(
                &conference.app,
                &conf_router,
                "papers/all",
                conference.pc_member,
            ),
            PAPERS_ALL,
        ),
        (
            "users/all",
            allocations(
                &conference.app,
                &conf_router,
                "users/all",
                conference.pc_member,
            ),
            USERS_ALL,
        ),
        (
            "courses/all",
            allocations(
                &courses.app,
                &courses::router(),
                "courses/all",
                courses.student,
            ),
            COURSES_ALL,
        ),
        (
            "records/all",
            allocations(&health.app, &health::router(), "records/all", health.doctor),
            RECORDS_ALL,
        ),
    ];
    let per_row = |n: u64| n as f64 / N as f64;
    let mut over = Vec::new();
    for (path, measured, pin) in pages {
        eprintln!(
            "{path}: {measured} allocations, {:.3} per row (pin {pin}, {:.3} per row)",
            per_row(measured),
            per_row(pin)
        );
        if measured > pin {
            over.push(format!(
                "{path}: {:.3} > {:.3} per row",
                per_row(measured),
                per_row(pin)
            ));
        }
    }
    assert!(
        over.is_empty(),
        "allocations per row above their pins: {over:?}"
    );
}

/// Allocations of one cold `get` of every object of `model`, after a
/// full read has warmed the model's decoded snapshot.
fn cold_gets(app: &App, model: &str) -> u64 {
    app.all(model).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    for jid in 1..=N as i64 {
        std::hint::black_box(app.get(model, jid).unwrap());
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn cold_gets_allocate_at_most_their_pinned_count() {
    let conference = workload::conference(N, N);
    let mut over = Vec::new();
    for (model, pin) in [("paper", COLD_PAPER_GETS), ("user_profile", COLD_USER_GETS)] {
        let measured = cold_gets(&conference.app, model);
        eprintln!(
            "cold get {model}: {measured} allocations for {N} objects, {:.3} per get (pin {pin})",
            measured as f64 / N as f64
        );
        if measured > pin {
            over.push(format!("{model}: {measured} > {pin}"));
        }
    }
    assert!(
        over.is_empty(),
        "cold-get allocations above their pins: {over:?}"
    );
}

/// The pins: allocations of one `N`-row render, upper bounds equal to
/// the counts measured when they were set. Lower one when a change
/// cuts allocations; never raise one to make the test pass.
const PAPERS_ALL: u64 = 14_002; // 13.674 per row
const USERS_ALL: u64 = 5_141; // 5.021 per row
const COURSES_ALL: u64 = 7_199; // 7.030 per row
const RECORDS_ALL: u64 = 6_471; // 6.319 per row

/// Allocations of `N` cold gets, pinned like the pages above: the
/// decode-cache object map growing, nothing per object. Re-interning
/// each row's leaf in the rebuild instead costs a row copy per leaf:
/// 8 204 allocations for the papers and 10 250 for the users.
const COLD_PAPER_GETS: u64 = 12;
const COLD_USER_GETS: u64 = 10;
