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
//! A third pin counts *bytes*: what one cached `papers/all` miss
//! leaves resident through the served path. A render-cache entry keeps
//! its page once, plus a 16-byte span per object for fragment repair;
//! storing the fragments again as strings of their own roughly doubles
//! it.
//!
//! A fourth pin counts the allocations of `App::create`s of
//! two-policy papers into a warm app. A label is its index and an
//! object's labels are recorded once, in its binding row, so a create
//! allocates the object's rows and splits but no label bookkeeping:
//! no label name, no per-object label list.
//!
//! It lives in a test binary of its own because it installs a
//! counting global allocator. Only the calling thread's allocations
//! count, so the harness's own threads cannot disturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use apps::workload;
use apps::{conf, courses, health};
use jacqueline::{App, Executor, Request, Router, Viewer};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn live_bytes(delta: i64) {
    LIVE_BYTES.with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds `GlobalAlloc`'s contract; the counters are
// const-initialized thread-local `Cell`s without a destructor, so
// touching them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_bytes(layout.size() as i64);
        // SAFETY: the caller's `layout` guarantees are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_bytes(new_size as i64 - layout.size() as i64);
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

#[test]
fn a_cached_page_keeps_its_bytes_once() {
    let conference = workload::conference(N, N);
    let app = &conference.app;
    let router = conf::router();
    let request = [Request::new(
        "papers/all",
        Viewer::User(conference.pc_member),
    )];
    // Warm every layer under the page, then drop the stored entry so
    // the measured request misses again.
    let warm = Executor::run(app, &router, &request);
    app.set_render_cache(false);
    app.set_render_cache(true);
    let before = LIVE_BYTES.with(Cell::get);
    let page = Executor::run(app, &router, &request);
    let body = page[0].body.len() as i64;
    assert_eq!(page, warm);
    drop(page);
    let retained = LIVE_BYTES.with(Cell::get) - before;
    let stats = app.render_cache_stats();
    assert_eq!((stats.misses, stats.hits), (2, 0), "both requests missed");
    let pin = body + 16 * N as i64 + CACHED_PAGE_SLACK;
    eprintln!(
        "papers/all miss: {retained} bytes retained for a {body}-byte page \
         ({:.1} per paper above the body; pin {pin})",
        (retained - body) as f64 / N as f64
    );
    assert!(
        retained <= pin,
        "a cached papers/all page retains {retained} bytes, over its pin of {pin}"
    );
}

#[test]
fn a_create_keeps_no_label_bookkeeping() {
    let conference = workload::conference(N, N);
    let app = &conference.app;
    let author = Viewer::User(conference.pc_member);
    let titles: Vec<String> = (0..N).map(|i| format!("pinned paper {i}")).collect();
    // One create first, so every table the create writes is warm.
    conf::submit_paper(app, &author, "warm-up").unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    for title in &titles {
        conf::submit_paper(app, &author, title).unwrap();
    }
    let measured = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(app.model("paper").policies.len(), 2);
    eprintln!(
        "{N} paper creates: {measured} allocations, {:.3} per create (pin {CREATES})",
        measured as f64 / N as f64
    );
    assert!(
        measured <= CREATES,
        "{N} creates allocate {measured} times, over their pin of {CREATES}"
    );
}

/// The pins: allocations of one `N`-row render, upper bounds equal to
/// the counts measured when they were set. Lower one when a change
/// cuts allocations; never raise one to make the test pass. Policy
/// bodies that read through `get` and `filter_eq` (a facet DAG, a
/// list and a count per check) instead of in place with
/// `FormDb::public_row` and `FormDb::exists_eq` cost 14 002, 5 141,
/// 7 199 and 6 471.
const PAPERS_ALL: u64 = 9_248; // 9.031 per row
const USERS_ALL: u64 = 4_118; // 4.021 per row
const COURSES_ALL: u64 = 5_663; // 5.530 per row
const RECORDS_ALL: u64 = 5_630; // 5.498 per row

/// Allocations of `N` cold gets, pinned like the pages above: the
/// decode-cache object map growing, nothing per object. Re-interning
/// each row's leaf in the rebuild instead costs a row copy per leaf:
/// 8 204 allocations for the papers and 10 250 for the users.
const COLD_PAPER_GETS: u64 = 12;
const COLD_USER_GETS: u64 = 10;

/// Allocations of `N` creates of a two-policy paper, pinned like the
/// pages above: 117.035 per create. Naming each label and keeping a
/// per-object label list besides the binding row costs 14 more per
/// create: 134 181 allocations.
const CREATES: u64 = 119_844;

/// Bytes a cached page may retain beyond its body and one 16-byte span
/// per object: the key, the generation stamp and the decomposition's
/// table name.
const CACHED_PAGE_SLACK: i64 = 128;
