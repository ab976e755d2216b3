//! The concurrent request executor: many [`Session`]-style requests
//! against one shared [`App`], with **table-granular** locking.
//!
//! The paper evaluates Jacqueline under FunkLoad-generated HTTP load;
//! this module supplies the server side of that story for the Rust
//! reproduction. One [`App`] (whose faceted database shards storage
//! per table) is shared by all serving threads. Instead of a single
//! app-wide reader-writer lock, the executor keeps one lock *per
//! declared table*: each route's [`Footprint`] says which tables it
//! reads and writes, and a request acquires exactly those locks — in
//! canonical (sorted) order, so acquisition cannot deadlock. A write
//! to `review` therefore no longer blocks readers of `user_profile`;
//! only true conflicts on the same table serialize. Routes that
//! declare no footprint fall back to whole-app exclusion via a global
//! lock, preserving the old conservative behavior.
//!
//! Per-request Early-Pruning state lives inside each request's
//! [`Session`], so serving threads never share resolution state.
//!
//! There is one request path and no thread of its own: a request is
//! dispatched on the thread that holds it. [`ExecutorService`] is that
//! path — admission gate, then dispatch under footprint locks, then
//! the post-request checkpoint hook — and the HTTP
//! [`Server`](crate::Server) is built on it, so in-process callers
//! (the chaos harness, benchmarks, tests) take the same steps a served
//! request does. [`Executor::run`] is its borrowed, sequential form:
//! a batch in submission order on the calling thread, bit-for-bit
//! identical to dispatching through [`Router::handle`] one request at
//! a time — the mode the differential λJDB semantics tests pin.
//! Concurrency comes from the callers: the server's connection
//! workers, or several threads calling `serve` or `run` on the same
//! app. Their per-response bytes are identical to one sequential run
//! whenever requests are independent (read-only, or writes that
//! commute), which the executor stress tests assert.
//!
//! [`Session`]: crate::Session
//! [`Footprint`]: crate::Footprint

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use faceted::IdHashMap;

use crate::app::App;
use crate::http::{Footprint, Request, Response, Router};
use crate::rendercache::{FragmentedPage, Lookup, RenderCacheStatus, RenderKey, StaleEntry};

/// The application's request-lock table: one reader-writer lock per
/// table ever declared by a route footprint, plus a global fallback
/// lock. Owned by the [`App`] (not created per `run` call), so **any
/// number of concurrent [`Executor::run`] calls against the same app
/// share one lock table** and isolate against each other exactly as
/// requests within a single run do.
///
/// Protocol (all requests, in this order):
/// 1. the global lock — *shared* for footprint-declared requests,
///    *exclusive* for write routes with no footprint;
/// 2. the declared tables, in sorted-name order — shared for tables
///    only read, exclusive for tables written. Read routes with no
///    footprint take shared locks on every declared table.
///
/// Every request acquires locks along the same global → sorted-tables
/// chain, and holders of the exclusive global lock take nothing else,
/// so the acquisition order is a total order and deadlock is
/// impossible. (The lock-table map itself is extended only by
/// [`RequestLocks::ensure`] at `run` or service start, while
/// the extender holds no other lock; requests hold the map's read
/// guard for their duration, which a concurrent `ensure` that adds
/// names simply waits out.)
/// Data-level safety never depends on footprints (the storage layer
/// locks per table internally); footprints buy *request-level
/// isolation* — a reader cannot observe half of a declared write's
/// multi-statement update.
#[derive(Debug, Default)]
pub(crate) struct RequestLocks {
    global: RwLock<()>,
    tables: RwLock<BTreeMap<String, RwLock<()>>>,
}

/// A held per-table lock, either side. The guards exist purely for
/// their RAII release; nothing reads them.
#[allow(dead_code)]
enum TableGuard<'a> {
    Shared(RwLockReadGuard<'a, ()>),
    Exclusive(RwLockWriteGuard<'a, ()>),
}

impl RequestLocks {
    /// Makes sure every name has a lock, before any of them is taken
    /// (called once per `run` and when a service starts,
    /// never during a request).
    pub(crate) fn ensure<I: IntoIterator<Item = String>>(&self, names: I) {
        let names: Vec<String> = names.into_iter().collect();
        // Names already present need only the shared guard, so a `run`
        // starting on one thread never queues behind the requests a
        // `run` on another thread is serving.
        let map = self.tables.read().expect("lock-table map");
        if names.iter().all(|name| map.contains_key(name)) {
            return;
        }
        drop(map);
        let mut map = self.tables.write().expect("lock-table map");
        for name in names {
            map.entry(name).or_default();
        }
    }

    /// Acquires the declared footprint: shared on `reads`, exclusive
    /// on `writes`, in canonical order.
    fn acquire<'a>(
        map: &'a BTreeMap<String, RwLock<()>>,
        footprint: &Footprint,
    ) -> Vec<TableGuard<'a>> {
        // BTreeMap iteration is sorted-by-name: the canonical order.
        map.iter()
            .filter_map(|(name, lock)| {
                if footprint.writes_table(name) {
                    Some(TableGuard::Exclusive(lock.write().expect("table lock")))
                } else if footprint.reads.contains(name) {
                    Some(TableGuard::Shared(lock.read().expect("table lock")))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Shared locks on every declared table (undeclared read routes).
    fn acquire_all_shared(map: &BTreeMap<String, RwLock<()>>) -> Vec<TableGuard<'_>> {
        map.values()
            .map(|lock| TableGuard::Shared(lock.read().expect("table lock")))
            .collect()
    }

    /// Runs `f` at a **quiescent point**: the global lock shared plus
    /// every declared table lock shared, i.e. exactly the lock set of
    /// a footprint-less read route. Declared writers drain and block
    /// for the duration; concurrent readers keep flowing. This is
    /// what the checkpoint subsystem snapshots (and garbage-collects
    /// the interner) under.
    pub(crate) fn quiesce<R>(&self, f: impl FnOnce() -> R) -> R {
        let _global = self.global.read().expect("global lock");
        let map = self.tables.read().expect("lock-table map");
        let _tables = RequestLocks::acquire_all_shared(&map);
        f()
    }
}

/// Runs batches of requests against a shared application.
///
/// # Examples
///
/// ```
/// use jacqueline::{App, Executor, Request, Response, Router, Viewer};
///
/// let mut router = Router::new();
/// router.route_read("ping", |_, req| Response::ok(format!("pong {}", req.viewer)));
///
/// let app = App::new();
/// let requests: Vec<Request> =
///     (0..8).map(|i| Request::new("ping", Viewer::User(i))).collect();
/// let responses = Executor::run(&app, &router, &requests);
/// assert_eq!(responses.len(), 8);
/// assert!(responses.iter().all(|r| r.status == 200));
/// ```
#[derive(Debug)]
pub struct Executor;

impl Executor {
    /// Processes every request in submission order on the calling
    /// thread, returning responses bit-for-bit identical to a loop
    /// over [`Router::handle`]. Each request runs under the footprint
    /// locks its route declares (uncontended they cost nanoseconds),
    /// so `run` calls on other threads against the same app keep full
    /// request isolation.
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned (a prior request panicked).
    #[must_use]
    pub fn run(app: &App, router: &Router, requests: &[Request]) -> Vec<Response> {
        app.request_locks.ensure(router.declared_tables());
        requests
            .iter()
            .map(|r| Executor::dispatch(app, router, r).0)
            .collect()
    }

    /// The render-cache key for a request: path, canonicalized params,
    /// viewer. Canonicalization runs on a *copy* of the params — the
    /// controller always sees the originals.
    fn render_key(router: &Router, request: &Request) -> RenderKey {
        let mut params = request.params.clone();
        if let Some(canonicalize) = router.canonicalizer(&request.path) {
            canonicalize(&mut params);
        }
        RenderKey {
            path: request.path.clone(),
            params: params.into_iter().collect(),
            viewer: request.viewer.clone(),
        }
    }

    /// Dispatches one request under its footprint locks, returning
    /// how the render cache handled it too (the server's
    /// `X-Render-Cache` header). Unknown paths answer 404 without
    /// taking any lock, so stray requests cannot stall anyone.
    ///
    /// Declared read routes consult the [`rendercache`] **after**
    /// acquiring their shared footprint locks: a hit serves the stored
    /// bytes without running the controller at all; a stale entry on a
    /// fragment-registered route first attempts a journal-driven
    /// repair ([`Executor::try_repair`]); a miss renders, then stamps
    /// the entry with the footprint tables' generations — read *while
    /// the locks are still held*, so no writer can bump a generation
    /// between render and stamp and leave a stale page validating as
    /// fresh.
    ///
    /// The debug-build `form::touched` checker stays honest across
    /// hits even though a hit records nothing: cached bytes are only
    /// ever produced by a checked render at miss time, and a route
    /// whose footprint is under-declared panics on that first miss —
    /// an unchecked render can never populate the cache.
    ///
    /// [`rendercache`]: crate::rendercache
    fn dispatch(app: &App, router: &Router, request: &Request) -> (Response, RenderCacheStatus) {
        let locks = &app.request_locks;
        if let Some(controller) = router.read_controller(&request.path) {
            let _global = locks.global.read().expect("global lock");
            let map = locks.tables.read().expect("lock-table map");
            let footprint = router.footprint(&request.path);
            match footprint {
                Some(fp) => {
                    let _tables = RequestLocks::acquire(&map, fp);
                    let cache = &app.render_cache;
                    if !cache.enabled() {
                        let response = Executor::call_checked(&request.path, footprint, || {
                            controller(app, request)
                        });
                        return (response, RenderCacheStatus::Bypass);
                    }
                    let key = Executor::render_key(router, request);
                    let db = app.db.raw_ref();
                    match cache.lookup(&key, fp, |table| db.generation(table).ok()) {
                        Lookup::Hit(response) => return (response, RenderCacheStatus::Hit),
                        Lookup::Stale(stale) => {
                            if let Some(response) =
                                Executor::try_repair(app, router, request, fp, &key, stale)
                            {
                                return (response, RenderCacheStatus::Repair);
                            }
                            cache.note_invalidated();
                        }
                        Lookup::Cold => {}
                    }
                    // Cold miss (or unrepairable stale): render.
                    // Fragment-registered routes render *by fragments*
                    // — one pass that is simultaneously the response
                    // bytes and the stored decomposition, so a cold
                    // miss costs a single render. Debug builds run the
                    // controller too and assert byte-identity, the
                    // same contract the differential grids and the
                    // chaos cached-vs-uncached oracle pin end-to-end.
                    let (response, fragments) =
                        match Executor::render_fragmented(app, router, request) {
                            Some((body, page)) => {
                                #[cfg(debug_assertions)]
                                {
                                    let checked =
                                        Executor::call_checked(&request.path, footprint, || {
                                            controller(app, request)
                                        });
                                    assert!(
                                        checked.status == 200
                                            && checked.headers.is_empty()
                                            && checked.body == body,
                                        "route {:?}: the registered fragment renderer does \
                                         not reproduce the controller's page (controller: \
                                         status {}, {} bytes; fragments: {} bytes) — fix \
                                         the fragment renderer or unregister it",
                                        request.path,
                                        checked.status,
                                        checked.body.len(),
                                        body.len(),
                                    );
                                }
                                (Response::ok(body), page)
                            }
                            None => {
                                let response =
                                    Executor::call_checked(&request.path, footprint, || {
                                        controller(app, request)
                                    });
                                (response, None)
                            }
                        };
                    // The stamp: footprint-table generations observed
                    // under the same shared locks the render ran
                    // under. A table the footprint names but the
                    // database lacks (possible in synthetic tests)
                    // makes the page unstampable — skip the store.
                    if let Some(generations) = Executor::stamp(app, fp) {
                        cache.store(key, generations, &response, fragments);
                    }
                    (response, RenderCacheStatus::Miss)
                }
                None => {
                    // Footprint-less read route: all-tables shared
                    // locks. The debug-build checker still runs under
                    // this (global-lock) fallback — such a route must
                    // not *write*, since it holds no exclusive lock
                    // anywhere and would race declared readers. With
                    // no declared table set there is nothing to stamp
                    // a cache entry with, so the route is uncacheable:
                    // counted, never stored.
                    if app.render_cache.enabled() {
                        app.render_cache.note_uncacheable();
                    }
                    let _tables = RequestLocks::acquire_all_shared(&map);
                    let response = Executor::call_read_only_checked(&request.path, || {
                        controller(app, request)
                    });
                    (response, RenderCacheStatus::Bypass)
                }
            }
        } else if router.has_write_route(&request.path) {
            // The read-only degraded gate: after a durable-write
            // failure the app sheds ordinary writes with `503
            // Retry-After` *before* taking any lock; reads (above)
            // keep flowing, and exempted recovery routes
            // (`admin/checkpoint`) still dispatch so the mode can be
            // cleared.
            if !router.is_degraded_exempt(&request.path) {
                if let Some(reason) = app.degraded_reason() {
                    let response = Response::unavailable(&format!(
                        "service degraded (read-only): {reason}; \
                         writes resume after the next successful checkpoint"
                    ));
                    return (response, RenderCacheStatus::Bypass);
                }
            }
            let response = match router.footprint(&request.path) {
                Some(fp) => {
                    let _global = locks.global.read().expect("global lock");
                    let map = locks.tables.read().expect("lock-table map");
                    let _tables = RequestLocks::acquire(&map, fp);
                    Executor::call_checked(&request.path, Some(fp), || router.handle(app, request))
                }
                None => {
                    // No footprint: conservative whole-app exclusion.
                    let _global = locks.global.write().expect("global lock");
                    router.handle(app, request)
                }
            };
            (response, RenderCacheStatus::Bypass)
        } else {
            (Response::not_found(), RenderCacheStatus::Bypass)
        }
    }

    /// The generation of every table of `fp`, in [`Footprint::tables`]
    /// order — the render-cache stamp. `None` when a table is missing.
    fn stamp(app: &App, fp: &Footprint) -> Option<Box<[u64]>> {
        let db = app.db.raw_ref();
        fp.tables().map(|t| db.generation(t).ok()).collect()
    }

    /// Renders a fragment-registered page **fragment-wise**: the
    /// shell plus every fragment of the table in first-appearance jid
    /// order, each through full faceted projection under the
    /// request's viewer, pushed into one page buffer whose span ends
    /// are recorded as it grows. One pass produces both the response
    /// bytes and the decomposition the repair path needs — a cold miss
    /// on a fragment route costs a single render, not a render plus a
    /// decompose. Byte-identity with the route's own controller is
    /// the registration contract ([`Router::route_fragments`]):
    /// asserted against a real controller render in debug builds at
    /// every miss, and pinned end-to-end by the differential grids.
    /// Returns `None` (controller renders instead) when the route has
    /// no spec, fragments are disabled, or the table is unreadable.
    fn render_fragmented(
        app: &App,
        router: &Router,
        request: &Request,
    ) -> Option<(String, Option<FragmentedPage>)> {
        if !app.render_cache.fragments_enabled() {
            return None;
        }
        let spec = router.fragment_spec(&request.path)?;
        let order = app.db.jid_order(&spec.table).ok()?;
        let shell = (spec.shell)(app, request);
        Executor::assemble(&spec.table, shell, order, 0, |jid, body| {
            body.push_str(&(spec.fragment)(app, request, jid));
            Some(())
        })
    }

    /// Assembles a fragmented page into one buffer: the shell's prefix,
    /// each jid's fragment as `push` appends it, then the suffix,
    /// recording where each fragment ends. `None` as soon as `push`
    /// gives up. A page beyond `u32::MAX` bytes keeps no decomposition
    /// (its spans could not be recorded), so it is cached whole.
    fn assemble(
        table: &str,
        (prefix, suffix): (String, String),
        order: Vec<i64>,
        capacity: usize,
        mut push: impl FnMut(i64, &mut String) -> Option<()>,
    ) -> Option<(String, Option<FragmentedPage>)> {
        let mut body = prefix;
        body.reserve(capacity.saturating_sub(body.len()));
        let start = body.len();
        let mut spans = Vec::with_capacity(order.len());
        for jid in order {
            push(jid, &mut body)?;
            // Truncation only matters past `u32::MAX`, checked below.
            spans.push((jid, body.len() as u32));
        }
        body.push_str(&suffix);
        let page = u32::try_from(body.len()).is_ok().then(|| FragmentedPage {
            table: table.to_owned(),
            start: start as u32,
            spans,
        });
        Some((body, page))
    }

    /// Attempts to repair a stale fragmented entry from the write
    /// journal instead of discarding it. Succeeds only when:
    ///
    /// * the route still registers a fragment spec over the entry's
    ///   table, and fragments are enabled;
    /// * the fragment table is the **only** footprint table whose
    ///   generation moved (other tables feed fragment policies, so
    ///   movement there can change untouched fragments' bytes);
    /// * the table's journal still covers the window since the stamp
    ///   (`deltas_since`), naming every touched jid.
    ///
    /// On success, only the touched jids' fragments re-render — full
    /// faceted projection under the entry's viewer, so no bytes are
    /// spliced that didn't pass policy enforcement. The shell renders
    /// afresh, every untouched fragment is copied from its span of the
    /// old body, and the entry is restored with a fresh generation
    /// vector read under the caller's still-held shared footprint
    /// locks. Any failure — including an untouched jid with no stored
    /// span, or a span that does not fall on the old body's character
    /// boundaries — returns `None` and the caller falls back to the
    /// full re-render: correctness never depends on the journal.
    fn try_repair(
        app: &App,
        router: &Router,
        request: &Request,
        fp: &Footprint,
        key: &RenderKey,
        stale: StaleEntry,
    ) -> Option<Response> {
        let cache = &app.render_cache;
        if !cache.fragments_enabled() {
            return None;
        }
        let page = stale.fragments?;
        let spec = router.fragment_spec(&request.path)?;
        if spec.table != page.table {
            return None;
        }
        // The stamp is positional over the footprint's tables: the
        // fragment table's slot holds the stamped generation, and every
        // other slot must still be live. The caller's shared locks keep
        // `live` current through the repair, so it is the new stamp.
        let live = Executor::stamp(app, fp)?;
        let slot = fp.tables().position(|t| t == page.table)?;
        let then = &stale.generations;
        if then.len() != live.len() || (0..live.len()).any(|i| i != slot && then[i] != live[i]) {
            return None;
        }
        let touched = app.db.touched_jids_since(&page.table, then[slot]).ok()??;
        let order = app.db.jid_order(&page.table).ok()?;
        let stored: IdHashMap<_, _> = page.fragments().collect();
        let old = stale.body;
        let shell = (spec.shell)(app, request);
        let mut rerendered = 0u64;
        let (body, fragments) =
            Executor::assemble(&page.table, shell, order, old.len(), |jid, body| {
                if touched.binary_search(&jid).is_ok() {
                    rerendered += 1;
                    body.push_str(&(spec.fragment)(app, request, jid));
                } else {
                    // An untouched jid absent from the stored decomposition
                    // would mean the journal missed a write; treat it like
                    // a decode error and fall back.
                    body.push_str(old.get(stored.get(&jid)?.clone())?);
                }
                Some(())
            })?;
        let response = Response::ok(body);
        cache.note_repaired(rerendered);
        cache.store(key.clone(), live, &response, fragments);
        Some(response)
    }

    /// Runs a controller with debug-build footprint verification:
    /// the FORM records every table the request actually touches
    /// (`form::touched`), and a touch outside the route's declared
    /// [`Footprint`] **panics** — an under-declared footprint means
    /// the executor took too few locks, which would race silently in
    /// release. Release builds run the controller directly; routes
    /// with no footprint are exempt (they hold conservative locks).
    fn call_checked(
        path: &str,
        footprint: Option<&Footprint>,
        run: impl FnOnce() -> Response,
    ) -> Response {
        #[cfg(debug_assertions)]
        if let Some(fp) = footprint {
            let previous = form::touched::begin_recording();
            let response = run();
            if let Some(touched) = form::touched::end_recording(previous) {
                for table in &touched.writes {
                    assert!(
                        fp.writes.contains(table),
                        "route {path:?} wrote table {table:?} outside its declared \
                         footprint (writes: {:?}) — the executor held no exclusive \
                         lock for it; declare it via route_tables",
                        fp.writes
                    );
                }
                for table in &touched.reads {
                    assert!(
                        fp.reads.contains(table) || fp.writes.contains(table),
                        "route {path:?} read table {table:?} outside its declared \
                         footprint (reads: {:?}, writes: {:?}) — remember tables \
                         consulted by policies at output time",
                        fp.reads,
                        fp.writes
                    );
                }
            }
            return response;
        }
        let _ = (path, footprint);
        run()
    }

    /// Debug-build checker for the **footprint-less read-route
    /// fallback**: the route runs under shared locks on every table,
    /// so any *write* it performs races concurrently dispatched
    /// declared readers (nobody holds an exclusive lock for it). The
    /// FORM's touch recording catches exactly that: a footprint-less
    /// read route that mutates any table panics in debug builds.
    /// Reads are unconstrained — all-shared covers every table by
    /// construction.
    fn call_read_only_checked(path: &str, run: impl FnOnce() -> Response) -> Response {
        #[cfg(debug_assertions)]
        {
            let previous = form::touched::begin_recording();
            let response = run();
            if let Some(touched) = form::touched::end_recording(previous) {
                assert!(
                    touched.writes.is_empty(),
                    "footprint-less read route {path:?} wrote table(s) {:?} while \
                     holding only shared locks — register it as a write route \
                     (route/route_tables), or declare a footprint",
                    touched.writes
                );
            }
            response
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = path;
            run()
        }
    }
}

/// A dispatched response annotated with where its latency went: the
/// wait for an [`ExecutorService`] admission permit vs service time
/// (controller under footprint locks). The HTTP server exports both
/// as `X-Queue-Us` / `X-Service-Us` response headers.
#[derive(Clone, Debug)]
pub struct ServedResponse {
    /// The controller's response.
    pub response: Response,
    /// Time the request waited for an admission permit (zero when it
    /// was shed).
    pub queued: Duration,
    /// Time the request spent executing (including footprint-lock
    /// acquisition — lock contention is service time, not queueing).
    pub service: Duration,
    /// How the render cache handled the request (`X-Render-Cache`).
    pub render_cache: RenderCacheStatus,
}

/// When a scheduled checkpoint runs: after `every_records` WAL
/// records have accumulated since the last truncation, or `every`
/// wall-clock time since the last scheduled checkpoint — whichever
/// fires first. Both `None` disables scheduling. The policy is
/// evaluated after each served request, on the thread that served it
/// (an idle server takes no checkpoints), and at most one scheduled
/// checkpoint runs at a time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many WAL records sit above the last
    /// checkpoint (compared against
    /// [`App::wal_pressure`](crate::App::wal_pressure)).
    pub every_records: Option<u64>,
    /// Checkpoint once this much time has passed since the last
    /// scheduled checkpoint.
    pub every: Option<Duration>,
}

/// The admission gate: a counting semaphore of `permits` with a
/// bounded line of waiters. Requests past the line are shed.
struct Admission {
    permits: usize,
    max_waiting: usize,
    /// `(dispatching, waiting)`.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
    sheds: AtomicUsize,
}

/// A held admission permit, returned on drop.
struct Permit<'a>(&'a Admission);

impl Admission {
    fn new(permits: usize, max_waiting: usize) -> Admission {
        Admission {
            permits: permits.max(1),
            max_waiting,
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
            sheds: AtomicUsize::new(0),
        }
    }

    /// Takes a permit, waiting for one if all are held; `None` (the
    /// request is shed) when the line of waiters is already full.
    fn enter(&self) -> Option<Permit<'_>> {
        let mut state = self.state.lock().expect("admission gate");
        if state.0 >= self.permits {
            if state.1 >= self.max_waiting {
                return None;
            }
            state.1 += 1;
            while state.0 >= self.permits {
                state = self.freed.wait(state).expect("admission gate");
            }
            state.1 -= 1;
        }
        state.0 += 1;
        Some(Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().expect("admission gate");
        state.0 -= 1;
        let waiting = state.1 > 0;
        drop(state);
        if waiting {
            self.0.freed.notify_one();
        }
    }
}

/// The one in-process request path: an **admission gate**, then
/// dispatch under the route's footprint locks on the caller's thread,
/// then the post-request checkpoint hook.
///
/// At most `threads` requests dispatch at once; at most `max_queue`
/// more wait for a permit, and a request arriving while the line is
/// full is **shed** at once with `503 Retry-After: 1` — backpressure
/// reaches the client while the service is still healthy, rather than
/// as an unbounded latency tail. The HTTP [`Server`](crate::Server) is
/// built on this service (its `executor_threads` and `queue_depth` are
/// the same two numbers), so the chaos harness and in-process
/// benchmarks drive exactly the path a served request takes. Callers
/// that want concurrency call [`serve`](ExecutorService::serve) from
/// several threads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use jacqueline::{App, ExecutorService, Request, Response, Router, Viewer};
///
/// let mut router = Router::new();
/// router.route_read("ping", |_, req| Response::ok(format!("pong {}", req.viewer)));
/// let service = ExecutorService::start(Arc::new(App::new()), Arc::new(router), 2);
/// let served = service.serve(Request::new("ping", Viewer::User(1)));
/// assert_eq!(served.response.body, "pong user#1");
/// service.shutdown();
/// assert_eq!(service.serve(Request::new("ping", Viewer::User(1))).response.status, 503);
/// ```
pub struct ExecutorService {
    app: Arc<App>,
    router: Arc<Router>,
    admission: Admission,
    /// When the post-request hook checkpoints.
    checkpoints: CheckpointPolicy,
    /// When the last scheduled checkpoint finished (or the service
    /// started) — the time-based trigger's reference point.
    last_checkpoint: Mutex<Instant>,
    /// One scheduled checkpoint at a time: set by the CAS in
    /// [`ExecutorService::after_request`], cleared when the
    /// checkpoint finishes.
    checkpoint_in_flight: AtomicBool,
    /// Set by [`ExecutorService::shutdown`]: every later request is
    /// shed.
    closed: AtomicBool,
}

/// The default line of requests waiting for an admission permit
/// ([`ExecutorService::start`], `ServerConfig::queue_depth`): deep
/// enough that a burst never sheds in ordinary operation, shallow
/// enough that a stalled service fails fast instead of parking
/// unbounded callers.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

impl ExecutorService {
    /// A service over a shared app and router with `threads` admission
    /// permits (clamped to at least 1) and a line of
    /// [`DEFAULT_QUEUE_DEPTH`] waiters.
    #[must_use]
    pub fn start(app: Arc<App>, router: Arc<Router>, threads: usize) -> ExecutorService {
        ExecutorService::start_bounded(app, router, threads, DEFAULT_QUEUE_DEPTH)
    }

    /// [`ExecutorService::start`] with an explicit line: once
    /// `max_queue` requests wait for a permit, further requests are
    /// shed with `503 Retry-After: 1`.
    #[must_use]
    pub fn start_bounded(
        app: Arc<App>,
        router: Arc<Router>,
        threads: usize,
        max_queue: usize,
    ) -> ExecutorService {
        ExecutorService::start_scheduled(
            app,
            router,
            threads,
            max_queue,
            CheckpointPolicy::default(),
        )
    }

    /// [`ExecutorService::start_bounded`] plus automatic checkpoint
    /// scheduling: when `policy` has a trigger and the app has a
    /// persistence directory ([`App::enable_persistence`]), the
    /// post-request hook runs a checkpoint whenever the policy says
    /// one is due — [`App::checkpoint_quiescent`], incremental after
    /// the first, which truncates the WAL and so resets the record
    /// trigger.
    ///
    /// [`App::enable_persistence`]: crate::App::enable_persistence
    /// [`App::checkpoint_quiescent`]: crate::App::checkpoint_quiescent
    #[must_use]
    pub fn start_scheduled(
        app: Arc<App>,
        router: Arc<Router>,
        threads: usize,
        max_queue: usize,
        policy: CheckpointPolicy,
    ) -> ExecutorService {
        app.request_locks.ensure(router.declared_tables());
        ExecutorService {
            app,
            router,
            admission: Admission::new(threads, max_queue),
            checkpoints: policy,
            last_checkpoint: Mutex::new(Instant::now()),
            checkpoint_in_flight: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    /// Runs one request under an admission permit on the calling
    /// thread, or sheds it (`503 Retry-After: 1`, counted in
    /// [`sheds`](ExecutorService::sheds)) when the service is shut
    /// down or the line is full. `queued` is the permit wait.
    pub(crate) fn dispatch(&self, request: &Request) -> ServedResponse {
        let arrived = Instant::now();
        let permit = if self.closed.load(Ordering::Acquire) {
            Err("service shut down")
        } else {
            self.admission
                .enter()
                .ok_or("server overloaded: the admission queue is full")
        };
        let _permit = match permit {
            Ok(permit) => permit,
            Err(reason) => {
                self.admission.sheds.fetch_add(1, Ordering::Relaxed);
                return ServedResponse {
                    response: Response::unavailable(reason),
                    queued: Duration::ZERO,
                    service: Duration::ZERO,
                    render_cache: RenderCacheStatus::Bypass,
                };
            }
        };
        let started = Instant::now();
        let (response, render_cache) = Executor::dispatch(&self.app, &self.router, request);
        ServedResponse {
            response,
            queued: started.duration_since(arrived),
            service: started.elapsed(),
            render_cache,
        }
    }

    /// The post-request hook: if the [`CheckpointPolicy`] says a
    /// checkpoint is due and none is running, runs
    /// `checkpoint_scheduled` into the app's persistence directory on
    /// the calling thread. The server calls it once the response is on
    /// the socket; [`serve`](ExecutorService::serve) calls it before
    /// returning. The caller holds no request lock; the checkpoint
    /// takes its quiescent point through the ordinary footprint-lock
    /// protocol. Errors are swallowed — a failed checkpoint leaves the
    /// log for the next attempt, and scheduling must never take a
    /// serving thread down. While the app is degraded nothing runs:
    /// pressure cannot drain while writes are shed, and clearing that
    /// mode is the operator's `admin/checkpoint` call, not a
    /// background task.
    pub(crate) fn after_request(&self) {
        let app = &self.app;
        let due_records = self
            .checkpoints
            .every_records
            .is_some_and(|n| app.wal_pressure().0 >= n);
        let due_time = self.checkpoints.every.is_some_and(|d| {
            self.last_checkpoint
                .lock()
                .expect("scheduler clock")
                .elapsed()
                >= d
        });
        if !(due_records || due_time) || app.is_degraded() {
            return;
        }
        if self
            .checkpoint_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // another thread is checkpointing
        }
        if let Some(dir) = app.persist_dir() {
            if let Ok(Some(_)) = app.checkpoint_scheduled(&dir) {
                app.scheduled_checkpoints.fetch_add(1, Ordering::Relaxed);
            }
        }
        *self.last_checkpoint.lock().expect("scheduler clock") = Instant::now();
        self.checkpoint_in_flight.store(false, Ordering::Release);
    }

    /// Admits and dispatches one request on the calling thread, then
    /// runs the post-request hook — so a checkpoint it schedules has
    /// finished when `serve` returns.
    #[must_use]
    pub fn serve(&self, request: Request) -> ServedResponse {
        let served = self.dispatch(&request);
        self.after_request();
        served
    }

    /// Requests shed (answered `503` without dispatch) since start.
    #[must_use]
    pub fn sheds(&self) -> usize {
        self.admission.sheds.load(Ordering::Relaxed)
    }

    /// Closes the gate: requests already dispatching finish, and every
    /// later one is shed without reaching the app. Idempotent.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{simple_policy, ModelDef, Viewer};
    use microdb::{ColumnDef, ColumnType, Value};
    use std::sync::mpsc;

    fn note_app() -> App {
        let mut app = App::new();
        app.register_model(
            ModelDef::public(
                "note",
                vec![
                    ColumnDef::new("owner", ColumnType::Int),
                    ColumnDef::new("text", ColumnType::Str),
                ],
            )
            .with_policy(simple_policy(
                "note_owner",
                vec![1],
                |_| vec![Value::from("[private]")],
                |args| args.viewer.user_jid() == args.row[0].as_int(),
            )),
        )
        .unwrap();
        for i in 0..6 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        app
    }

    fn note_router() -> Router {
        let mut router = Router::new();
        router.route_read_tables("notes", &["note"], |app: &App, req| {
            let rows = app.all("note").unwrap_or_default();
            let mut session = crate::Session::new(req.viewer.clone());
            let mut body = String::new();
            for row in session.view_rows(app, &rows) {
                body.push_str(row[1].as_str().unwrap_or("?"));
                body.push('\n');
            }
            Response::ok(body)
        });
        router.route_tables("note/add", &[], &["note"], |app: &App, req| {
            let owner = req.viewer.user_jid().unwrap_or(-1);
            match app.create("note", vec![Value::Int(owner), Value::from("added")]) {
                Ok(jid) => Response::ok(jid.to_string()),
                Err(e) => Response::error(&e.to_string()),
            }
        });
        router
    }

    /// [`note_router`] plus a fragment renderer over `note` for the
    /// `notes` page — one line per note, byte-identical to the full
    /// page's slice for that note.
    fn fragment_router() -> Router {
        let mut router = note_router();
        router.route_fragments(
            "notes",
            "note",
            |_, _| (String::new(), String::new()),
            |app: &App, req, jid| {
                let Ok(obj) = app.get("note", jid) else {
                    return String::new();
                };
                let mut session = crate::Session::new(req.viewer.clone());
                session
                    .view_object(app, &obj)
                    .map_or_else(String::new, |row| {
                        format!("{}\n", row[1].as_str().unwrap_or("?"))
                    })
            },
        );
        router
    }

    fn read_mix() -> Vec<Request> {
        (0..24)
            .map(|i| Request::new("notes", Viewer::User(i % 7)))
            .collect()
    }

    /// Runs `requests` on `workers` scoped threads sharing one app:
    /// worker `w` sends every `workers`-th request from `w` on through
    /// its own [`Executor::run`], and the responses are reassembled in
    /// submission order.
    fn run_strided(
        app: &App,
        router: &Router,
        requests: &[Request],
        workers: usize,
    ) -> Vec<Response> {
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

    #[test]
    fn sequential_matches_direct_router_dispatch() {
        let app = note_app();
        let router = note_router();
        let requests = read_mix();
        let executed = Executor::run(&app, &router, &requests);
        let direct_app = note_app();
        let direct: Vec<Response> = requests
            .iter()
            .map(|r| router.handle(&direct_app, r))
            .collect();
        assert_eq!(executed, direct);
    }

    #[test]
    fn concurrent_reads_match_sequential() {
        let app = note_app();
        let router = note_router();
        let requests = read_mix();
        let sequential = Executor::run(&app, &router, &requests);
        for workers in [2, 4] {
            let concurrent = run_strided(&app, &router, &requests, workers);
            assert_eq!(concurrent, sequential, "{workers} workers");
        }
    }

    #[test]
    fn writes_take_effect_and_unknown_paths_404() {
        let app = note_app();
        let router = note_router();
        let requests = vec![
            Request::new("note/add", Viewer::User(1)),
            Request::new("nope", Viewer::Anonymous),
            Request::new("notes", Viewer::User(1)),
        ];
        let responses = Executor::run(&app, &router, &requests);
        assert_eq!(responses[0].status, 200);
        assert_eq!(responses[1].status, 404);
        assert!(responses[2].body.contains("added"));
    }

    #[test]
    fn executor_shares_one_app_across_threads() {
        // Mixed reads and (commuting) writes across 4 workers: every
        // write lands exactly once in the shared database.
        let app = note_app();
        let router = note_router();
        let writes = 12;
        let requests: Vec<Request> = (0..writes)
            .map(|i| Request::new("note/add", Viewer::User(i)))
            .collect();
        let responses = run_strided(&app, &router, &requests, 4);
        assert!(responses.iter().all(|r| r.status == 200));
        let total = app
            .all("note")
            .unwrap()
            .iter()
            .filter(|(_, r)| r.fields[1] == Value::from("added"))
            .map(|(_, r)| r.jid)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(total as i64, writes);
    }

    #[test]
    fn undeclared_write_routes_still_serialize() {
        // A router registered entirely through the legacy (no
        // footprint) API keeps the old conservative semantics.
        let app = note_app();
        let mut router = Router::new();
        router.route("note/add", |app: &App, req| {
            let owner = req.viewer.user_jid().unwrap_or(-1);
            match app.create("note", vec![Value::Int(owner), Value::from("added")]) {
                Ok(jid) => Response::ok(jid.to_string()),
                Err(e) => Response::error(&e.to_string()),
            }
        });
        router.route_read("notes", |app: &App, req| {
            let rows = app.all("note").unwrap_or_default();
            let mut session = crate::Session::new(req.viewer.clone());
            Response::ok(format!("{}", session.view_rows(app, &rows).len()))
        });
        let mut requests: Vec<Request> = (0..8)
            .map(|i| Request::new("note/add", Viewer::User(i)))
            .collect();
        requests.extend((0..8).map(|i| Request::new("notes", Viewer::User(i))));
        let responses = run_strided(&app, &router, &requests, 4);
        assert!(responses.iter().all(|r| r.status == 200));
        assert_eq!(app.db.physical_rows("note").unwrap(), (6 + 8) * 2);
    }

    #[test]
    fn concurrent_run_calls_on_one_app_share_footprint_locks() {
        // Two separate Executor::run invocations against the same App
        // must isolate against each other: `save` is a delete +
        // re-insert, so if the runs did not share a lock table, the
        // reader run could observe the object mid-save as absent.
        let app = note_app();
        let jid = 1i64;
        let mut writer_router = Router::new();
        writer_router.route_tables(
            "note/rewrite",
            &[],
            &["note"],
            move |app: &App, _| match app.update_fields(
                "note",
                jid,
                &[(1, Value::from("rewritten"))],
                &Default::default(),
            ) {
                Ok(()) => Response::ok("ok".into()),
                Err(e) => Response::error(&e.to_string()),
            },
        );
        let mut reader_router = Router::new();
        reader_router.route_read_tables("note/present", &["note"], move |app: &App, _| {
            match app.get("note", jid) {
                Ok(_) => Response::ok("present".into()),
                Err(e) => Response::error(&e.to_string()),
            }
        });
        let writes: Vec<Request> = (0..50)
            .map(|_| Request::new("note/rewrite", Viewer::User(0)))
            .collect();
        let reads: Vec<Request> = (0..200)
            .map(|_| Request::new("note/present", Viewer::User(0)))
            .collect();
        std::thread::scope(|scope| {
            let w = scope.spawn(|| Executor::run(&app, &writer_router, &writes));
            let r = scope.spawn(|| Executor::run(&app, &reader_router, &reads));
            let write_responses = w.join().unwrap();
            let read_responses = r.join().unwrap();
            assert!(write_responses.iter().all(|resp| resp.status == 200));
            for resp in &read_responses {
                assert_eq!(
                    (resp.status, resp.body.as_str()),
                    (200, "present"),
                    "a reader observed a torn save across executor runs"
                );
            }
        });
    }

    #[test]
    fn service_mode_serves_submitted_requests() {
        let app = Arc::new(note_app());
        let service = ExecutorService::start(Arc::clone(&app), Arc::new(note_router()), 3);
        // Eight writes from eight threads, each dispatched on its own.
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..8)
                .map(|i| {
                    let service = &service;
                    scope.spawn(move || service.serve(Request::new("note/add", Viewer::User(i))))
                })
                .collect();
            for writer in writers {
                assert_eq!(writer.join().unwrap().response.status, 200);
            }
        });
        let read = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(read.response.status, 200);
        // 6 seeded notes + 8 added = 14 rows; the viewer reads their
        // own note's text, every other row shows the public facet.
        assert_eq!(read.response.body.lines().count(), 6 + 8);
        assert_eq!(read.response.body.matches("added").count(), 1);
        let miss = service.serve(Request::new("nope", Viewer::Anonymous));
        assert_eq!(miss.response.status, 404);
        assert_eq!(service.sheds(), 0);
    }

    #[test]
    fn service_mode_matches_batch_mode_bytes() {
        let service_app = Arc::new(note_app());
        let service = ExecutorService::start(Arc::clone(&service_app), Arc::new(note_router()), 4);
        let batch_app = note_app();
        let router = note_router();
        let requests = read_mix();
        let batch = Executor::run(&batch_app, &router, &requests);
        for (request, expected) in requests.iter().zip(batch) {
            let served = service.serve(request.clone());
            assert_eq!(served.response, expected);
        }
    }

    #[test]
    fn serve_after_shutdown_answers_503_and_writes_nothing() {
        let app = Arc::new(note_app());
        let service = ExecutorService::start(Arc::clone(&app), Arc::new(note_router()), 2);
        service.shutdown();
        let served = service.serve(Request::new("note/add", Viewer::User(1)));
        assert_eq!(served.response.status, 503);
        assert_eq!(served.response.header("Retry-After"), Some("1"));
        assert_eq!(service.sheds(), 1);
        assert_eq!(
            app.db.physical_rows("note").unwrap(),
            12,
            "the shed write never reached storage"
        );
    }

    /// The debug-build footprint checker: a route that reads a table
    /// it never declared must panic the dispatch (under-declared
    /// footprints silently break request isolation otherwise).
    /// Release builds skip the check, so this test is debug-only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside its declared footprint")]
    fn under_declared_read_footprint_panics_in_debug() {
        let app = note_app();
        let mut router = Router::new();
        // Declares nothing but reads `note`.
        router.route_read_tables("sneaky", &[], |app: &App, _req| {
            let rows = app.all("note").unwrap_or_default();
            Response::ok(rows.len().to_string())
        });
        let requests = vec![Request::new("sneaky", Viewer::User(1))];
        let _ = Executor::run(&app, &router, &requests);
    }

    /// The satellite fix: footprint-less routes used to skip the
    /// checker entirely — a *read* route that writes would race
    /// declared readers silently (it holds only shared locks). Now
    /// the global-lock fallback path records too, and the write
    /// panics the dispatch.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "footprint-less read route")]
    fn footprint_less_read_route_that_writes_panics_in_debug() {
        let app = note_app();
        let mut router = Router::new();
        // Registered through the legacy no-footprint *read* API, but
        // it mutates the database.
        router.route_read("sneaky/mutating-page", |app: &App, _req| {
            app.create("note", vec![Value::Int(5), Value::from("x")])
                .unwrap();
            Response::ok(String::new())
        });
        let requests = vec![Request::new("sneaky/mutating-page", Viewer::User(1))];
        let _ = Executor::run(&app, &router, &requests);
    }

    /// Footprint-less read routes that only *read* still pass under
    /// the new fallback checker.
    #[test]
    fn footprint_less_read_route_that_reads_passes() {
        let app = note_app();
        let mut router = Router::new();
        router.route_read("legacy/list", |app: &App, _req| {
            Response::ok(app.all("note").map(|r| r.len()).unwrap_or(0).to_string())
        });
        let requests = vec![Request::new("legacy/list", Viewer::User(1))];
        let responses = Executor::run(&app, &router, &requests);
        assert_eq!(responses[0].status, 200);
        assert_eq!(responses[0].body, "12", "6 notes × 2 facet rows");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "wrote table")]
    fn under_declared_write_footprint_panics_in_debug() {
        let app = note_app();
        let mut router = Router::new();
        // Declares `note` as a *read*, then writes it.
        router.route_tables("sneaky/add", &["note"], &[], |app: &App, _req| {
            app.create("note", vec![Value::Int(9), Value::from("x")])
                .unwrap();
            Response::ok(String::new())
        });
        let requests = vec![Request::new("sneaky/add", Viewer::User(1))];
        let _ = Executor::run(&app, &router, &requests);
    }

    #[test]
    fn declared_footprints_pass_the_debug_check() {
        // The canonical routers run under the checker in every debug
        // test run; this pins the simplest positive case explicitly.
        let app = note_app();
        let router = note_router();
        let requests = vec![
            Request::new("notes", Viewer::User(1)),
            Request::new("note/add", Viewer::User(1)),
        ];
        let responses = Executor::run(&app, &router, &requests);
        assert!(responses.iter().all(|r| r.status == 200));
    }

    #[test]
    fn render_cache_serves_hits_until_a_write_invalidates() {
        let app = note_app();
        let router = note_router();
        let read = |app: &App| {
            Executor::run(app, &router, &[Request::new("notes", Viewer::User(1))]).remove(0)
        };
        let cold = read(&app);
        let warm = read(&app);
        assert_eq!(warm, cold, "a hit serves the same bytes as the render");
        let stats = app.render_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidated), (1, 1, 0));
        // A real write to the footprint table moves its generation:
        // the next read invalidates, re-renders, and re-caches.
        let responses = Executor::run(
            &app,
            &router,
            &[
                Request::new("note/add", Viewer::User(1)),
                Request::new("notes", Viewer::User(1)),
                Request::new("notes", Viewer::User(1)),
            ],
        );
        assert!(responses[1].body.contains("added"));
        assert_eq!(responses[2], responses[1]);
        let stats = app.render_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidated), (2, 2, 1));
    }

    #[test]
    fn render_cache_keys_are_per_viewer() {
        let app = note_app();
        let router = note_router();
        let pages: Vec<Response> = Executor::run(
            &app,
            &router,
            &[
                Request::new("notes", Viewer::User(1)),
                Request::new("notes", Viewer::User(2)),
                Request::new("notes", Viewer::Anonymous),
            ],
        );
        // Three viewers, three private projections — none may share.
        assert!(pages[0].body.contains("n1") && !pages[0].body.contains("n2"));
        assert!(pages[1].body.contains("n2") && !pages[1].body.contains("n1"));
        assert!(!pages[2].body.contains("n1") && !pages[2].body.contains("n2"));
        let stats = app.render_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 3), "no cross-viewer hits");
    }

    #[test]
    fn render_cache_ablation_bypasses_and_restores() {
        let app = note_app();
        let router = note_router();
        assert!(app.set_render_cache(false), "default is enabled");
        let requests = vec![
            Request::new("notes", Viewer::User(1)),
            Request::new("notes", Viewer::User(1)),
        ];
        let off = Executor::run(&app, &router, &requests);
        let stats = app.render_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "disabled = untouched");
        assert!(!app.set_render_cache(true));
        let on = Executor::run(&app, &router, &requests);
        assert_eq!(on, off, "ablation changes cost, never bytes");
        assert_eq!(app.render_cache_stats().hits, 1);
    }

    #[test]
    fn footprint_less_read_routes_are_counted_uncacheable() {
        let app = note_app();
        let mut router = note_router();
        router.route_read("legacy/count", |app: &App, _| {
            Response::ok(app.all("note").map(|r| r.len()).unwrap_or(0).to_string())
        });
        let requests = vec![
            Request::new("legacy/count", Viewer::User(1)),
            Request::new("legacy/count", Viewer::User(1)),
        ];
        let responses = Executor::run(&app, &router, &requests);
        assert_eq!(responses[0], responses[1]);
        let stats = app.render_cache_stats();
        assert_eq!(stats.uncacheable, 2, "counted, not cached");
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    /// The PR 6 interaction pin: generation-silent no-op writes
    /// (`update_where`/`delete_where` touching zero rows) must leave
    /// render-cache entries valid — the generation vector never moved,
    /// so hits keep hitting.
    #[test]
    fn no_op_writes_leave_render_cache_hits_hitting() {
        use microdb::{Operand, Predicate};
        let app = note_app();
        let router = note_router();
        let request = [Request::new("notes", Viewer::User(1))];
        let _ = Executor::run(&app, &router, &request);
        let _ = Executor::run(&app, &router, &request);
        let before = app.render_cache_stats();
        assert_eq!((before.hits, before.invalidated), (1, 0));
        // Zero-row update and delete: PR 6 made these generation-silent.
        let nobody = Predicate::eq(Operand::col("owner"), Operand::Lit(Value::Int(999)));
        let updated = app
            .db
            .raw_ref()
            .update(
                "note",
                &nobody,
                &[("text".to_owned(), Value::from("never"))],
            )
            .unwrap();
        let deleted = app.db.raw_ref().delete("note", &nobody).unwrap();
        assert_eq!((updated, deleted), (0, 0));
        let _ = Executor::run(&app, &router, &request);
        let after = app.render_cache_stats();
        assert_eq!(after.hits, before.hits + 1, "no-op writes must not evict");
        assert_eq!(after.invalidated, 0);
    }

    #[test]
    fn service_mode_reports_render_cache_status() {
        let app = Arc::new(note_app());
        let service = ExecutorService::start(Arc::clone(&app), Arc::new(note_router()), 2);
        let first = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(first.render_cache, RenderCacheStatus::Miss);
        let second = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(second.render_cache, RenderCacheStatus::Hit);
        assert_eq!(second.response, first.response);
        let write = service.serve(Request::new("note/add", Viewer::User(1)));
        assert_eq!(write.render_cache, RenderCacheStatus::Bypass);
        let miss = service.serve(Request::new("nope", Viewer::Anonymous));
        assert_eq!(miss.render_cache, RenderCacheStatus::Bypass);
    }

    #[test]
    fn fragment_repair_repairs_in_place_with_one_fragment() {
        let app = Arc::new(note_app());
        let service = ExecutorService::start(Arc::clone(&app), Arc::new(fragment_router()), 2);
        let cold = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(cold.render_cache, RenderCacheStatus::Miss);
        let warm = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(warm.render_cache, RenderCacheStatus::Hit);

        let write = service.serve(Request::new("note/add", Viewer::User(1)));
        assert_eq!(write.response.status, 200, "{}", write.response.body);
        let repaired = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(repaired.render_cache, RenderCacheStatus::Repair);
        assert!(repaired.response.body.contains("added"));
        // Byte-identity with a full, uncached render of the live state.
        let fresh = fragment_router().handle(&app, &Request::new("notes", Viewer::User(1)));
        assert_eq!(repaired.response.body, fresh.body);

        let stats = app.render_cache_stats();
        assert_eq!(
            (stats.repairs, stats.repaired_fragments),
            (1, 1),
            "one single-note write re-rendered exactly one fragment"
        );
        assert_eq!(
            (stats.hits, stats.misses, stats.invalidated),
            (1, 1, 0),
            "a repair is neither a miss nor an invalidation"
        );
        // The repaired entry is restamped: the next read is a hit.
        let hot = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(hot.render_cache, RenderCacheStatus::Hit);
        assert_eq!(hot.response, repaired.response);
    }

    /// Repair copies untouched fragments out of the stored body by
    /// byte span. Multi-byte UTF-8 fragments sit next to empty ones
    /// (notes the viewer may not read render nothing), so a span end
    /// that is off by one either splits a character — and the repair
    /// falls back to a miss — or copies the wrong bytes.
    #[test]
    fn repair_splices_multibyte_fragments_by_span() {
        let app = Arc::new(note_app());
        let text = |row: Option<&[Value]>| {
            row.and_then(|r| r[1].as_str())
                .filter(|t| *t != "[private]")
                .map_or_else(String::new, |t| format!("{t}\n"))
        };
        let mut router = Router::new();
        router.route_read_tables("notes", &["note"], move |app: &App, req| {
            let rows = app.all("note").unwrap_or_default();
            let mut session = crate::Session::new(req.viewer.clone());
            let page: String = session
                .view_rows(app, &rows)
                .into_iter()
                .map(|row| text(Some(row)))
                .collect();
            Response::ok(format!("« notes »\n{page}— end —\n"))
        });
        router.route_fragments(
            "notes",
            "note",
            |_, _| ("« notes »\n".to_owned(), "— end —\n".to_owned()),
            move |app: &App, req, jid| {
                let mut session = crate::Session::new(req.viewer.clone());
                let row = app
                    .get("note", jid)
                    .ok()
                    .and_then(|obj| session.view_object(app, &obj));
                text(row.as_deref())
            },
        );
        let router = Arc::new(router);
        let service = ExecutorService::start(Arc::clone(&app), Arc::clone(&router), 2);
        let viewers: Vec<Viewer> = (0..7)
            .map(Viewer::User)
            .chain([Viewer::Anonymous])
            .collect();
        let check = |step: &str, expect: RenderCacheStatus| {
            for viewer in &viewers {
                let served = service.serve(Request::new("notes", viewer.clone()));
                assert_eq!(served.render_cache, expect, "{step}, {viewer}");
                let uncached = router.handle(&app, &Request::new("notes", viewer.clone()));
                assert_eq!(served.response, uncached, "{step}, {viewer}");
            }
        };
        let pc = faceted::Branches::new();
        let cafe = app
            .create("note", vec![Value::Int(1), Value::from("Café — naïve")])
            .unwrap();
        check("cold", RenderCacheStatus::Miss);
        app.create("note", vec![Value::Int(2), Value::from("über ✓")])
            .unwrap();
        check("insert", RenderCacheStatus::Repair);
        app.update_fields("note", cafe, &[(1, Value::from("Ça — naïf"))], &pc)
            .unwrap();
        check("in-place save", RenderCacheStatus::Repair);
        app.db.delete("note", cafe, &pc).unwrap();
        check("delete", RenderCacheStatus::Repair);
        let stats = app.render_cache_stats();
        assert_eq!(
            (stats.repairs, stats.repaired_fragments),
            (24, 16),
            "per viewer, an insert or save re-renders one fragment and a delete none"
        );
    }

    #[test]
    fn fragment_repair_disabled_falls_back_to_invalidation() {
        let app = Arc::new(note_app());
        assert!(app.set_fragment_repair(false), "fragments default on");
        let service = ExecutorService::start(Arc::clone(&app), Arc::new(fragment_router()), 2);
        let _ = service.serve(Request::new("notes", Viewer::User(1)));
        let _ = service.serve(Request::new("note/add", Viewer::User(1)));
        let after = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(
            after.render_cache,
            RenderCacheStatus::Miss,
            "with fragments off a stale entry is discarded, PR 7 style"
        );
        let stats = app.render_cache_stats();
        assert_eq!((stats.repairs, stats.invalidated), (0, 1));
        assert!(!app.fragment_repair_enabled());
        assert!(!app.set_fragment_repair(true), "reports previous setting");
    }

    #[test]
    fn fragment_repair_falls_back_when_the_journal_window_slides() {
        let app = Arc::new(note_app());
        let service = ExecutorService::start(Arc::clone(&app), Arc::new(fragment_router()), 2);
        let _ = service.serve(Request::new("notes", Viewer::User(1)));
        // Push the note table's journal past its 1024-row budget: each
        // note is two facet rows, so 600 creates overflow the window.
        for i in 0..600 {
            app.create("note", vec![Value::Int(i), Value::from("bulk")])
                .unwrap();
        }
        let after = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(
            after.render_cache,
            RenderCacheStatus::Miss,
            "a slid-past journal window must fall back to a full render"
        );
        let fresh = fragment_router().handle(&app, &Request::new("notes", Viewer::User(1)));
        assert_eq!(after.response.body, fresh.body);
        let stats = app.render_cache_stats();
        assert_eq!((stats.repairs, stats.invalidated), (0, 1));
    }

    #[test]
    fn fragment_repair_requires_the_fragment_table_to_be_the_only_mover() {
        // Two-table page: notes joined with a `tag` table the
        // fragments also read. A tag write moves a non-fragment
        // footprint table, so repair must refuse (untouched fragments'
        // bytes could depend on it) and fall back to a full render.
        let mut app = note_app();
        app.register_model(ModelDef::public(
            "tag",
            vec![ColumnDef::new("label", ColumnType::Str)],
        ))
        .unwrap();
        app.create("tag", vec![Value::from("v1")]).unwrap();
        let app = Arc::new(app);
        let mut router = Router::new();
        let page = |app: &App, req: &Request| {
            let tag = app
                .all("tag")
                .ok()
                .and_then(|rows| {
                    let mut session = crate::Session::new(req.viewer.clone());
                    session
                        .view_rows(app, &rows)
                        .last()
                        .map(|r| r[0].as_str().unwrap_or("?").to_owned())
                })
                .unwrap_or_default();
            let rows = app.all("note").unwrap_or_default();
            let mut session = crate::Session::new(req.viewer.clone());
            let mut body = String::new();
            for row in session.view_rows(app, &rows) {
                body.push_str(&format!("{} [{tag}]\n", row[1].as_str().unwrap_or("?")));
            }
            body
        };
        router.route_read_tables("tagged", &["note", "tag"], move |app: &App, req| {
            Response::ok(page(app, req))
        });
        router.route_tables("tag/set", &[], &["tag"], |app: &App, req| {
            let label = req.params.get("label").cloned().unwrap_or_default();
            match app.create("tag", vec![Value::from(label)]) {
                Ok(jid) => Response::ok(jid.to_string()),
                Err(e) => Response::error(&e.to_string()),
            }
        });
        router.route_tables("note/add", &[], &["note"], |app: &App, req| {
            let owner = req.viewer.user_jid().unwrap_or(-1);
            match app.create("note", vec![Value::Int(owner), Value::from("added")]) {
                Ok(jid) => Response::ok(jid.to_string()),
                Err(e) => Response::error(&e.to_string()),
            }
        });
        router.route_fragments(
            "tagged",
            "note",
            |_, _| (String::new(), String::new()),
            |app: &App, req, jid| {
                let tag = app
                    .all("tag")
                    .ok()
                    .and_then(|rows| {
                        let mut session = crate::Session::new(req.viewer.clone());
                        session
                            .view_rows(app, &rows)
                            .last()
                            .map(|r| r[0].as_str().unwrap_or("?").to_owned())
                    })
                    .unwrap_or_default();
                let Ok(obj) = app.get("note", jid) else {
                    return String::new();
                };
                let mut session = crate::Session::new(req.viewer.clone());
                session
                    .view_object(app, &obj)
                    .map_or_else(String::new, |row| {
                        format!("{} [{tag}]\n", row[1].as_str().unwrap_or("?"))
                    })
            },
        );
        let router = Arc::new(router);
        let service = ExecutorService::start(Arc::clone(&app), Arc::clone(&router), 2);
        let _ = service.serve(Request::new("tagged", Viewer::User(1)));
        let tag_write =
            service.serve(Request::new("tag/set", Viewer::User(1)).with_param("label", "v2"));
        assert_eq!(tag_write.response.status, 200);
        let after = service.serve(Request::new("tagged", Viewer::User(1)));
        assert_eq!(
            after.render_cache,
            RenderCacheStatus::Miss,
            "a non-fragment footprint table moved: full re-render, no splice"
        );
        assert!(
            after.response.body.contains("[v2]"),
            "{}",
            after.response.body
        );
        // A note write with the tag table quiescent *does* repair.
        let _ = service.serve(Request::new("note/add", Viewer::User(1)));
        let repaired = service.serve(Request::new("tagged", Viewer::User(1)));
        assert_eq!(repaired.render_cache, RenderCacheStatus::Repair);
        let fresh = router.handle(&app, &Request::new("tagged", Viewer::User(1)));
        assert_eq!(repaired.response.body, fresh.body);
    }

    #[test]
    fn canonicalized_params_share_one_cache_entry() {
        let app = note_app();
        let mut router = note_router();
        router.route_read_tables("note/one", &["note"], |app: &App, req| {
            let Some(jid) = req.int_param("id") else {
                return Response::bad_request("id required");
            };
            match app.get("note", jid) {
                Ok(obj) => {
                    let mut session = crate::Session::new(req.viewer.clone());
                    let row = session.view_object(app, &obj);
                    Response::ok(
                        row.map_or_else(String::new, |r| r[1].as_str().unwrap_or("?").to_owned()),
                    )
                }
                Err(e) => Response::error(&e.to_string()),
            }
        });
        router.canonicalize_int_params("note/one", &["id"]);
        let responses = Executor::run(
            &app,
            &router,
            &[
                Request::new("note/one", Viewer::User(1)).with_param("id", "1"),
                // Same object, denormalized id plus a stray param: the
                // canonicalizer folds it onto the warm entry.
                Request::new("note/one", Viewer::User(1))
                    .with_param("id", "01")
                    .with_param("utm", "x"),
            ],
        );
        assert_eq!(responses[0], responses[1]);
        let stats = app.render_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn degraded_mode_sheds_writes_serves_reads_and_recovers() {
        let app = note_app();
        let router = note_router();
        app.enter_degraded("disk full (test)".to_owned());
        let responses = Executor::run(
            &app,
            &router,
            &[
                Request::new("note/add", Viewer::User(1)),
                Request::new("notes", Viewer::User(1)),
            ],
        );
        assert_eq!(responses[0].status, 503, "writes shed while degraded");
        assert_eq!(responses[0].header("Retry-After"), Some("1"));
        assert!(responses[0].body.contains("disk full (test)"));
        assert_eq!(responses[1].status, 200, "reads keep serving");
        assert_eq!(
            app.db.physical_rows("note").unwrap(),
            12,
            "the shed write never reached storage"
        );
        app.clear_degraded();
        let retry = Executor::run(&app, &router, &[Request::new("note/add", Viewer::User(1))]);
        assert_eq!(retry[0].status, 200, "writes resume once cleared");
    }

    #[test]
    fn degraded_exempt_routes_still_dispatch() {
        let app = note_app();
        let mut router = note_router();
        router.route("admin/fix", |_, _| Response::ok("fixed".into()));
        router.exempt_from_degraded("admin/fix");
        app.enter_degraded("disk full (test)".to_owned());
        let responses = Executor::run(
            &app,
            &router,
            &[
                Request::new("admin/fix", Viewer::User(1)),
                Request::new("note/add", Viewer::User(1)),
            ],
        );
        assert_eq!(responses[0].status, 200, "the recovery route runs");
        assert_eq!(responses[1].status, 503, "ordinary writes still shed");
    }

    #[test]
    fn bounded_queue_sheds_with_retry_after_and_recovers() {
        // One permit, a line of 2, four requests at once on a route
        // that parks until released. One takes the permit and parks,
        // two wait in line, and the fourth must be shed at once with
        // 503 + Retry-After. Once released the line is served and the
        // service takes work again.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let mut router = Router::new();
        router.route_read("park", move |_, _| {
            let _ = release_rx.lock().unwrap().recv();
            Response::ok("parked".into())
        });
        let service = ExecutorService::start_bounded(Arc::new(App::new()), Arc::new(router), 1, 2);
        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel();
            for i in 0..4 {
                let (service, done_tx) = (&service, done_tx.clone());
                scope.spawn(move || {
                    let served = service.serve(Request::new("park", Viewer::User(i)));
                    done_tx.send(served.response).unwrap();
                });
            }
            // Nothing admitted can finish while the permit holder is
            // parked, so the first answer back is the shed one.
            let shed = done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a request waited past the line instead of being shed");
            assert_eq!(shed.status, 503, "{}", shed.body);
            assert_eq!(shed.header("Retry-After"), Some("1"));
            assert_eq!(service.sheds(), 1);
            drop(release_tx);
            for _ in 0..3 {
                assert_eq!(done_rx.recv().unwrap().body, "parked");
            }
        });
        // Recovery: the drained gate admits and serves new work.
        let after = service.serve(Request::new("park", Viewer::User(4)));
        assert_eq!(after.response.status, 200);
        assert_eq!(service.sheds(), 1, "no further sheds after recovery");
    }

    #[test]
    fn write_to_one_table_does_not_block_readers_of_another() {
        // The table-granular locking headline, demonstrated
        // deterministically: a write controller on table `a` parks
        // until a reader of table `b` has completed. Under the old
        // app-wide write lock this deadlocks (the reader can never
        // start while the writer holds the app); with footprint locks
        // the reader proceeds and both finish.
        let mut app = App::new();
        for t in ["a", "b"] {
            app.register_model(ModelDef::public(
                t,
                vec![ColumnDef::new("x", ColumnType::Int)],
            ))
            .unwrap();
        }
        app.create("b", vec![Value::Int(7)]).unwrap();

        let (reader_done_tx, reader_done_rx) = mpsc::channel::<()>();
        let reader_done_rx = std::sync::Mutex::new(reader_done_rx);
        let reader_done_tx = std::sync::Mutex::new(Some(reader_done_tx));
        let mut router = Router::new();
        router.route_tables("a/slow_add", &[], &["a"], move |app: &App, _req| {
            app.create("a", vec![Value::Int(1)]).unwrap();
            // Park until the reader of `b` reports completion; if the
            // reader were blocked behind this writer, this would time
            // out and fail rather than deadlock forever.
            let ok = reader_done_rx
                .lock()
                .unwrap()
                .recv_timeout(std::time::Duration::from_secs(10))
                .is_ok();
            Response::ok(format!("reader_finished_first={ok}"))
        });
        router.route_read_tables("b/read", &["b"], move |app: &App, _req| {
            let n = app.all("b").map(|r| r.len()).unwrap_or(0);
            if let Some(tx) = reader_done_tx.lock().unwrap().take() {
                let _ = tx.send(());
            }
            Response::ok(n.to_string())
        });

        let requests = vec![
            Request::new("a/slow_add", Viewer::User(1)),
            Request::new("b/read", Viewer::User(2)),
        ];
        let responses = run_strided(&app, &router, &requests, 2);
        assert_eq!(
            responses[0].body, "reader_finished_first=true",
            "the b-reader must complete while the a-writer is mid-request"
        );
        assert_eq!(responses[1].body, "1");
    }

    #[test]
    fn scheduled_checkpoints_fire_on_record_pressure_and_compact_the_wal() {
        let dir = std::env::temp_dir().join(format!("jacq_exec_sched_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        let app = Arc::new(app);
        let policy = CheckpointPolicy {
            every_records: Some(1),
            every: None,
        };
        let service = ExecutorService::start_scheduled(
            Arc::clone(&app),
            Arc::new(note_router()),
            2,
            DEFAULT_QUEUE_DEPTH,
            policy,
        );
        // Each write leaves one WAL record, and `serve` runs the hook
        // before returning: one checkpoint per write, each compacting
        // the log to nothing.
        for i in 0..6 {
            let served = service.serve(Request::new("note/add", Viewer::User(i)));
            assert_eq!(served.response.status, 200);
        }
        assert_eq!(app.scheduled_checkpoint_count(), 6);
        assert_eq!(app.wal_pressure().0, 0);
        let read = service.serve(Request::new("notes", Viewer::User(1)));
        assert_eq!(read.response.status, 200);
        assert_eq!(read.response.body.lines().count(), 6 + 6);
        assert!(dir.join(crate::checkpoint::CHECKPOINT_FILE).exists());
        assert!(dir.join("chunks").is_dir());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_policy_never_schedules_checkpoints() {
        let dir = std::env::temp_dir().join(format!("jacq_exec_nosched_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        let app = Arc::new(app);
        let service = ExecutorService::start_scheduled(
            Arc::clone(&app),
            Arc::new(note_router()),
            2,
            DEFAULT_QUEUE_DEPTH,
            CheckpointPolicy::default(),
        );
        for i in 0..4 {
            let served = service.serve(Request::new("note/add", Viewer::User(i)));
            assert_eq!(served.response.status, 200);
        }
        assert_eq!(app.scheduled_checkpoint_count(), 0);
        assert!(!dir.join(crate::checkpoint::CHECKPOINT_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
