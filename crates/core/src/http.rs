//! A minimal MVC request layer: enough to express the paper's
//! "representative actions" and stress tests as routed requests.
//!
//! The paper measured HTTP round-trips through FunkLoad; we simulate
//! the request/controller/response cycle in-process (DESIGN.md §4
//! documents this substitution) — the work that differs between
//! Jacqueline and the hand-coded baseline is all server-side.

use std::collections::{BTreeMap, BTreeSet};

use crate::app::App;
use crate::model::Viewer;

/// An incoming request: path, authenticated viewer, query params.
#[derive(Clone, Debug)]
pub struct Request {
    /// Route name, e.g. `"papers/all"`.
    pub path: String,
    /// The session user (the Early Pruning speculation target).
    pub viewer: Viewer,
    /// Query parameters.
    pub params: BTreeMap<String, String>,
}

impl Request {
    /// Builds a request with no parameters.
    #[must_use]
    pub fn new(path: &str, viewer: Viewer) -> Request {
        Request {
            path: path.to_owned(),
            viewer,
            params: BTreeMap::new(),
        }
    }

    /// Adds a query parameter (builder style).
    #[must_use]
    pub fn with_param(mut self, key: &str, value: &str) -> Request {
        self.params.insert(key.to_owned(), value.to_owned());
        self
    }

    /// An integer parameter.
    #[must_use]
    pub fn int_param(&self, key: &str) -> Option<i64> {
        self.params.get(key).and_then(|v| v.parse().ok())
    }
}

/// A response: status code, rendered body, and (for the wire path)
/// extra headers. The [`wire`](crate::wire) module owns the HTTP/1.1
/// byte format ([`Response::serialize`](crate::wire)); in-process
/// dispatch ignores headers entirely, so the differential grids keep
/// comparing plain bodies.
///
/// Error statuses are distinct on purpose: `400` for requests the
/// server could not parse or that miss required parameters, `403` for
/// requests a policy or the authenticator denied, `404` for unknown
/// routes/objects, `500` for internal failures. Controllers should
/// pick the matching constructor rather than collapsing everything
/// into one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The rendered page body.
    pub body: String,
    /// Extra response headers (`Set-Cookie`, `Content-Type`
    /// overrides …), serialized verbatim by the wire layer.
    pub headers: Vec<(String, String)>,
}

impl Response {
    fn with_status(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            headers: Vec::new(),
        }
    }

    /// A 200 response.
    #[must_use]
    pub fn ok(body: String) -> Response {
        Response::with_status(200, body)
    }

    /// A 400 response: the request was syntactically broken or missed
    /// a required parameter.
    #[must_use]
    pub fn bad_request(message: &str) -> Response {
        Response::with_status(400, message.to_owned())
    }

    /// A 403 response: the authenticator or a policy denied the
    /// request outright.
    #[must_use]
    pub fn forbidden(message: &str) -> Response {
        Response::with_status(403, message.to_owned())
    }

    /// A 404 response.
    #[must_use]
    pub fn not_found() -> Response {
        Response::with_status(404, "not found".to_owned())
    }

    /// A 500 response — internal failures only; use
    /// [`Response::bad_request`] / [`Response::forbidden`] /
    /// [`Response::not_found`] for client-attributable errors.
    #[must_use]
    pub fn error(message: &str) -> Response {
        Response::with_status(500, message.to_owned())
    }

    /// A 503 response with `Retry-After: 1` — the server is
    /// *temporarily* unable to take the request (read-only degraded
    /// mode, a full admission line, a service shutting down) and the
    /// client should back off and retry, not treat the failure as
    /// permanent.
    #[must_use]
    pub fn unavailable(message: &str) -> Response {
        Response::with_status(503, message.to_owned()).with_header("Retry-After", "1")
    }

    /// Appends a response header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// The first header with this (case-insensitive) name, if any.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The standard reason phrase for a status code (used by the wire
    /// serializer and handy in tests).
    #[must_use]
    pub fn status_text(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }
}

/// A write controller. Since the application object locks its state
/// internally (per-table storage locks, label/policy locks), write
/// controllers take `&App` like read controllers do — what
/// distinguishes them is *dispatch*: the executor grants a write
/// route exclusive footprint locks on the tables it declares.
/// `Send + Sync` so routers can be shared across executor worker
/// threads.
pub type Controller = Box<dyn Fn(&App, &Request) -> Response + Send + Sync>;

/// A read-only controller: dispatched under *shared* footprint locks,
/// so the concurrent executor can run many of these in parallel.
pub type ReadController = Box<dyn Fn(&App, &Request) -> Response + Send + Sync>;

/// A per-route params-canonicalization hook for the render cache:
/// rewrites a *copy* of the request params into the canonical form
/// used in cache keys, so equivalent requests (`id=07` vs `id=7`,
/// stray unused params) collide onto one cached page. The controller
/// always sees the original params — canonicalization only shapes the
/// key. Like a [`Footprint`], this is an app-author declaration: a
/// hook that conflates params the controller actually distinguishes
/// would serve the wrong page, so canonicalize only what the route
/// provably ignores.
pub type ParamCanonicalizer = Box<dyn Fn(&mut BTreeMap<String, String>) + Send + Sync>;

/// Renders a fragment-registered page's shell: `(prefix, suffix)`
/// around the per-object fragments.
pub type ShellRenderer = Box<dyn Fn(&App, &Request) -> (String, String) + Send + Sync>;

/// Renders one object's fragment for the request's viewer — a full
/// faceted projection, exactly what the complete page would emit for
/// that object (empty if the viewer cannot see it, or it no longer
/// exists).
pub type FragmentRenderer = Box<dyn Fn(&App, &Request, i64) -> String + Send + Sync>;

/// A route's registered fragment decomposition for the render cache's
/// repair path: the page is a shell (prefix + suffix) around one
/// fragment per object of `table`, rendered in first-appearance row
/// order. Registered via [`Router::route_fragments`] (see there for
/// the declaration contract); consulted only by the executor.
pub(crate) struct FragmentSpec {
    /// The table whose objects the fragments decompose.
    pub(crate) table: String,
    /// Renders the shell around the fragments.
    pub(crate) shell: ShellRenderer,
    /// Renders one object's fragment.
    pub(crate) fragment: FragmentRenderer,
}

/// The declared table footprint of a route: which tables its
/// controller may read and which it may write, including tables its
/// models' *policies* consult at output time.
///
/// Footprints are what give the executor table-granular locking: a
/// write request takes exclusive locks only on its `writes` set, so
/// it no longer blocks readers of unrelated tables. Declaring too
/// much costs parallelism; declaring too *little* breaks request
/// isolation (a reader could observe half of a multi-statement
/// write), so when in doubt declare generously — and routes with no
/// footprint at all fall back to whole-app exclusion.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Tables the controller (and the policies it triggers) reads.
    pub reads: BTreeSet<String>,
    /// Tables the controller mutates.
    pub writes: BTreeSet<String>,
}

impl Footprint {
    /// A read-only footprint.
    #[must_use]
    pub fn reads(tables: &[&str]) -> Footprint {
        Footprint {
            reads: tables.iter().map(|t| (*t).to_owned()).collect(),
            writes: BTreeSet::new(),
        }
    }

    /// A footprint with reads and writes.
    #[must_use]
    pub fn new(reads: &[&str], writes: &[&str]) -> Footprint {
        Footprint {
            reads: reads.iter().map(|t| (*t).to_owned()).collect(),
            writes: writes.iter().map(|t| (*t).to_owned()).collect(),
        }
    }

    /// Every table the footprint mentions, in canonical (sorted)
    /// order — the executor's lock-acquisition order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.reads.union(&self.writes).map(String::as_str)
    }

    /// Whether the footprint writes `table`.
    #[must_use]
    pub fn writes_table(&self, table: &str) -> bool {
        self.writes.contains(table)
    }
}

/// Routes requests to controllers by exact path.
///
/// Pages that only read the database register via
/// [`Router::route_read`] / [`Router::route_read_tables`]; actions
/// that mutate register via [`Router::route`] /
/// [`Router::route_tables`]. The read/write split plus the declared
/// [`Footprint`]s are what let the [`Executor`](crate::Executor) run
/// requests concurrently, serializing only true conflicts on the
/// same tables.
#[derive(Default)]
pub struct Router {
    routes: BTreeMap<String, Controller>,
    read_routes: BTreeMap<String, ReadController>,
    footprints: BTreeMap<String, Footprint>,
    canonicalizers: BTreeMap<String, ParamCanonicalizer>,
    fragments: BTreeMap<String, FragmentSpec>,
    /// Write routes the executor still dispatches while the app is in
    /// read-only degraded mode — the recovery paths themselves
    /// (`admin/checkpoint` must run to *clear* the mode).
    degraded_exempt: BTreeSet<String>,
}

impl Router {
    /// An empty router.
    #[must_use]
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers a (write) controller under a path, with no declared
    /// footprint: the executor dispatches it under whole-app
    /// exclusion.
    pub fn route(
        &mut self,
        path: &str,
        controller: impl Fn(&App, &Request) -> Response + Send + Sync + 'static,
    ) {
        self.routes.insert(path.to_owned(), Box::new(controller));
    }

    /// Registers a (write) controller that declares the tables it
    /// reads and writes; the executor takes exclusive locks only on
    /// `writes` and shared locks on `reads`.
    pub fn route_tables(
        &mut self,
        path: &str,
        reads: &[&str],
        writes: &[&str],
        controller: impl Fn(&App, &Request) -> Response + Send + Sync + 'static,
    ) {
        self.routes.insert(path.to_owned(), Box::new(controller));
        self.footprints
            .insert(path.to_owned(), Footprint::new(reads, writes));
    }

    /// Registers a read-only controller under a path. Read routes are
    /// preferred over write routes at dispatch time. With no declared
    /// footprint the executor takes shared locks on *every* declared
    /// table.
    pub fn route_read(
        &mut self,
        path: &str,
        controller: impl Fn(&App, &Request) -> Response + Send + Sync + 'static,
    ) {
        self.read_routes
            .insert(path.to_owned(), Box::new(controller));
    }

    /// Registers a read-only controller that declares the tables it
    /// touches (including tables consulted by output-time policies).
    pub fn route_read_tables(
        &mut self,
        path: &str,
        tables: &[&str],
        controller: impl Fn(&App, &Request) -> Response + Send + Sync + 'static,
    ) {
        self.read_routes
            .insert(path.to_owned(), Box::new(controller));
        self.footprints
            .insert(path.to_owned(), Footprint::reads(tables));
    }

    /// The read-only controller for `path`, if one is registered —
    /// how the executor decides between shared and exclusive
    /// footprint locks.
    #[must_use]
    pub fn read_controller(&self, path: &str) -> Option<&ReadController> {
        self.read_routes.get(path)
    }

    /// Whether a *write* controller is registered for `path`. The
    /// executor uses this to answer unknown paths 404 without taking
    /// any lock.
    #[must_use]
    pub fn has_write_route(&self, path: &str) -> bool {
        self.routes.contains_key(path)
    }

    /// The declared footprint of `path`, if any.
    #[must_use]
    pub fn footprint(&self, path: &str) -> Option<&Footprint> {
        self.footprints.get(path)
    }

    /// Exempts a write route from the executor's read-only degraded
    /// gate. Only recovery actions belong here: a route that *repairs*
    /// persistence (like `admin/checkpoint`) must stay dispatchable
    /// while ordinary writes answer `503`.
    pub fn exempt_from_degraded(&mut self, path: &str) {
        self.degraded_exempt.insert(path.to_owned());
    }

    /// Whether `path` bypasses the degraded-mode write gate.
    #[must_use]
    pub fn is_degraded_exempt(&self, path: &str) -> bool {
        self.degraded_exempt.contains(path)
    }

    /// Registers a render-cache params canonicalizer for `path` (see
    /// [`ParamCanonicalizer`] for the contract).
    pub fn canonicalize_params(
        &mut self,
        path: &str,
        f: impl Fn(&mut BTreeMap<String, String>) + Send + Sync + 'static,
    ) {
        self.canonicalizers.insert(path.to_owned(), Box::new(f));
    }

    /// The common canonicalizer: keeps only `keys` (params the route
    /// never reads cannot fragment the cache) and normalizes each kept
    /// value through an `i64` parse round-trip, so `id=07`, `id=+7`,
    /// and `id=7` share one cache entry. Unparseable values are left
    /// verbatim — the route answers them 4xx, which is never cached.
    pub fn canonicalize_int_params(&mut self, path: &str, keys: &[&str]) {
        let keys: Vec<String> = keys.iter().map(|k| (*k).to_owned()).collect();
        self.canonicalize_params(path, move |params| {
            params.retain(|k, _| keys.contains(k));
            for value in params.values_mut() {
                if let Ok(n) = value.parse::<i64>() {
                    *value = n.to_string();
                }
            }
        });
    }

    /// The registered canonicalizer for `path`, if any (the executor
    /// applies it to a copy of the params when building cache keys).
    #[must_use]
    pub fn canonicalizer(&self, path: &str) -> Option<&ParamCanonicalizer> {
        self.canonicalizers.get(path)
    }

    /// Registers a fragment renderer for `path`, opting the route's
    /// cached pages into journal-driven repair. `shell` renders the
    /// page's constant surround as `(prefix, suffix)`; `fragment`
    /// renders one object of `table` for the request's viewer,
    /// byte-identically to the slice of the full page that object
    /// produces (empty if the viewer cannot see it, or it no longer
    /// exists).
    ///
    /// Like a [`Footprint`], this is an app-author **declaration**,
    /// with one contract beyond byte-fidelity (which the executor
    /// verifies on every store): a fragment's bytes must not depend on
    /// *other rows of the fragment table*. They may depend freely on
    /// the object's own rows and on any other footprint table — repair
    /// falls back to a full render whenever those tables move. A page
    /// like the conference app's `users/all`, where one user's `role`
    /// row changes how *every* user's email renders, must not register
    /// a fragment renderer over `user_profile`.
    pub fn route_fragments(
        &mut self,
        path: &str,
        table: &str,
        shell: impl Fn(&App, &Request) -> (String, String) + Send + Sync + 'static,
        fragment: impl Fn(&App, &Request, i64) -> String + Send + Sync + 'static,
    ) {
        self.fragments.insert(
            path.to_owned(),
            FragmentSpec {
                table: table.to_owned(),
                shell: Box::new(shell),
                fragment: Box::new(fragment),
            },
        );
    }

    /// The registered fragment spec for `path`, if any.
    pub(crate) fn fragment_spec(&self, path: &str) -> Option<&FragmentSpec> {
        self.fragments.get(path)
    }

    /// Every table declared by any route's footprint, in canonical
    /// order — the executor builds its lock map from this.
    #[must_use]
    pub fn declared_tables(&self) -> BTreeSet<String> {
        self.footprints
            .values()
            .flat_map(|f| f.tables().map(str::to_owned))
            .collect()
    }

    /// Dispatches one request on the calling thread (the sequential
    /// path: no locks, submission order).
    pub fn handle(&self, app: &App, request: &Request) -> Response {
        if let Some(c) = self.read_routes.get(&request.path) {
            return c(app, request);
        }
        match self.routes.get(&request.path) {
            Some(c) => c(app, request),
            None => Response::not_found(),
        }
    }

    /// Registered paths (read and write routes), for diagnostics.
    #[must_use]
    pub fn paths(&self) -> Vec<&str> {
        let mut all: Vec<&str> = self
            .routes
            .keys()
            .chain(self.read_routes.keys())
            .map(String::as_str)
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_dispatches_by_path() {
        let mut router = Router::new();
        router.route("hello", |_, req| Response::ok(format!("hi {}", req.viewer)));
        let app = App::new();
        let r = router.handle(&app, &Request::new("hello", Viewer::User(1)));
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "hi user#1");
        let miss = router.handle(&app, &Request::new("nope", Viewer::Anonymous));
        assert_eq!(miss.status, 404);
    }

    #[test]
    fn footprints_are_recorded_and_unioned() {
        let mut router = Router::new();
        router.route_read_tables("list", &["b", "a"], |_, _| Response::ok(String::new()));
        router.route_tables("add", &["a"], &["c"], |_, _| Response::ok(String::new()));
        router.route("legacy", |_, _| Response::ok(String::new()));
        let list = router.footprint("list").unwrap();
        assert_eq!(list.tables().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(!list.writes_table("a"));
        let add = router.footprint("add").unwrap();
        assert!(add.writes_table("c") && !add.writes_table("a"));
        assert!(router.footprint("legacy").is_none());
        let declared: Vec<String> = router.declared_tables().into_iter().collect();
        assert_eq!(declared, vec!["a", "b", "c"]);
    }

    #[test]
    fn params_parse() {
        let req = Request::new("x", Viewer::Anonymous).with_param("id", "42");
        assert_eq!(req.int_param("id"), Some(42));
        assert_eq!(req.int_param("missing"), None);
    }

    #[test]
    fn response_constructors() {
        assert_eq!(Response::not_found().status, 404);
        assert_eq!(Response::error("x").status, 500);
        assert_eq!(Response::ok(String::new()).status, 200);
        assert_eq!(Response::bad_request("p").status, 400);
        assert_eq!(Response::forbidden("p").status, 403);
        let busy = Response::unavailable("overloaded");
        assert_eq!(busy.status, 503);
        assert_eq!(busy.header("Retry-After"), Some("1"));
    }

    #[test]
    fn degraded_exemptions_are_per_path() {
        let mut router = Router::new();
        router.route("admin/checkpoint", |_, _| Response::ok(String::new()));
        router.route("note/add", |_, _| Response::ok(String::new()));
        router.exempt_from_degraded("admin/checkpoint");
        assert!(router.is_degraded_exempt("admin/checkpoint"));
        assert!(!router.is_degraded_exempt("note/add"));
    }

    #[test]
    fn response_headers_lookup_is_case_insensitive() {
        let r = Response::ok(String::new())
            .with_header("Set-Cookie", "session=abc")
            .with_header("X-One", "1");
        assert_eq!(r.header("set-cookie"), Some("session=abc"));
        assert_eq!(r.header("X-ONE"), Some("1"));
        assert_eq!(r.header("missing"), None);
    }

    #[test]
    fn status_text_covers_the_served_codes() {
        for (code, text) in [(200, "OK"), (403, "Forbidden"), (404, "Not Found")] {
            assert_eq!(Response::status_text(code), text);
        }
        assert_eq!(Response::status_text(599), "Unknown");
    }

    #[test]
    fn int_param_canonicalizer_normalizes_and_prunes() {
        let mut router = Router::new();
        router.canonicalize_int_params("papers/one", &["id"]);
        let f = router.canonicalizer("papers/one").unwrap();
        let mut params: BTreeMap<String, String> = [
            ("id".to_owned(), "007".to_owned()),
            ("utm_source".to_owned(), "feed".to_owned()),
        ]
        .into();
        f(&mut params);
        assert_eq!(params.get("id").map(String::as_str), Some("7"));
        assert!(!params.contains_key("utm_source"), "unused params pruned");
        // Unparseable ids stay verbatim (the 400 they produce is
        // never cached anyway).
        let mut bad: BTreeMap<String, String> = [("id".to_owned(), "abc".to_owned())].into();
        f(&mut bad);
        assert_eq!(bad.get("id").map(String::as_str), Some("abc"));
        assert!(router.canonicalizer("papers/all").is_none());
    }

    #[test]
    fn fragment_specs_are_per_path() {
        let mut router = Router::new();
        router.route_read_tables("list", &["t"], |_, _| Response::ok(String::new()));
        router.route_fragments(
            "list",
            "t",
            |_, _| ("head\n".to_owned(), String::new()),
            |_, _, jid| format!("row {jid}\n"),
        );
        let spec = router.fragment_spec("list").unwrap();
        assert_eq!(spec.table, "t");
        let app = App::new();
        let req = Request::new("list", Viewer::Anonymous);
        assert_eq!(
            (spec.shell)(&app, &req),
            ("head\n".to_owned(), String::new())
        );
        assert_eq!((spec.fragment)(&app, &req, 7), "row 7\n");
        assert!(router.fragment_spec("other").is_none());
    }

    #[test]
    fn paths_lists_routes() {
        let mut router = Router::new();
        router.route("b", |_, _| Response::ok(String::new()));
        router.route("a", |_, _| Response::ok(String::new()));
        assert_eq!(router.paths(), vec!["a", "b"]);
    }
}
