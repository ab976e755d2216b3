//! A socket-facing HTTP/1.1 server over the faceted executor: a
//! blocking `TcpListener`, a fixed connection worker pool with
//! keep-alive, and a clean-shutdown signal — no external dependencies.
//!
//! The paper's evaluation (§6) serves its case-study applications
//! through a real web stack; this module is that front-end for the
//! Rust reproduction. The flow per connection:
//!
//! 1. the **accept thread** hands sockets to a fixed pool of
//!    connection workers (no thread-per-connection explosion);
//! 2. a worker parses one request at a time off the socket
//!    ([`wire::read_request`]), answers
//!    malformed input with the wire layer's status, and resolves the
//!    viewer through the [`Authenticator`] — an invalid session token
//!    is a `403` before any controller runs;
//! 3. the authenticated request goes through the server's
//!    [`ExecutorService`] on the same worker — there is no hand-off to
//!    another thread. Its **admission gate** lets at most
//!    [`ServerConfig::executor_threads`] requests dispatch at once and
//!    at most [`ServerConfig::queue_depth`] more wait for a permit;
//!    the rest are shed with `503 Retry-After: 1`. An admitted request
//!    is dispatched under the route's footprint locks on the shared
//!    [`App`]. How long it waited for the permit vs. executed goes out
//!    as `X-Queue-Us` / `X-Service-Us` response headers;
//! 4. the response is serialized back, then the service's
//!    post-request hook runs a scheduled checkpoint if the
//!    [`crate::CheckpointPolicy`] says one is due; the connection
//!    stays open for the next request unless the peer (or HTTP/1.0)
//!    asked to close.
//!
//! [`Server::shutdown`] stops accepting, unblocks parked readers by
//! shutting their sockets down, and joins every thread — tests and
//! the bench harness start and stop servers dozens of times per
//! process.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::app::App;
use crate::auth::{AuthOutcome, Authenticator};
use crate::executor::ExecutorService;
use crate::http::{Request, Response, Router};
use crate::wire::{self, WireError, WireRequest};

/// Everything one served application needs: the shared [`App`], its
/// [`Router`], and the [`Authenticator`] holding its sessions.
///
/// The pieces are `Arc`s so the login route (which must mint tokens)
/// can capture the same authenticator the server resolves them with.
#[derive(Clone)]
pub struct Site {
    /// The shared application.
    pub app: Arc<App>,
    /// The routing table.
    pub router: Arc<Router>,
    /// The session store requests authenticate against.
    pub auth: Arc<Authenticator>,
}

impl Site {
    /// Wraps an app and router with a fresh authenticator.
    #[must_use]
    pub fn new(app: App, router: Router) -> Site {
        Site {
            app: Arc::new(app),
            router: Arc::new(router),
            auth: Arc::new(Authenticator::new()),
        }
    }
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Connection-handler pool size (how many sockets are read
    /// concurrently).
    pub conn_threads: usize,
    /// Admission permits: how many requests dispatch concurrently.
    /// Connection workers past this many wait for a permit.
    pub executor_threads: usize,
    /// Socket read timeout. Doubles as the **keep-alive idle
    /// window**: a connection with no next request inside this
    /// window is closed, so silent peers release their connection
    /// worker instead of pinning the fixed pool.
    pub read_timeout: Duration,
    /// Socket **write** timeout: a peer that stops draining its
    /// receive window (a stalled or malicious reader) blocks the
    /// response `write_all` at most this long before the connection
    /// is dropped — without it, one dead reader pins a connection
    /// worker forever.
    pub write_timeout: Duration,
    /// How many requests may wait for an admission permit: a request
    /// arriving while this many already wait is shed with
    /// `503 Retry-After: 1` instead of waiting.
    pub queue_depth: usize,
    /// Automatic checkpoint policy (see
    /// [`crate::CheckpointPolicy`]). The default is disabled: no
    /// scheduled checkpoints unless the operator opts in. Only
    /// takes effect once `App::enable_persistence` has run.
    pub checkpoint: crate::CheckpointPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            conn_threads: 4,
            executor_threads: 4,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            queue_depth: crate::executor::DEFAULT_QUEUE_DEPTH,
            checkpoint: crate::CheckpointPolicy::default(),
        }
    }
}

/// How long the accept loop sleeps after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

struct ServerShared {
    site: Site,
    /// The admission gate, dispatch and post-request hook every
    /// request goes through.
    service: ExecutorService,
    config: ServerConfig,
    conns: Mutex<VecDeque<TcpStream>>,
    conn_ready: Condvar,
    shutdown: AtomicBool,
    /// Clones of every open connection, so shutdown can unblock
    /// parked readers immediately instead of waiting out a timeout.
    open: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// A running HTTP server. Dropping the handle **without** calling
/// [`Server::shutdown`] leaves the threads serving until process
/// exit (what the `serve` example's `--forever` mode wants).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port — the bound
    /// address is [`Server::addr`]) and starts serving `site`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from `bind`.
    pub fn bind(
        site: Site,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = ExecutorService::start_scheduled(
            Arc::clone(&site.app),
            Arc::clone(&site.router),
            config.executor_threads,
            config.queue_depth,
            config.checkpoint,
        );
        let shared = Arc::new(ServerShared {
            site,
            service,
            config,
            conns: Mutex::new(VecDeque::new()),
            conn_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            open: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("http-accept".into())
                .spawn(move || Server::accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        let workers = (0..config.conn_threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("http-conn-{i}"))
                    .spawn(move || Server::conn_loop(&shared))
                    .expect("spawn connection worker")
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The site being served (tests reach through this to compare
    /// against in-process dispatch).
    #[must_use]
    pub fn site(&self) -> &Site {
        &self.shared.site
    }

    /// Requests shed by the admission gate (answered `503` without
    /// dispatch) since start.
    #[must_use]
    pub fn sheds(&self) -> usize {
        self.shared.service.sheds()
    }

    fn accept_loop(listener: &TcpListener, shared: &ServerShared) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break; // the shutdown wake-up connection
                    }
                    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
                    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                    let _ = stream.set_nodelay(true);
                    shared.conns.lock().expect("conn queue").push_back(stream);
                    shared.conn_ready.notify_one();
                }
                Err(_) => {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    // A persistent error (out of file descriptors)
                    // fails every retry at once: back off instead of
                    // spinning a core until it clears.
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }

    fn conn_loop(shared: &ServerShared) {
        loop {
            let stream = {
                let mut queue = shared.conns.lock().expect("conn queue");
                loop {
                    // Shutdown wins over queued work: sockets still in
                    // the queue are closed by `Server::shutdown`'s
                    // drain, so serving them here would only stretch
                    // the shutdown by read_timeout each.
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(s) = queue.pop_front() {
                        break s;
                    }
                    queue = shared.conn_ready.wait(queue).expect("conn queue");
                }
            };
            let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                shared.open.lock().expect("open registry").insert(id, clone);
            }
            // `Server::shutdown` sets the flag before it drains `open`,
            // so a socket registered after that drain sees the flag
            // here: close it rather than park its reader for a whole
            // read_timeout.
            if shared.shutdown.load(Ordering::Acquire) {
                shared.open.lock().expect("open registry").remove(&id);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Server::handle_connection(shared, stream);
            shared.open.lock().expect("open registry").remove(&id);
        }
    }

    /// Serves one connection until close/EOF/shutdown — the
    /// keep-alive loop.
    fn handle_connection(shared: &ServerShared, stream: TcpStream) {
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        loop {
            let wire_request = match wire::read_request(&mut reader) {
                Ok(r) => r,
                Err(WireError::Closed) => return,
                Err(WireError::Idle) => {
                    // The keep-alive idle window (= read_timeout) has
                    // elapsed with no next request: close. Waiting
                    // longer would let a handful of silent peers pin
                    // the entire fixed connection-worker pool.
                    let _ = writer.shutdown(Shutdown::Both);
                    return;
                }
                Err(e @ WireError::Bad { .. }) => {
                    if let Some(response) = e.response() {
                        let _ = writer.write_all(&response.serialize(false, false));
                    }
                    return; // framing is gone; hang up
                }
                Err(WireError::Io(_)) => return,
            };
            let keep_alive = wire_request.keep_alive && !shared.shutdown.load(Ordering::Acquire);
            let head = wire_request.method == "HEAD";
            let response = Server::respond(shared, wire_request);
            if writer
                .write_all(&response.serialize(keep_alive, head))
                .is_err()
                || writer.flush().is_err()
            {
                return;
            }
            shared.service.after_request();
            if !keep_alive {
                let _ = writer.shutdown(Shutdown::Both);
                return;
            }
        }
    }

    /// Authenticates, admits and dispatches one parsed request on the
    /// calling connection worker.
    fn respond(shared: &ServerShared, wire_request: WireRequest) -> Response {
        let viewer = match shared.site.auth.authenticate(&wire_request) {
            AuthOutcome::Anonymous => crate::Viewer::Anonymous,
            AuthOutcome::Viewer(v) => v,
            AuthOutcome::BadToken => {
                return Response::forbidden("invalid or expired session token");
            }
        };
        let router = &shared.site.router;
        // Mutating routes only answer POST: a crawler GETting
        // `papers/submit` must not write the database.
        if wire_request.method != "POST"
            && router.read_controller(&wire_request.path).is_none()
            && router.has_write_route(&wire_request.path)
        {
            // RFC 9110 §15.5.6: a 405 must name the methods the
            // target does support.
            return Response {
                status: 405,
                body: format!("{} requires POST", wire_request.path),
                headers: Vec::new(),
            }
            .with_header("Allow", "POST");
        }
        let request = Request {
            path: wire_request.path,
            viewer,
            params: wire_request.params,
        };
        let served = shared.service.dispatch(&request);
        // Timing and cache-status headers are appended *after*
        // dispatch, so a render-cache hit still reports its own fresh
        // queue/service numbers instead of replaying the ones stored
        // with the page.
        served
            .response
            .with_header("X-Queue-Us", &served.queued.as_micros().to_string())
            .with_header("X-Service-Us", &served.service.as_micros().to_string())
            .with_header("X-Render-Cache", served.render_cache.as_str())
    }

    /// Stops the server: no new connections, parked readers unblocked,
    /// in-flight requests finished, every thread joined.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept call …
        let _ = TcpStream::connect(self.addr);
        // … close accepted-but-unserved sockets still in the queue
        // (workers refuse to pick them up once the flag is set) …
        for stream in self.shared.conns.lock().expect("conn queue").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // … unblock the in-flight connection readers …
        for (_, stream) in self.shared.open.lock().expect("open registry").drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // … and the workers parked on the connection queue.
        self.shared.conn_ready.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Viewer;
    use crate::testkit::{add_notes, note_app, note_router};
    use crate::wire::read_response;
    use std::io::BufRead;
    use std::sync::mpsc;

    fn note_site() -> Site {
        let app = note_app();
        add_notes(&app, 0..3);
        Site::new(app, note_router())
    }

    fn test_server(site: Site) -> Server {
        Server::bind(
            site,
            "127.0.0.1:0",
            ServerConfig {
                conn_threads: 2,
                executor_threads: 2,
                read_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral port")
    }

    fn send(addr: SocketAddr, raw: &str) -> crate::wire::WireResponse {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        read_response(&mut BufReader::new(stream)).unwrap()
    }

    #[test]
    fn serves_a_page_over_a_real_socket() {
        let server = test_server(note_site());
        let response = send(
            server.addr(),
            "GET /notes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(response.status, 200);
        assert_eq!(response.text(), "[private]\n[private]\n[private]\n");
        assert!(response.header("x-queue-us").is_some());
        assert!(response.header("x-service-us").is_some());
        server.shutdown();
    }

    #[test]
    fn session_token_binds_the_viewer() {
        let server = test_server(note_site());
        let token = server.site().auth.login(Viewer::User(1));
        let response = send(
            server.addr(),
            &format!(
                "GET /notes HTTP/1.1\r\nHost: t\r\nCookie: session={token}\r\n\
                 Connection: close\r\n\r\n"
            ),
        );
        assert!(response.text().contains("n1"), "{}", response.text());
        assert!(response.text().contains("[private]"));
        let forged = send(
            server.addr(),
            "GET /notes HTTP/1.1\r\nHost: t\r\nCookie: session=forged\r\n\
             Connection: close\r\n\r\n",
        );
        assert_eq!(forged.status, 403, "bad tokens are rejected, not demoted");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = test_server(note_site());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..5 {
            stream
                .write_all(b"GET /notes HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let response = read_response(&mut reader).unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
        // An explicit close is honored: response says close, then EOF.
        stream
            .write_all(b"GET /notes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let last = read_response(&mut reader).unwrap();
        assert_eq!(last.header("connection"), Some("close"));
        let mut rest = Vec::new();
        let trailing = std::io::Read::read_to_end(&mut reader, &mut rest);
        assert!(matches!(trailing, Ok(0)), "server closed the socket");
        server.shutdown();
    }

    #[test]
    fn writes_require_post_and_land_in_the_shared_app() {
        let server = test_server(note_site());
        let token = server.site().auth.login(Viewer::User(2));
        let refused = send(
            server.addr(),
            &format!(
                "GET /note/add HTTP/1.1\r\nHost: t\r\nCookie: session={token}\r\n\
                 Connection: close\r\n\r\n"
            ),
        );
        assert_eq!(refused.status, 405);
        assert_eq!(
            refused.header("allow"),
            Some("POST"),
            "RFC 9110: 405 must name the allowed methods"
        );
        let body = "text=from+the+wire";
        let accepted = send(
            server.addr(),
            &format!(
                "POST /note/add HTTP/1.1\r\nHost: t\r\nCookie: session={token}\r\n\
                 Content-Type: application/x-www-form-urlencoded\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(accepted.status, 200);
        let page = send(
            server.addr(),
            &format!(
                "GET /notes HTTP/1.1\r\nHost: t\r\nCookie: session={token}\r\n\
                 Connection: close\r\n\r\n"
            ),
        );
        assert!(page.text().contains("from the wire"), "{}", page.text());
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_wire_statuses() {
        let server = test_server(note_site());
        let no_host = send(server.addr(), "GET /notes HTTP/1.1\r\n\r\n");
        assert_eq!(no_host.status, 400);
        let bad_method = send(server.addr(), "BREW / HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(bad_method.status, 405);
        assert_eq!(
            bad_method.header("allow"),
            Some("GET, HEAD, POST"),
            "the wire-level 405 also carries Allow"
        );
        let unknown = send(
            server.addr(),
            "GET /zzz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(unknown.status, 404);
        server.shutdown();
    }

    #[test]
    fn head_is_served_without_a_body() {
        // HEAD frames the body (real Content-Length) without sending
        // it, so the generic response parser does not apply — read
        // the raw bytes to EOF instead.
        let server = test_server(note_site());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"HEAD /notes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut raw).unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "no body bytes after headers");
        assert!(
            text.contains("Content-Length: 30\r\n"),
            "the body is framed as if it were sent: {text}"
        );
        server.shutdown();
    }

    #[test]
    fn idle_keepalive_connections_are_closed_after_the_window() {
        // A silent keep-alive peer must not pin a connection worker:
        // the server hangs up after read_timeout (200ms here).
        let server = test_server(note_site());
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let got = reader.read_line(&mut line);
        assert!(
            matches!(got, Ok(0)),
            "expected EOF from the idle-close, got {got:?} {line:?}"
        );
        // The worker is free again: a fresh connection is served.
        let response = send(
            server.addr(),
            "GET /notes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(response.status, 200);
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_queued_unserved_connections_fast() {
        // More idle connections than workers: the surplus sits in the
        // conns queue. Shutdown must close them directly, not let a
        // worker serially wait out read_timeout for each.
        let server = Server::bind(
            note_site(),
            "127.0.0.1:0",
            ServerConfig {
                conn_threads: 1,
                executor_threads: 1,
                read_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let parked: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        // Give the accept thread time to enqueue them all.
        std::thread::sleep(Duration::from_millis(100));
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(450),
            "shutdown must close queued sockets directly, took {:?}",
            started.elapsed()
        );
        drop(parked);
    }

    #[test]
    fn shutdown_is_clean_with_idle_keepalive_connections() {
        let server = test_server(note_site());
        // Park two idle keep-alive connections.
        let idle1 = TcpStream::connect(server.addr()).unwrap();
        let mut idle2 = TcpStream::connect(server.addr()).unwrap();
        idle2
            .write_all(b"GET /notes HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(idle2.try_clone().unwrap());
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must not wait out idle connections"
        );
        // The parked connections were actively closed.
        let mut buffered = BufReader::new(idle1);
        let mut line = String::new();
        let got = buffered.read_line(&mut line);
        assert!(matches!(got, Ok(0) | Err(_)), "server closed idle conn");
    }

    /// The inline path: a request runs on the connection worker that
    /// read it, not on a thread it was handed to.
    #[test]
    fn requests_run_on_connection_workers() {
        let mut router = note_router();
        router.route_read("whoami", |_, _| {
            Response::ok(std::thread::current().name().unwrap_or("?").to_owned())
        });
        let server = test_server(Site::new(note_app(), router));
        let response = send(
            server.addr(),
            "GET /whoami HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(response.status, 200);
        assert!(
            response.text().starts_with("http-conn-"),
            "served on {:?}",
            response.text()
        );
        server.shutdown();
    }

    #[test]
    fn admission_sheds_a_flood_with_retry_after_and_recovers() {
        // One permit and one waiter, eight connection workers. A
        // parked request holds the permit; of a flood of fifteen more,
        // exactly one may wait and the other fourteen must be shed at
        // once — never queued past the bound, never another status.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let entered_tx = Mutex::new(entered_tx);
        let release_rx = Mutex::new(release_rx);
        let mut router = note_router();
        router.route_read("park", move |_, _| {
            entered_tx.lock().unwrap().send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            Response::ok("parked".into())
        });
        let server = Server::bind(
            Site::new(note_app(), router),
            "127.0.0.1:0",
            ServerConfig {
                conn_threads: 8,
                executor_threads: 1,
                queue_depth: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let park = "GET /park HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        let holder = std::thread::spawn(move || send(addr, park));
        entered_rx.recv().unwrap();
        let flood = 15;
        let (done_tx, done_rx) = mpsc::channel();
        let clients: Vec<_> = (0..flood)
            .map(|_| {
                let done_tx = done_tx.clone();
                std::thread::spawn(move || done_tx.send(send(addr, park)).unwrap())
            })
            .collect();
        for _ in 1..flood {
            let shed = done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a flood request queued past the bound instead of shedding");
            assert_eq!(shed.status, 503, "{}", shed.text());
            assert_eq!(shed.header("retry-after"), Some("1"));
        }
        assert_eq!(
            server.sheds(),
            flood - 1,
            "the shed counter matches the wire"
        );
        // Release the permit holder, then the waiter it admits.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert_eq!(holder.join().unwrap().text(), "parked");
        let waiter = done_rx.recv().unwrap();
        assert_eq!((waiter.status, waiter.text()), (200, "parked".to_owned()));
        for client in clients {
            client.join().unwrap();
        }
        let after = send(
            addr,
            "GET /notes HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(after.status, 200, "the gate admits again once drained");
        assert_eq!(server.sheds(), flood - 1);
        server.shutdown();
    }

    #[test]
    fn start_connect_shutdown_cycles_stay_under_read_timeout() {
        // A socket a worker registers after shutdown has drained the
        // open registry must still be closed at once; otherwise its
        // reader parks for the full read_timeout and shutdown with it.
        // The pause before shutdown sweeps across the accept → pick
        // up → register sequence, so some cycle lands in that window
        // whenever it is wide enough to matter.
        for cycle in 0..20 {
            let server = Server::bind(
                note_site(),
                "127.0.0.1:0",
                ServerConfig {
                    conn_threads: 2,
                    executor_threads: 1,
                    read_timeout: Duration::from_secs(5),
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let conn = TcpStream::connect(server.addr()).unwrap();
            std::thread::sleep(Duration::from_micros(250 * cycle));
            let started = std::time::Instant::now();
            server.shutdown();
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "shutdown took {:?}",
                started.elapsed()
            );
            drop(conn);
        }
    }

    #[test]
    fn scheduled_checkpoints_run_after_served_writes() {
        let dir = std::env::temp_dir().join(format!("jacq_server_sched_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        let server = Server::bind(
            Site::new(app, note_router()),
            "127.0.0.1:0",
            ServerConfig {
                conn_threads: 2,
                executor_threads: 2,
                read_timeout: Duration::from_millis(500),
                checkpoint: crate::CheckpointPolicy {
                    every_records: Some(4),
                    every: None,
                },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let token = server.site().auth.login(Viewer::User(2));
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let writes = 16;
        let mut acked = Vec::new();
        for i in 0..writes {
            let body = format!("text=w{i}");
            stream
                .write_all(
                    format!(
                        "POST /note/add HTTP/1.1\r\nHost: t\r\nCookie: session={token}\r\n\
                         Content-Type: application/x-www-form-urlencoded\r\n\
                         Content-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                )
                .unwrap();
            let response = read_response(&mut reader).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
            acked.push(response.text().parse::<i64>().unwrap());
        }
        drop((stream, reader));
        let app = Arc::clone(&server.site().app);
        assert!(
            app.scheduled_checkpoint_count() >= 1,
            "record pressure above the policy threshold must trigger a checkpoint"
        );
        server.shutdown();
        let (records, _) = app.wal_pressure();
        assert!(
            records < writes,
            "the WAL must have been compacted at a checkpoint (records={records})"
        );
        let mut restored = note_app();
        restored.restore_from(&dir).unwrap();
        let jids: std::collections::BTreeSet<i64> = restored
            .all("note")
            .unwrap()
            .iter()
            .map(|(_, row)| row.jid)
            .collect();
        for jid in acked {
            assert!(
                jids.contains(&jid),
                "acknowledged note {jid} lost in restore"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod site_tests {
    use super::*;

    #[test]
    fn site_wraps_app_and_router() {
        let site = Site::new(App::new(), Router::new());
        assert_eq!(site.auth.live_sessions(), 0);
        assert!(site.router.paths().is_empty());
    }
}
