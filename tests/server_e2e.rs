//! Live-socket end-to-end tests: every page of every case-study app,
//! served over a **real TCP round-trip** (parse → authenticate →
//! admission + dispatch → serialize), must render **byte-identical**
//! bodies to in-process `Router::handle` dispatch — across the same
//! all-pages × all-viewers grid the differential suite pins against
//! the hand-coded baselines. Plus: concurrent keep-alive clients
//! reading while writers mutate, and the login/403 paths.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use apps::{serve, workload};
use jacqueline::wire::{read_response, WireResponse};
use jacqueline::{Request, Response, Server, ServerConfig, Site, Viewer};

fn start(site: Site) -> Server {
    Server::bind(
        site,
        "127.0.0.1:0",
        ServerConfig {
            conn_threads: 4,
            executor_threads: 4,
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port")
}

/// A keep-alive HTTP client over one connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    token: Option<String>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client {
            stream,
            reader,
            token: None,
        }
    }

    fn session_header(&self) -> String {
        self.token
            .as_ref()
            .map_or_else(String::new, |t| format!("Cookie: session={t}\r\n"))
    }

    fn get(&mut self, path_and_query: &str) -> WireResponse {
        let raw = format!(
            "GET /{path_and_query} HTTP/1.1\r\nHost: e2e\r\n{}\r\n",
            self.session_header()
        );
        self.stream.write_all(raw.as_bytes()).unwrap();
        read_response(&mut self.reader).expect("response")
    }

    fn post(&mut self, path: &str, form: &str) -> WireResponse {
        let raw = format!(
            "POST /{path} HTTP/1.1\r\nHost: e2e\r\n{}\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\n\r\n{form}",
            self.session_header(),
            form.len()
        );
        self.stream.write_all(raw.as_bytes()).unwrap();
        read_response(&mut self.reader).expect("response")
    }

    /// Logs in as `user`, keeping the minted token for every later
    /// request on this client.
    fn login(&mut self, user: i64) {
        let response = self.post("login", &format!("user={user}"));
        assert_eq!(response.status, 200, "login failed: {}", response.text());
        self.token = Some(response.text());
    }
}

/// One (path, params…) page request both ways: over the socket with
/// this client's session, and in-process with the matching viewer.
fn assert_page_identical(client: &mut Client, server: &Server, viewer: &Viewer, page: &str) {
    let served = client.get(page);
    let request = match page.split_once('?') {
        None => Request::new(page, viewer.clone()),
        Some((path, query)) => {
            let mut r = Request::new(path, viewer.clone());
            for pair in query.split('&') {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                r = r.with_param(k, v);
            }
            r
        }
    };
    let site = server.site();
    let in_process: Response = site.router.handle(&site.app, &request);
    assert_eq!(
        served.status, in_process.status,
        "status for {viewer} on {page}"
    );
    assert_eq!(
        served.text(),
        in_process.body,
        "body bytes for {viewer} on {page}"
    );
}

/// The grid driver: for every viewer (anonymous + users 1..=n), log
/// in over the wire and compare every page.
fn assert_grid_identical(server: &Server, n_users: i64, pages: &[String]) {
    let addr = server.addr();
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=n_users).map(Viewer::User))
        .collect();
    for viewer in &viewers {
        let mut client = Client::connect(addr);
        if let Viewer::User(jid) = viewer {
            client.login(*jid);
        }
        for page in pages {
            assert_page_identical(&mut client, server, viewer, page);
        }
    }
}

#[test]
fn conference_grid_is_byte_identical_over_the_socket() {
    let server = start(serve::conference_site(workload::conference(10, 8).app));
    let mut pages = vec!["papers/all".to_owned(), "users/all".to_owned()];
    pages.extend((1..=8).map(|p| format!("papers/one?id={p}")));
    pages.extend((1..=10).map(|u| format!("users/one?id={u}")));
    assert_grid_identical(&server, 10, &pages);
    server.shutdown();
}

#[test]
fn courses_grid_is_byte_identical_over_the_socket() {
    let w = workload::courses(6);
    // Seed a few submissions so the stateful grade policy has both
    // states on the grid.
    for a in 1..=3 {
        apps::courses::submit_answer(&w.app, &Viewer::User(w.student), a, "mine").unwrap();
    }
    apps::courses::grade_submission(&w.app, 1, 88).unwrap();
    let server = start(serve::courses_site(w.app));
    let mut pages = vec!["courses/all".to_owned(), "courses/all_unpruned".to_owned()];
    pages.extend((1..=3).map(|s| format!("submissions/one?id={s}")));
    assert_grid_identical(&server, 1 + 6, &pages);
    server.shutdown();
}

#[test]
fn health_grid_is_byte_identical_over_the_socket() {
    let server = start(serve::health_site(workload::health(12).app));
    let n_records = {
        let site = server.site();
        site.app.all("health_record").unwrap().len() as i64
    };
    let mut pages = vec!["records/all".to_owned()];
    pages.extend((1..=n_records).map(|r| format!("records/one?id={r}")));
    assert_grid_identical(&server, 12, &pages);
    server.shutdown();
}

/// Concurrent keep-alive clients keep reading while writers submit
/// papers through the same socket: every response is well-formed, and
/// the post-write state matches in-process dispatch byte for byte.
#[test]
fn concurrent_keepalive_clients_survive_writes() {
    let server = start(serve::conference_site(workload::conference(8, 6).app));
    let addr = server.addr();
    let readers = 3;
    let writes_per_writer = 8;
    std::thread::scope(|scope| {
        for r in 0..readers {
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                client.login(1 + r);
                for _ in 0..12 {
                    let page = client.get("papers/all");
                    assert_eq!(page.status, 200);
                    assert!(page.text().starts_with("== Papers =="), "{}", page.text());
                    let users = client.get("users/all");
                    assert_eq!(users.status, 200);
                }
            });
        }
        for w in 0..2i64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                client.login(4 + w);
                for i in 0..writes_per_writer {
                    let response =
                        client.post("papers/submit", &format!("title=wire+paper+{w}-{i}"));
                    assert_eq!(response.status, 200, "{}", response.text());
                }
            });
        }
    });
    // After the dust settles: the served page equals in-process
    // dispatch, and every write landed exactly once.
    let mut client = Client::connect(addr);
    client.login(4);
    assert_page_identical(&mut client, &server, &Viewer::User(4), "papers/all");
    let site = server.site();
    let papers = site.app.all("paper").unwrap();
    let wire_papers = papers
        .iter()
        .filter(|(_, row)| {
            row.fields[0]
                .as_str()
                .is_some_and(|t| t.starts_with("wire paper"))
        })
        .map(|(_, row)| row.jid)
        .collect::<std::collections::BTreeSet<_>>();
    assert_eq!(wire_papers.len(), 2 * writes_per_writer as usize);
    server.shutdown();
}

/// The auth boundary: anonymous reads pass, anonymous writes are 403,
/// forged tokens are 403 before any controller runs, and a logged-in
/// session unlocks exactly its own viewer's facets.
#[test]
fn auth_gates_the_wire_path() {
    let server = start(serve::conference_site(workload::conference(6, 4).app));
    let addr = server.addr();
    let mut anon = Client::connect(addr);
    let page = anon.get("papers/all");
    assert_eq!(page.status, 200);
    assert!(
        page.text().contains("(title hidden)"),
        "anonymous sees public facets: {}",
        page.text()
    );
    let denied = anon.post("papers/submit", "title=sneaky");
    assert_eq!(denied.status, 403, "anonymous writes are policy-denied");

    let mut forged = Client::connect(addr);
    forged.token = Some("s0-forged".to_owned());
    let rejected = forged.get("papers/all");
    assert_eq!(
        rejected.status, 403,
        "forged tokens never reach a controller"
    );

    let mut user = Client::connect(addr);
    user.login(1); // user 1 is the chair in the workload
    let chaired = user.get("papers/all");
    assert!(
        !chaired.text().contains("(title hidden)"),
        "the chair sees every title: {}",
        chaired.text()
    );
    let queue_us: u64 = chaired.header("x-queue-us").unwrap().parse().unwrap();
    let service_us: u64 = chaired.header("x-service-us").unwrap().parse().unwrap();
    assert!(queue_us < 60_000_000 && service_us < 60_000_000);
    server.shutdown();
}

/// The render-cache diagnostic header over a live socket: a cold page
/// is a `miss`, the repeat is a `hit` with byte-identical body, a
/// write route reports `bypass`, and a read after the write is a
/// `repair` — `papers/all` registers a fragment renderer, so the
/// stale entry is spliced back together from the write journal
/// instead of discarded, byte-identical to a full render. Cached
/// responses still carry *fresh* `X-Queue-Us`/`X-Service-Us` timings —
/// the server appends them after the executor round-trip, and only
/// header-less responses are ever stored, so there are no stale
/// timing headers to replay. `admin/health` publishes the counters
/// behind all of this.
#[test]
fn render_cache_header_reports_hit_miss_repair_bypass_over_the_socket() {
    let server = start(serve::conference_site(workload::conference(6, 4).app));
    let mut client = Client::connect(server.addr());
    client.login(2);
    let first = client.get("papers/all");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-render-cache"), Some("miss"));
    let second = client.get("papers/all");
    assert_eq!(second.header("x-render-cache"), Some("hit"));
    assert_eq!(
        second.text(),
        first.text(),
        "a hit replays the rendered bytes exactly"
    );
    // Fresh per-request timings on the hit, exactly one value each.
    for header in ["x-queue-us", "x-service-us"] {
        let micros: u64 = second.header(header).unwrap().parse().unwrap();
        assert!(micros < 60_000_000, "{header} is a live measurement");
    }
    // Another viewer never borrows this session's bytes: their first
    // request is its own miss.
    let mut other = Client::connect(server.addr());
    other.login(3);
    let others_page = other.get("papers/all");
    assert_eq!(others_page.header("x-render-cache"), Some("miss"));

    let write = client.post("papers/submit", "title=fresh+paper");
    assert_eq!(write.status, 200, "{}", write.text());
    assert_eq!(
        write.header("x-render-cache"),
        Some("bypass"),
        "write routes never touch the cache"
    );
    let after = client.get("papers/all");
    assert_eq!(
        after.header("x-render-cache"),
        Some("repair"),
        "the write moved the paper table's generation; the fragment \
         renderer splices the new row in from the journal"
    );
    assert!(after.text().contains("fresh paper"), "{}", after.text());
    // The repaired bytes equal a from-scratch faceted render.
    {
        let site = server.site();
        let full = site
            .router
            .handle(&site.app, &Request::new("papers/all", Viewer::User(2)));
        assert_eq!(after.text(), full.body, "repair is byte-identical");
    }
    let warm = client.get("papers/all");
    assert_eq!(
        warm.header("x-render-cache"),
        Some("hit"),
        "a repaired entry is restamped, not re-rendered"
    );
    assert_eq!(warm.text(), after.text());
    // The counters behind the header are wire-visible on admin/health.
    let health = client.get("admin/health");
    assert_eq!(health.status, 200);
    assert!(
        health.text().contains("render_cache hits=") && health.text().contains(" repairs=1 "),
        "admin/health publishes the cache counters: {}",
        health.text()
    );
    server.shutdown();
}

#[test]
fn get_on_a_write_route_is_405_with_allow_post() {
    let server = start(serve::conference_site(workload::conference(4, 2).app));
    let mut user = Client::connect(server.addr());
    user.login(2);
    let refused = user.get("papers/submit?title=crawled");
    assert_eq!(refused.status, 405, "write routes only answer POST");
    assert_eq!(
        refused.header("allow"),
        Some("POST"),
        "RFC 9110: 405 names the allowed methods on the wire"
    );
    server.shutdown();
}
