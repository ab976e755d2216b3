//! Checkpoint/restore end-to-end: a served application is
//! checkpointed **under live concurrent writers** via the
//! `admin/checkpoint` route, killed, and booted from the checkpoint
//! directory in fresh process state — and every page of the
//! all-pages × all-viewers differential grid must come back
//! byte-identical over a real TCP round-trip, with every object
//! (live `jid`) accounted for on both sides of the kill.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use apps::{serve, workload};
use jacqueline::checkpoint::{CHECKPOINT_FILE, WAL_FILE};
use jacqueline::wire::{read_response, WireResponse};
use jacqueline::{Server, ServerConfig, Site, Viewer};

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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jacq_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

    fn login(&mut self, user: i64) {
        let response = self.post("login", &format!("user={user}"));
        assert_eq!(response.status, 200, "login failed: {}", response.text());
        self.token = Some(response.text());
    }
}

/// The conference grid pages for `n_users` users and `n_papers`
/// papers.
fn grid_pages(n_users: i64, n_papers: i64) -> Vec<String> {
    let mut pages = vec!["papers/all".to_owned(), "users/all".to_owned()];
    pages.extend((1..=n_papers).map(|p| format!("papers/one?id={p}")));
    pages.extend((1..=n_users).map(|u| format!("users/one?id={u}")));
    pages
}

/// Captures `(status, body)` of every page for every viewer
/// (anonymous + users `1..=n_users`), each viewer logging in over the
/// wire.
fn capture_grid(addr: SocketAddr, n_users: i64, pages: &[String]) -> Vec<(u16, String)> {
    let viewers: Vec<Viewer> = std::iter::once(Viewer::Anonymous)
        .chain((1..=n_users).map(Viewer::User))
        .collect();
    let mut out = Vec::with_capacity(viewers.len() * pages.len());
    for viewer in &viewers {
        let mut client = Client::connect(addr);
        if let Viewer::User(jid) = viewer {
            client.login(*jid);
        }
        for page in pages {
            let response = client.get(page);
            out.push((response.status, response.text()));
        }
    }
    out
}

/// Parses a counter out of the `admin/checkpoint` response body
/// (`checkpoint: … objects=N …`).
fn stat(body: &str, key: &str) -> u64 {
    body.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.split("->").next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {body:?}"))
}

/// The headline test: serve → write under load → checkpoint under
/// load → keep writing → kill → restore → byte-identical grid.
#[test]
fn served_app_survives_kill_and_restore_byte_identically() {
    let dir = temp_dir("conference");
    let (users, papers) = (8i64, 6i64);
    let site = serve::conference_site_persistent(
        workload::conference(users as usize, papers as usize).app,
        &dir,
    )
    .expect("persistent site");
    let server = start(site);
    let addr = server.addr();

    // Concurrent keep-alive writers race the checkpoint: half their
    // writes land before it (captured by the snapshot), half after
    // (captured by the log). Every one must survive the restore.
    let writers = 3i64;
    let writes_per_writer = 6;
    std::thread::scope(|scope| {
        for w in 0..writers {
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                client.login(2 + w);
                for i in 0..writes_per_writer {
                    let response =
                        client.post("papers/submit", &format!("title=durable+paper+{w}-{i}"));
                    assert_eq!(response.status, 200, "{}", response.text());
                }
            });
        }
        scope.spawn(move || {
            let mut client = Client::connect(addr);
            client.login(1);
            let response = client.post("admin/checkpoint", "");
            assert_eq!(response.status, 200, "{}", response.text());
            assert!(response.text().starts_with("checkpoint:"));
        });
    });

    // A final checkpoint so the snapshot covers the complete state —
    // and so both processes' object counts are comparable.
    let mut admin = Client::connect(addr);
    admin.login(1);
    let final_checkpoint = admin.post("admin/checkpoint", "");
    assert_eq!(final_checkpoint.status, 200);
    let objects_before = stat(&final_checkpoint.text(), "objects");
    assert_eq!(
        objects_before as i64,
        // users + papers + seeded reviews + conf_state + new papers
        users + papers + papers + 1 + writers * writes_per_writer,
        "every concurrent write is in the checkpoint"
    );

    let pages = grid_pages(users, papers);
    let before = capture_grid(addr, users, &pages);
    server.shutdown(); // the "kill": all process state below is fresh

    let restored_site = serve::conference_site_restored(&dir).expect("boot from checkpoint");
    let restored = start(restored_site);
    let after = capture_grid(restored.addr(), users, &pages);
    assert_eq!(before.len(), after.len());
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(b, a, "grid cell {i} (page {:?})", pages[i % pages.len()]);
    }

    // Every object survives the kill: re-checkpointing the restored
    // app counts the same live jids.
    let mut admin = Client::connect(restored.addr());
    admin.login(1);
    let again = admin.post("admin/checkpoint", "");
    assert_eq!(again.status, 200, "{}", again.text());
    assert_eq!(stat(&again.text(), "objects"), objects_before);
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes that happen *after* the last checkpoint live only in the
/// write log — a create's rows and its labels and policy bindings in
/// one record; a restore must replay them — including across a torn
/// (crash-truncated) final log line.
#[test]
fn post_checkpoint_writes_survive_via_log_replay() {
    let dir = temp_dir("logs");
    let site = serve::conference_site_persistent(workload::conference(4, 2).app, &dir)
        .expect("persistent site");
    let server = start(site);
    let mut client = Client::connect(server.addr());
    client.login(1);
    assert_eq!(client.post("admin/checkpoint", "").status, 200);
    // This paper exists only in the log.
    let response = client.post("papers/submit", "title=log-only+paper");
    assert_eq!(response.status, 200, "{}", response.text());
    let page = client.get("papers/all");
    server.shutdown();

    // Simulate a crash mid-append: garbage with no trailing newline.
    use std::io::Write as _;
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    wal.write_all(b"ins paper 99 i9").unwrap();
    drop(wal);

    let restored = start(serve::conference_site_restored(&dir).expect("restore"));
    let mut client = Client::connect(restored.addr());
    client.login(1);
    let after = client.get("papers/all");
    assert_eq!(page.text(), after.text(), "log-only write survived");
    assert!(after.text().contains("log-only paper"), "{}", after.text());
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The admin route's wire contract: anonymous sessions cannot
/// checkpoint (the initial boot checkpoint stays untouched by the
/// 403'd request); GET is refused (write route); an authenticated
/// POST rewrites the checkpoint with the new state.
#[test]
fn admin_checkpoint_route_is_gated() {
    let dir = temp_dir("gated");
    let site = serve::conference_site_persistent(workload::conference(3, 2).app, &dir)
        .expect("persistent site");
    let server = start(site);
    let addr = server.addr();
    // persistent_site writes the initial (boot) checkpoint.
    let boot_checkpoint = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("initial checkpoint");

    let mut user = Client::connect(addr);
    user.login(1);
    let submitted = user.post("papers/submit", "title=post-boot");
    assert_eq!(submitted.status, 200, "{}", submitted.text());

    let mut anon = Client::connect(addr);
    assert_eq!(anon.post("admin/checkpoint", "").status, 403);
    assert_eq!(
        std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
        boot_checkpoint,
        "an anonymous request must not rewrite the checkpoint"
    );

    assert_eq!(user.get("admin/checkpoint").status, 405, "GET refused");
    assert_eq!(user.post("admin/checkpoint", "").status, 200);
    assert_ne!(
        std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
        boot_checkpoint,
        "the authenticated checkpoint captured the new paper"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of a persistence directory with its bytes: what a
/// refused boot must leave exactly as it found it.
fn dir_contents(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push((path.clone(), std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// Boots from `dir` after `edit` rewrites its v4 manifest into an
/// older version's shape: the boot must be refused with an error
/// naming `version`, and must write nothing.
fn assert_older_manifest_refused(name: &str, version: &str, edit: impl Fn(&str, &str) -> String) {
    let dir = temp_dir(name);
    let site = serve::conference_site_persistent(workload::conference(3, 2).app, &dir)
        .expect("persistent site");
    drop(site);
    let path = dir.join(CHECKPOINT_FILE);
    let v4 = std::fs::read_to_string(&path).expect("boot checkpoint");
    let hash = v4
        .lines()
        .find_map(|l| l.strip_prefix("h "))
        .and_then(|spec| spec.split(' ').next())
        .expect("a chunk line")
        .to_owned();
    let older = edit(&v4, &hash).replacen(
        "jacqueline-checkpoint v4",
        &format!("jacqueline-checkpoint {version}"),
        1,
    );
    std::fs::write(&path, &older).unwrap();
    let before = dir_contents(&dir);

    let err = match serve::conference_site_restored(&dir) {
        Ok(_) => panic!("a {version} manifest must be refused"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains(version), "the error names the version: {err}");
    assert_eq!(dir_contents(&dir), before, "the refused boot wrote nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-2 manifest, which also listed facet-DAG object groups
/// (`objects` / `model … ` / `g …` lines), is refused with an error
/// naming its version, and the refused boot writes nothing.
#[test]
fn v2_manifest_with_object_groups_is_refused() {
    assert_older_manifest_refused("v2", "v2", |v4, hash| {
        v4.replacen(
            "manifest-end\n",
            &format!("objects 1\nmodel paper 2 1\ng 0 {hash} 2 5\nend\nmanifest-end\n"),
            1,
        )
    });
}

/// A version-3 manifest, which named an app-meta chunk of label names
/// and policy bindings, is refused with an error naming its version,
/// and the refused boot writes nothing.
#[test]
fn v3_manifest_with_an_app_meta_chunk_is_refused() {
    assert_older_manifest_refused("v3", "v3", |v4, hash| {
        let body = v4.split_once("db-tables").map(|(_, rest)| rest).unwrap();
        format!("jacqueline-checkpoint v4\napp-meta {hash}\ndb-tables{body}")
    });
}
