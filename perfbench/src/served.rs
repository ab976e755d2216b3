//! The served workloads, `read_hot` and `write_mix`: the conference
//! site behind `jacqueline::Server` on a loopback socket, loaded by one
//! process over keep-alive connections.
//!
//! A run sets the site up (`SETUPS` times, reporting the median),
//! alternates open-loop slices of the schedule with closed-loop
//! saturation slices, then checks the served bytes against in-process
//! dispatch, shuts the server down and restores a blank app from the
//! persistence directory. The traced run (`--trace 1`) splits its time
//! between the real server and the same schedule through
//! [`crate::trace`]'s timed pipeline.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::conf;
use apps::conf_vanilla::ConfVanilla;
use jacqueline::wire::WireResponse;
use jacqueline::{
    App, CheckpointPolicy, ExecutorService, RenderCacheStatus, Request, RestoreStats, Server,
    ServerConfig, Site, Viewer,
};

use crate::client::{self, Op, Sample, Template};
use crate::data::{self, Rng, User};
use crate::oracle::email_leak;
use crate::stats::{geomean, median, ms, percentile, ratio, us, Latencies, Report};
use crate::trace;

/// Open-loop client connections (and client threads): one per core of
/// the 2-core machine the benchmark is sized for.
pub const CONNS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// An untraced run alternates `ROUNDS` open-loop slices with
/// closed-loop saturation slices (behind `peak_rps`), so that both
/// sample the shared host across the whole run, not one stretch of it.
const ROUNDS: usize = 10;
/// The share of `--seconds` the saturation slices take at
/// `Spec::peak_rate`.
const PEAK_SHARE: f64 = 0.5;
/// `read_hot`'s write probe after the reads: an open loop of
/// `PROBE_WRITES` writes at `PROBE_RATE` per second.
const PROBE_WRITES: usize = 2000;
const PROBE_RATE: f64 = 1000.0;
/// Sampled (page, viewer) pairs per page in the end-of-run grid.
const GRID_PER_PAGE: usize = 48;
/// Restores behind `restore_s`.
const RESTORES: usize = 9;

/// One served workload.
pub struct Spec {
    pub name: &'static str,
    pub users: usize,
    pub papers: usize,
    /// Logged-in viewers, drawn from the users by seed.
    pub viewers: usize,
    /// `*/one` ids come from the first this-many papers and users.
    pub one_ids: usize,
    /// Read pages, drawn uniformly.
    pub pages: &'static [&'static str],
    pub write_frac: f64,
    /// Open-loop arrivals per second.
    pub rate: f64,
    /// Sizes the saturation slices: they send `peak_rate × --seconds ×
    /// PEAK_SHARE` requests in all, a fixed count so that what a run
    /// writes (and so its memory) does not depend on how fast the host
    /// happened to be. Set so the slices take a few seconds.
    pub peak_rate: f64,
    /// `CheckpointPolicy::every_records`.
    pub checkpoint_every: Option<u64>,
    /// Warm the render cache with every distinct (page, viewer) key.
    pub warm_every_key: bool,
}

pub const READ_HOT: Spec = Spec {
    name: "read_hot",
    users: 256,
    papers: 256,
    viewers: 32,
    one_ids: 64,
    pages: &["papers/all", "users/all", "papers/one", "users/one"],
    write_frac: 0.0,
    rate: 4000.0,
    peak_rate: 35000.0,
    checkpoint_every: None,
    warm_every_key: true,
};

pub const WRITE_MIX: Spec = Spec {
    name: "write_mix",
    users: 1024,
    papers: 256,
    viewers: 1024,
    one_ids: usize::MAX,
    pages: &["papers/all", "papers/one", "users/one"],
    write_frac: 0.25,
    rate: 150.0,
    peak_rate: 700.0,
    checkpoint_every: Some(128),
    warm_every_key: false,
};

impl Spec {
    fn config(&self) -> ServerConfig {
        ServerConfig {
            checkpoint: CheckpointPolicy {
                every_records: self.checkpoint_every,
                every: None,
            },
            ..ServerConfig::default()
        }
    }
}

#[derive(Clone, Debug)]
enum Write {
    Paper {
        title: String,
    },
    Review {
        paper: i64,
        score: i64,
        text: String,
    },
}

struct Meta {
    page: &'static str,
    /// Index into `Live::users`.
    viewer: usize,
    write: Option<Write>,
}

/// Ops over a table of distinct requests (`table[i]` asks for
/// `meta[i]`), so a long schedule of repeated reads stays small.
#[derive(Default)]
struct Schedule {
    ops: Vec<Op>,
    table: Vec<Template>,
    meta: Vec<Meta>,
}

impl Schedule {
    fn add(&mut self, template: Template, meta: Meta) -> u32 {
        self.table.push(template);
        self.meta.push(meta);
        (self.table.len() - 1) as u32
    }

    fn meta_of(&self, op: usize) -> &Meta {
        &self.meta[self.ops[op].request as usize]
    }
}

/// A write the server acknowledged with its new jid.
struct Acked {
    jid: i64,
    author: i64,
    write: Write,
}

/// A site being served.
struct Live {
    server: Server,
    site: Site,
    vanilla: ConfVanilla,
    users: Vec<User>,
    papers: Vec<i64>,
    viewers: Vec<usize>,
    tokens: Vec<Option<String>>,
    dir: PathBuf,
}

impl Live {
    fn close(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn read_target(spec: &Spec, live: &Live, page: &'static str, rng: &mut Rng) -> String {
    match page {
        "papers/one" => {
            let n = live.papers.len().min(spec.one_ids);
            format!("papers/one?id={}", live.papers[rng.below(n)])
        }
        "users/one" => {
            let n = live.users.len().min(spec.one_ids);
            format!("users/one?id={}", live.users[rng.below(n)].jid)
        }
        _ => page.to_owned(),
    }
}

/// Requests `from..from + n` of the workload's mix, request `i` due at
/// `i / rate` seconds (all at once for `rate = None`).
fn schedule(
    spec: &Spec,
    live: &Live,
    rng: &mut Rng,
    from: usize,
    n: usize,
    rate: Option<f64>,
) -> Schedule {
    let mut sched = Schedule::default();
    let mut reads: HashMap<(usize, String), u32> = HashMap::new();
    for i in from..from + n {
        let viewer = live.viewers[rng.below(live.viewers.len())];
        let token = live.tokens[viewer].as_deref();
        let due = rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(i as f64 / r));
        let request = if rng.chance(spec.write_frac) {
            let (page, template, write) = if rng.chance(0.5) {
                let template =
                    Template::post("papers/submit", &format!("title=bench+paper+{i}"), token);
                let title = format!("bench paper {i}");
                ("papers/submit", template, Write::Paper { title })
            } else {
                let paper = live.papers[rng.below(live.papers.len())];
                let score = rng.below(5) as i64;
                let form = format!("paper={paper}&score={score}&text=bench+review+{i}");
                let text = format!("bench review {i}");
                let template = Template::post("reviews/submit", &form, token);
                (
                    "reviews/submit",
                    template,
                    Write::Review { paper, score, text },
                )
            };
            let write = Some(write);
            sched.add(
                template,
                Meta {
                    page,
                    viewer,
                    write,
                },
            )
        } else {
            let page = spec.pages[rng.below(spec.pages.len())];
            let target = read_target(spec, live, page, rng);
            match reads.get(&(viewer, target.clone())) {
                Some(&r) => r,
                None => {
                    let template = Template::get(&target, token);
                    let r = sched.add(
                        template,
                        Meta {
                            page,
                            viewer,
                            write: None,
                        },
                    );
                    reads.insert((viewer, target), r);
                    r
                }
            }
        };
        sched.ops.push(Op { due, request });
    }
    sched
}

/// Builds the database, serves it, logs every viewer in over the wire
/// and warms the caches.
fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<Live, String> {
    data::fresh_dir(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let conference = data::conference(spec.users, spec.papers, seed);
    let site = apps::serve::conference_site_persistent(conference.app, dir)
        .map_err(|e| format!("persistent site: {e}"))?;
    let server = Server::bind(site.clone(), "127.0.0.1:0", spec.config())
        .map_err(|e| format!("bind: {e}"))?;
    let mut rng = Rng::new(seed ^ 0x7669_6577);
    let mut order: Vec<usize> = (0..conference.users.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    // A fixed mix of roles whatever the seed: one PC member in ten, the
    // rest ordinary users (the chair sees every facet, so one chair in
    // a small set would swing the page sizes between seeds).
    let users = &conference.users;
    let mut viewers: Vec<usize> = if spec.viewers >= users.len() {
        order
    } else {
        let pc = spec.viewers / 10;
        let of = |level: &str, n: usize| -> Vec<usize> {
            order
                .iter()
                .copied()
                .filter(|&u| users[u].level == level)
                .take(n)
                .collect()
        };
        [of("pc", pc), of("normal", spec.viewers - pc)].concat()
    };
    viewers.sort_unstable();
    let mut tokens = vec![None; conference.users.len()];
    let mut conn = client::Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    for &v in &viewers {
        tokens[v] = Some(conn.login(conference.users[v].jid)?);
    }
    drop(conn);
    let live = Live {
        server,
        site,
        vanilla: conference.vanilla,
        users: conference.users,
        papers: conference.papers,
        viewers,
        tokens,
        dir: dir.to_path_buf(),
    };
    let warm = if spec.warm_every_key {
        every_key(spec, &live)
    } else {
        let reads = Spec {
            write_frac: 0.0,
            ..*spec
        };
        schedule(&reads, &live, &mut rng, 0, 256, None)
    };
    let failed = client::back_to_back(
        live.server.addr(),
        &warm.ops,
        &warm.table,
        CONNS,
        &|_, r| r.status,
    )
    .iter()
    .filter(|s| s.outcome != Some(200))
    .count();
    if failed > 0 {
        live.close();
        return Err(format!("{failed} warm-up requests failed"));
    }
    Ok(live)
}

/// One request for every distinct (page, viewer) render-cache key.
fn every_key(spec: &Spec, live: &Live) -> Schedule {
    let mut sched = Schedule::default();
    for &viewer in &live.viewers {
        for &page in spec.pages {
            let targets: Vec<String> = match page {
                "papers/one" => live
                    .papers
                    .iter()
                    .take(spec.one_ids)
                    .map(|id| format!("papers/one?id={id}"))
                    .collect(),
                "users/one" => live
                    .users
                    .iter()
                    .take(spec.one_ids)
                    .map(|u| format!("users/one?id={}", u.jid))
                    .collect(),
                p => vec![p.to_owned()],
            };
            for target in targets {
                let template = Template::get(&target, live.tokens[viewer].as_deref());
                let request = sched.add(
                    template,
                    Meta {
                        page,
                        viewer,
                        write: None,
                    },
                );
                sched.ops.push(Op {
                    due: Duration::ZERO,
                    request,
                });
            }
        }
    }
    sched
}

/// Latencies and acknowledged writes gathered from samples.
#[derive(Default)]
struct Outcomes {
    reads: Latencies,
    writes: Latencies,
    gen_late_ms: Vec<f64>,
    ok: usize,
    acked: Vec<Acked>,
}

/// What the client kept of one response.
struct Checked {
    status: u16,
    /// The new jid a write was acknowledged with.
    jid: Option<i64>,
    /// An email a `users/*` page showed to someone it must not.
    leak: Option<Box<str>>,
}

/// The per-response oracle, run on the connection's thread: the leak
/// canary on `users/*` pages, the acknowledged jid of a write.
fn checker<'a>(
    sched: &'a Schedule,
    users: &'a [User],
) -> impl Fn(usize, WireResponse) -> Checked + Sync + 'a {
    move |op, r| {
        let m = sched.meta_of(op);
        let viewer = &users[m.viewer];
        let canary = r.status == 200 && m.page.starts_with("users/") && !viewer.is_chair();
        let body = (canary || m.write.is_some()).then(|| String::from_utf8_lossy(&r.body));
        Checked {
            status: r.status,
            jid: m
                .write
                .as_ref()
                .and(body.as_deref())
                .and_then(|b| b.trim().parse().ok()),
            leak: canary
                .then(|| email_leak(body.as_deref().unwrap_or_default(), Some(&viewer.email)))
                .flatten()
                .map(String::into_boxed_str),
        }
    }
}

/// Sends `sched` with `send` and files every checked outcome.
fn exchange(
    report: &mut Report,
    live: &Live,
    sched: &Schedule,
    out: &mut Outcomes,
    send: impl FnOnce(client::Check<Checked>) -> Vec<Sample<Checked>>,
) {
    let samples = send(&checker(sched, &live.users));
    absorb(report, live, sched, &samples, out);
}

/// Files checked outcomes: failures, leaks, acknowledged writes and
/// latencies.
fn absorb(
    report: &mut Report,
    live: &Live,
    sched: &Schedule,
    samples: &[Sample<Checked>],
    out: &mut Outcomes,
) {
    for s in samples {
        let op = s.op as usize;
        let m = sched.meta_of(op);
        let viewer = &live.users[m.viewer];
        let checked = match &s.outcome {
            Some(c) if c.status == 200 => c,
            other => {
                report.count(false);
                if report.failed <= 3 {
                    let status = other.as_ref().map(|c| c.status);
                    report.note(format!(
                        "failed: {} -> {status:?} (None: transport error)",
                        m.page
                    ));
                }
                continue;
            }
        };
        if let Some(leak) = &checked.leak {
            report.wrong(format!(
                "{} served to user {} shows {leak}",
                m.page, viewer.jid
            ));
            continue;
        }
        if let Some(write) = &m.write {
            let Some(jid) = checked.jid else {
                report.count(false);
                continue;
            };
            out.acked.push(Acked {
                jid,
                author: viewer.jid,
                write: write.clone(),
            });
        }
        report.count(true);
        out.ok += 1;
        let due = sched.ops[op].due;
        let latency_ms = f64::from(s.latency) / 1e3;
        if m.write.is_some() {
            out.writes.push(m.page, due, latency_ms);
        } else {
            out.reads.push(m.page, due, latency_ms);
        }
        out.gen_late_ms.push(f64::from(s.gen_late) / 1e3);
    }
}

/// Replays acknowledged writes into the hand-coded baseline in jid
/// order, so both databases hold the same rows again.
fn mirror(live: &mut Live, acked: &[Acked], report: &mut Report) {
    let mut sorted: Vec<&Acked> = acked.iter().collect();
    sorted.sort_by_key(|a| (matches!(a.write, Write::Review { .. }), a.jid));
    for a in sorted {
        let author = Viewer::User(a.author);
        let id = match &a.write {
            Write::Paper { title } => live.vanilla.submit_paper(&author, title),
            Write::Review { paper, score, text } => {
                live.vanilla.submit_review(&author, *paper, *score, text)
            }
        };
        if id != a.jid {
            report.wrong(format!("baseline id {id} for acknowledged jid {}", a.jid));
            return;
        }
    }
}

/// The baseline's rendering of one grid request.
fn vanilla_page(vanilla: &mut ConfVanilla, req: &Request) -> String {
    let id = req.int_param("id").unwrap_or(-1);
    match req.path.as_str() {
        "papers/all" => vanilla.all_papers(&req.viewer),
        "users/all" => vanilla.all_users(&req.viewer),
        "papers/one" => vanilla.single_paper(&req.viewer, id),
        _ => vanilla.single_user(&req.viewer, id),
    }
}

fn fastest<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed());
        last = Some(out);
    }
    (best, last.expect("at least one repetition"))
}

/// The end-of-run grid: sampled (page, viewer) pairs served over the
/// wire must equal `Router::handle` on the same app, which must equal
/// the baseline. Returns the pairs with their bytes and `overhead_x`.
fn grid(
    live: &mut Live,
    acked: &[Acked],
    rng: &mut Rng,
    report: &mut Report,
) -> (Vec<(Request, String)>, f64) {
    mirror(live, acked, report);
    let papers: Vec<i64> = live
        .papers
        .iter()
        .copied()
        .chain(
            acked
                .iter()
                .filter(|a| matches!(a.write, Write::Paper { .. }))
                .map(|a| a.jid),
        )
        .collect();
    let mut requests = Vec::new();
    let mut sched = Schedule::default();
    for page in ["papers/all", "users/all", "papers/one", "users/one"] {
        for _ in 0..GRID_PER_PAGE {
            let v = live.viewers[rng.below(live.viewers.len())];
            let mut req = Request::new(page, Viewer::User(live.users[v].jid));
            let mut target = page.to_owned();
            let id = match page {
                "papers/one" => Some(papers[rng.below(papers.len())]),
                "users/one" => Some(live.users[rng.below(live.users.len())].jid),
                _ => None,
            };
            if let Some(id) = id {
                req = req.with_param("id", &id.to_string());
                target = format!("{page}?id={id}");
            }
            let template = Template::get(&target, live.tokens[v].as_deref());
            let request = sched.add(
                template,
                Meta {
                    page,
                    viewer: v,
                    write: None,
                },
            );
            sched.ops.push(Op {
                due: Duration::ZERO,
                request,
            });
            requests.push((v, req));
        }
    }
    let served = client::back_to_back(live.server.addr(), &sched.ops, &sched.table, 1, &|_, r| r);
    let mut ratios = Vec::new();
    let mut pairs = Vec::new();
    for (chunk, page_requests) in requests.chunks(GRID_PER_PAGE).enumerate() {
        let (mut jt, mut vt) = (Vec::new(), Vec::new());
        for (k, (v, req)) in page_requests.iter().enumerate() {
            let sample = &served[chunk * GRID_PER_PAGE + k];
            let (j, inproc) = fastest(3, || live.site.router.handle(&live.site.app, req));
            let (b, baseline) = fastest(3, || vanilla_page(&mut live.vanilla, req));
            let viewer = &live.users[*v];
            match &sample.outcome {
                Some(r) if r.status == 200 && r.body == inproc.body.as_bytes() => {
                    report.count(true)
                }
                Some(r) if r.status == 200 => report.wrong(format!(
                    "served {} for user {} differs from Router::handle",
                    req.path, viewer.jid
                )),
                _ => report.count(false),
            }
            if baseline != inproc.body {
                report.wrong(format!(
                    "{} for user {} differs between Jacqueline and the baseline",
                    req.path, viewer.jid
                ));
            }
            if req.path.starts_with("users/") && !viewer.is_chair() {
                if let Some(leak) = email_leak(&inproc.body, Some(&viewer.email)) {
                    report.wrong(format!("{} for user {} shows {leak}", req.path, viewer.jid));
                }
            }
            jt.push(j.as_secs_f64());
            vt.push(b.as_secs_f64());
            pairs.push((req.clone(), inproc.body));
        }
        ratios.push(ratio(median(&jt), median(&vt)));
    }
    (pairs, geomean(&ratios))
}

/// Restores blank apps from the directory `RESTORES` times; the last
/// must hold every acknowledged write and render the grid unchanged.
fn restore(
    dir: &Path,
    pairs: &[(Request, String)],
    acked: &[Acked],
    report: &mut Report,
) -> (f64, RestoreStats) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..RESTORES {
        let mut app = App::new();
        conf::register(&mut app).expect("register the conference models");
        let started = Instant::now();
        let result = app.restore_from(dir);
        times.push(started.elapsed().as_secs_f64());
        match result {
            Ok(stats) => last = Some((app, stats)),
            Err(e) => report.wrong(format!("restore failed: {e}")),
        }
    }
    let Some((app, stats)) = last else {
        return (median(&times), RestoreStats::default());
    };
    report.count(true);
    for a in acked {
        let table = match a.write {
            Write::Paper { .. } => "paper",
            Write::Review { .. } => "review",
        };
        if app.get(table, a.jid).is_err() {
            report.wrong(format!(
                "acknowledged {table} {} missing after restore",
                a.jid
            ));
        }
    }
    let router = conf::router();
    for (req, bytes) in pairs {
        if router.handle(&app, req).body != *bytes {
            report.wrong(format!(
                "{} for {} differs after restore",
                req.path, req.viewer
            ));
        }
    }
    (median(&times), stats)
}

/// Runs one served workload; `trace` selects the per-layer run.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    report.note(format!(
        "workload {}: {} users x {} papers, {} viewers, {:.0}% writes, open loop at {} req/s on {CONNS} connections",
        spec.name,
        spec.users,
        spec.papers,
        spec.viewers,
        spec.write_frac * 100.0,
        spec.rate
    ));
    report.note(format!("server config: {:?}", spec.config()));
    if trace {
        let live = setup(spec, seed, &work.join("site"))?;
        traced(spec, seed, seconds, live, report)
    } else {
        let mut setups = Vec::new();
        let mut live = None;
        for k in 0..SETUPS {
            if let Some(old) = live.take() {
                Live::close(old);
            }
            let started = Instant::now();
            live = Some(setup(spec, seed, &work.join(format!("site{k}")))?);
            setups.push(started.elapsed().as_secs_f64());
        }
        let live = live.expect("at least one set-up");
        report.metric("setup_s", median(&setups), "s");
        untraced(spec, seed, seconds, live, report)
    }
}

fn untraced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    live: Live,
    report: &mut Report,
) -> Result<(), String> {
    let rate = spec.rate;
    let mut rng = Rng::new(seed ^ 0x6c6f_6164);
    let addr = live.server.addr();
    let per_round = (rate * seconds * (1.0 - PEAK_SHARE) / ROUNDS as f64) as usize;
    let per_slice = (spec.peak_rate * seconds * PEAK_SHARE / ROUNDS as f64) as usize;
    let mut open = Outcomes::default();
    let mut acked = Vec::new();
    let mut peak_ok = 0;
    let mut peak_time = Duration::ZERO;
    // One request in flight per server connection thread: with one
    // per core the server's threads idle between hand-offs and the rate
    // follows the host's wake-up latency rather than the server's work.
    let peak_conns = spec.config().conn_threads;
    for round in 0..ROUNDS {
        let sched = schedule(
            spec,
            &live,
            &mut rng,
            round * per_round,
            per_round,
            Some(rate),
        );
        exchange(report, &live, &sched, &mut open, |check| {
            client::open_loop(addr, &sched.ops, &sched.table, CONNS, check)
        });
        // A saturation slice keeps only its count and acknowledged
        // writes: holding every latency would grow the harness's memory
        // with the rate and blur `peak_rss_mb`.
        let peak_sched = schedule(spec, &live, &mut rng, round * per_slice, per_slice, None);
        let mut slice = Outcomes::default();
        exchange(report, &live, &peak_sched, &mut slice, |check| {
            let (samples, took) =
                client::closed_loop(addr, &peak_sched.ops, &peak_sched.table, peak_conns, check);
            peak_time += took;
            samples
        });
        peak_ok += slice.ok;
        acked.append(&mut slice.acked);
    }

    let mut writes = std::mem::take(&mut open.writes);
    acked.append(&mut open.acked);
    if spec.write_frac == 0.0 {
        // No writes in the read mix: time acknowledged writes in an
        // open-loop probe after the reads instead.
        let probe = Spec {
            write_frac: 1.0,
            ..*spec
        };
        let probe_sched = schedule(&probe, &live, &mut rng, 0, PROBE_WRITES, Some(PROBE_RATE));
        let mut p = Outcomes::default();
        exchange(report, &live, &probe_sched, &mut p, |check| {
            client::open_loop(addr, &probe_sched.ops, &probe_sched.table, CONNS, check)
        });
        writes = p.writes;
        acked.append(&mut p.acked);
    }
    let end = finish(live, &acked, &mut rng, report);

    let read_p99 = open.reads.p99();
    report.metric("read_p50_ms", open.reads.p50(), "ms");
    report.metric("read_p99_ms", read_p99, "ms");
    report.metric("write_p50_ms", writes.p50(), "ms");
    report.metric("write_p99_ms", writes.p99(), "ms");
    report.metric(
        "peak_rps",
        peak_ok as f64 / peak_time.as_secs_f64(),
        "req/s",
    );
    report.metric("overhead_x", end.overhead, "ratio");
    report.metric("restore_s", end.restore_s, "s");
    report.metric("store_bytes_per_row", end.store_bytes_per_row, "B/row");
    report.note(format!(
        "samples: {} reads, {} writes ({}), {} peak-phase OK responses on {} connections",
        open.reads.len(),
        writes.len(),
        if spec.write_frac > 0.0 {
            "in the mix"
        } else {
            "open-loop probe after the reads"
        },
        peak_ok,
        spec.config().conn_threads
    ));
    generator_health(&open, read_p99, report);
    Ok(())
}

/// Latencies exclude the generator's own wake-up lateness, but a late
/// generator also sends a burstier load than the schedule: flag a run
/// where that lateness is comparable to the tail it reports.
fn generator_health(open: &Outcomes, read_p99: f64, report: &mut Report) {
    let late = percentile(&open.gen_late_ms, 99.0);
    report.note(format!(
        "gen_late_ms_p99 = {late:.4} ms (generator wake-up lateness)"
    ));
    if late > 0.5 * read_p99 {
        report.note(format!(
            "FLAG: generator lateness p99 ({late:.4} ms) is over half the read p99 ({read_p99:.4} ms): \
             the generator did not keep the schedule closely enough to vouch for the tail"
        ));
    }
}

/// What the end of a served run measured.
struct End {
    overhead: f64,
    restore_s: f64,
    restore: RestoreStats,
    store_bytes_per_row: f64,
}

/// The end of every served run: the grid on the live server, shutdown,
/// then restores from the directory.
fn finish(mut live: Live, acked: &[Acked], rng: &mut Rng, report: &mut Report) -> End {
    let (pairs, overhead) = grid(&mut live, acked, rng, report);
    let app = &live.site.app;
    let store_bytes_per_row = data::dir_bytes(&live.dir) as f64 / data::physical_rows(app) as f64;
    report.note(format!(
        "persistence: WAL SyncPolicy::Never (the enable_persistence default; {} WAL fsyncs), checkpoints fsync file and directory; {} scheduled checkpoints",
        app.db.raw_ref().wal().map_or(0, |w| w.sync_count()),
        app.scheduled_checkpoint_count()
    ));
    live.server.shutdown();
    let (restore_s, restore) = restore(&live.dir, &pairs, acked, report);
    End {
        overhead,
        restore_s,
        restore,
        store_bytes_per_row,
    }
}

fn traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    live: Live,
    report: &mut Report,
) -> Result<(), String> {
    let rate = spec.rate;
    let mut rng = Rng::new(seed ^ 0x7472_6163);
    let n = (rate * seconds / 2.0) as usize;
    let config = spec.config();

    // First half: the real server, untraced, for the overhead baseline.
    let plain_sched = schedule(spec, &live, &mut rng, 0, n, Some(rate));
    let mut plain = Outcomes::default();
    let addr = live.server.addr();
    exchange(report, &live, &plain_sched, &mut plain, |check| {
        client::open_loop(addr, &plain_sched.ops, &plain_sched.table, CONNS, check)
    });

    // Second half: the same mix through the timed pipeline.
    let app = Arc::clone(&live.site.app);
    let cache0 = app.render_cache_stats();
    let decode0 = data::decode_stats(&[&app]);
    let facets0 = data::facets();
    let wal0 = app.wal_pressure();
    let service = ExecutorService::start_bounded(
        Arc::clone(&app),
        Arc::clone(&live.site.router),
        config.executor_threads,
        config.queue_depth,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let sched = schedule(spec, &live, &mut rng, 0, n, Some(rate));
    let ckpt = spec
        .checkpoint_every
        .map(|every| (every, live.dir.as_path()));
    let traced = {
        let check = checker(&sched, &live.users);
        trace::serve_traced(&live.site, &service, listener, ckpt, |addr| {
            client::open_loop(addr, &sched.ops, &sched.table, CONNS, &check)
        })
        .map_err(|e| e.to_string())?
    };
    let sheds = service.sheds();
    service.shutdown();
    let cache1 = app.render_cache_stats();
    let decode1 = data::decode_stats(&[&app]);
    let facets1 = data::facets();
    let wal1 = app.wal_pressure();
    let mut tr = Outcomes::default();
    absorb(report, &live, &sched, &traced.driven, &mut tr);
    let (splits, bad) = trace::split(&traced.driven, &traced.layers);
    if !bad.is_empty() {
        report.wrong(format!(
            "{} traced requests have no layer record inside their round trip",
            bad.len()
        ));
    }

    let of = |f: &dyn Fn(&trace::Split) -> Option<Duration>| -> Vec<f64> {
        splits.iter().filter_map(f).map(us).collect()
    };
    let socket: Vec<f64> = splits.iter().map(|s| s.socket_us).collect();
    let p50 = |xs: Vec<f64>| median(&xs);
    report.metric(
        "wire.parse_us_p50",
        p50(of(&|s| Some(s.layers.parse))),
        "us",
    );
    report.metric(
        "wire.serialize_us_p50",
        p50(of(&|s| Some(s.layers.serialize))),
        "us",
    );
    report.metric(
        "auth.authenticate_us_p50",
        p50(of(&|s| Some(s.layers.auth))),
        "us",
    );
    let queue = of(&|s| Some(s.layers.queue));
    report.metric("executor.queue_us_p50", median(&queue), "us");
    report.metric("executor.queue_us_p99", percentile(&queue, 99.0), "us");
    report.metric(
        "executor.reply_hop_us_p50",
        p50(of(&|s| Some(s.layers.hop))),
        "us",
    );
    report.metric("executor.sheds", sheds as f64, "count");
    report.metric("server.socket_us_p50", median(&socket), "us");
    type Class = (&'static str, fn(&trace::Layers) -> bool);
    let classes: [Class; 4] = [
        ("hit", |l| !l.write && l.cache == RenderCacheStatus::Hit),
        ("miss", |l| !l.write && l.cache == RenderCacheStatus::Miss),
        ("repair", |l| {
            !l.write && l.cache == RenderCacheStatus::Repair
        }),
        ("write", |l| l.write),
    ];
    for (class, member) in classes {
        let xs = of(&|s| member(&s.layers).then_some(s.layers.service));
        report.metric(
            &format!("executor.service_{class}_us_p50"),
            median(&xs),
            "us",
        );
        report.metric(
            &format!("executor.service_{class}_us_p99"),
            percentile(&xs, 99.0),
            "us",
        );
    }

    let hits = (cache1.hits - cache0.hits) as f64;
    let misses = (cache1.misses - cache0.misses) as f64;
    let repairs = (cache1.repairs - cache0.repairs) as f64;
    let probes = hits + misses + repairs;
    report.metric("rendercache.hit_ratio", ratio(hits, probes), "ratio");
    report.metric("rendercache.miss_ratio", ratio(misses, probes), "ratio");
    report.metric("rendercache.repair_ratio", ratio(repairs, probes), "ratio");
    report.metric(
        "rendercache.fragments_per_repair",
        ratio(
            (cache1.repaired_fragments - cache0.repaired_fragments) as f64,
            repairs,
        ),
        "count",
    );
    report.metric(
        "rendercache.invalidated",
        (cache1.invalidated - cache0.invalidated) as f64,
        "count",
    );

    let writes = splits.iter().filter(|s| s.layers.write).count() as f64;
    let requests = splits.len() as f64;
    report.metric(
        "form.decode_hit_ratio",
        ratio(
            decode1.0 - decode0.0,
            (decode1.0 - decode0.0) + (decode1.1 - decode0.1),
        ),
        "ratio",
    );
    report.metric(
        "form.delta_applies_per_write",
        ratio(decode1.2 - decode0.2, writes),
        "count",
    );
    facet_metrics(facets0, facets1, requests, report);

    let ckpts = &traced.checkpoints;
    let absorbed = ckpts
        .iter()
        .fold((0u64, 0u64), |acc, c| (acc.0 + c.wal.0, acc.1 + c.wal.1));
    let wal_records = (absorbed.0 + wal1.0).saturating_sub(wal0.0) as f64;
    let wal_bytes = (absorbed.1 + wal1.1).saturating_sub(wal0.1) as f64;
    report.metric(
        "microdb.wal.bytes_per_write",
        ratio(wal_bytes, writes),
        "B/write",
    );
    report.metric(
        "microdb.wal.records_per_write",
        ratio(wal_records, writes),
        "count",
    );
    let ckpt_ms: Vec<f64> = ckpts.iter().map(|c| ms(c.elapsed)).collect();
    let written: usize = ckpts.iter().map(|c| c.stats.chunks_written).sum();
    let reused: usize = ckpts.iter().map(|c| c.stats.chunks_reused).sum();
    report.metric("checkpoint.ms_p50", median(&ckpt_ms), "ms");
    report.metric(
        "checkpoint.ms_max",
        ckpt_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.metric("checkpoint.count", ckpts.len() as f64, "count");
    report.metric(
        "checkpoint.chunks_written_per_ckpt",
        ratio(written as f64, ckpts.len() as f64),
        "count",
    );
    report.metric(
        "checkpoint.chunk_reuse_ratio",
        ratio(reused as f64, (written + reused) as f64),
        "ratio",
    );
    report.metric(
        "trace.overhead_pct",
        (ratio(tr.reads.p50(), plain.reads.p50()) - 1.0) * 100.0,
        "pct",
    );
    report.metric(
        "harness.gen_late_ms_p99",
        percentile(&plain.gen_late_ms, 99.0),
        "ms",
    );
    report.note(format!(
        "traced: {} requests split ({} writes), {} checkpoints; untraced read p50 {:.4} ms, traced read p50 {:.4} ms",
        splits.len(),
        writes,
        ckpts.len(),
        plain.reads.p50(),
        tr.reads.p50()
    ));
    generator_health(&plain, plain.reads.p99(), report);

    let mut acked = plain.acked;
    acked.append(&mut tr.acked);
    let end = finish(live, &acked, &mut rng, report);
    report.metric(
        "checkpoint.restore_wal_applied",
        end.restore.wal_applied as f64,
        "count",
    );
    Ok(())
}

/// `faceted.*`: computed-table hit ratio and interned-node growth.
pub fn facet_metrics(
    before: data::Facets,
    after: data::Facets,
    requests: f64,
    report: &mut Report,
) {
    let hits = after.memo_hits - before.memo_hits;
    let misses = after.memo_misses - before.memo_misses;
    report.metric(
        "faceted.memo_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    report.metric(
        "faceted.nodes_per_1k_req",
        ratio(after.nodes - before.nodes, requests) * 1000.0,
        "count",
    );
}
