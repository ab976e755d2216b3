//! Seeded chaos scenarios over the persistence + degradation stack.
//!
//! A chaos run drives randomized-but-reproducible interleavings of
//! writes, checkpoints, kills, restores and injected storage faults
//! over the three case-study applications, checking the robustness
//! invariants after every recovery:
//!
//! * **Grid identity** — the all-pages × all-viewers differential
//!   grid rendered after a kill + restore is byte-identical to the
//!   grid rendered just before the kill, for every viewer including
//!   the ones each policy denies.
//! * **Exactly-once writes** — every write the service acknowledged
//!   with `200` carries a unique marker string that must appear in
//!   some viewer's page after recovery and never twice in any single
//!   page; every rejected write's marker must appear nowhere.
//! * **Physical footprint** — per-table physical row counts survive
//!   the kill + replay unchanged (the scenarios only issue
//!   row-creating writes, so replay duplicating or dropping a record
//!   shows up as a count drift even where rendering would not).
//! * **Degraded-mode arc** — an injected WAL-append failure must
//!   flip the app to read-only (writes `503 Retry-After`, reads and
//!   `admin/health` keep answering), and a successful
//!   `admin/checkpoint` must clear it.
//! * **Backpressure** — flooding a one-permit admission gate with a
//!   line of four must shed exactly the requests past the line with
//!   `503 Retry-After` rather than queue without limit, and the
//!   service must serve normally again once the flood drains.
//!
//! Determinism: the only randomness is a [`SplitMix64`] stream seeded
//! from the caller, and every request — scheduled checkpoint included
//! — runs on the driver's thread through [`ExecutorService::serve`],
//! so a seed replays exactly, report line and all (`chaos --seed
//! N`). The fault registry is process-global — callers running
//! several seeds in one process must run them **sequentially** (the
//! `chaos_e2e` test and the `chaos` binary both do).

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use apps::{serve, workload};
use jacqueline::{App, CheckpointPolicy, ExecutorService, Request, Response, Router, Site, Viewer};
use microdb::faults::{self, FaultKind, FaultPoint};

/// Sebastiano Vigna's SplitMix64 — a tiny, well-mixed generator,
/// vendored so scenarios replay bit-for-bit from a seed with no
/// dependency on an external RNG's stream stability.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose entire future stream is determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw from `0..n` (modulo bias is irrelevant at
    /// chaos-mix scales). `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// What one seed's scenarios observed — printed by the `chaos`
/// binary so CI logs show the coverage each pinned seed bought.
#[derive(Default)]
pub struct ChaosReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Scenario steps executed across all three applications.
    pub steps: usize,
    /// Writes the service acknowledged with `200`.
    pub writes_ok: usize,
    /// Writes rejected (injected fault, degraded shed, or policy).
    pub writes_rejected: usize,
    /// Storage faults armed and fired.
    pub faults_injected: usize,
    /// Successful `admin/checkpoint` requests.
    pub checkpoints: usize,
    /// Kill + restore cycles (including faulted first attempts).
    pub kills: usize,
    /// Restores that failed on an injected read fault and succeeded
    /// on retry.
    pub restore_retries: usize,
    /// Full degraded arcs (fault → read-only → checkpoint → healthy).
    pub degraded_arcs: usize,
    /// Requests shed by the admission gate in the flood stage.
    pub sheds: usize,
    /// Grid cells (page × viewer) compared byte-for-byte.
    pub grid_cells_checked: usize,
    /// Render-cache entries repaired in place from the write journal
    /// (accumulated across kills, since each restore starts a fresh
    /// cache).
    pub fragment_repairs: u64,
    /// Checkpoints the service's record-pressure scheduler ran after
    /// a request (accumulated across kills, like `fragment_repairs`).
    pub scheduled_checkpoints: u64,
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos seed {}: {} steps, {} writes ok / {} rejected, \
             {} faults, {} checkpoints (+{} scheduled), {} kills \
             ({} restore retries), {} degraded arcs, {} sheds, \
             {} grid cells verified, {} fragment repairs",
            self.seed,
            self.steps,
            self.writes_ok,
            self.writes_rejected,
            self.faults_injected,
            self.checkpoints,
            self.scheduled_checkpoints,
            self.kills,
            self.restore_retries,
            self.degraded_arcs,
            self.sheds,
            self.grid_cells_checked,
            self.fragment_repairs
        )
    }
}

/// The three served case studies the scenarios rotate over.
#[derive(Copy, Clone, Debug)]
enum AppKind {
    Conference,
    Courses,
    Health,
}

impl AppKind {
    fn name(self) -> &'static str {
        match self {
            AppKind::Conference => "conference",
            AppKind::Courses => "courses",
            AppKind::Health => "health",
        }
    }

    fn build_persistent(self, dir: &Path) -> form::FormResult<Site> {
        match self {
            AppKind::Conference => {
                serve::conference_site_persistent(workload::conference(6, 5).app, dir)
            }
            AppKind::Courses => serve::courses_site_persistent(workload::courses(4).app, dir),
            AppKind::Health => serve::health_site_persistent(workload::health(8).app, dir),
        }
    }

    fn restore(self, dir: &Path) -> form::FormResult<Site> {
        match self {
            AppKind::Conference => serve::conference_site_restored(dir),
            AppKind::Courses => serve::courses_site_restored(dir),
            AppKind::Health => serve::health_site_restored(dir),
        }
    }

    /// Viewers for the differential grid: anonymous plus every jid
    /// that could plausibly be granted or denied something — for the
    /// course manager that range covers the instructors, whose jids
    /// interleave with course/assignment rows.
    fn viewers(self) -> Vec<Viewer> {
        let top = match self {
            AppKind::Conference => 6,
            AppKind::Courses => 13,
            AppKind::Health => 8,
        };
        std::iter::once(Viewer::Anonymous)
            .chain((1..=top).map(Viewer::User))
            .collect()
    }

    fn list_pages(self) -> Vec<String> {
        match self {
            AppKind::Conference => vec!["papers/all".to_owned(), "users/all".to_owned()],
            AppKind::Courses => vec!["courses/all".to_owned(), "courses/all_unpruned".to_owned()],
            AppKind::Health => vec!["records/all".to_owned()],
        }
    }

    /// The object page family + the model whose existing jids seed it.
    fn object_page(self) -> (&'static str, &'static str) {
        match self {
            AppKind::Conference => ("papers/one", "paper"),
            AppKind::Courses => ("submissions/one", "submission"),
            AppKind::Health => ("records/one", "health_record"),
        }
    }

    /// Tables whose physical row counts the replay oracle pins.
    fn tables(self) -> &'static [&'static str] {
        match self {
            AppKind::Conference => &["paper", "review", "user_profile", "conf_state"],
            AppKind::Courses => &["submission", "cuser", "course", "assignment", "enrollment"],
            AppKind::Health => &["waiver", "health_record", "individual"],
        }
    }
}

/// One application under chaos: the live site + service, the page
/// grid it must keep rendering identically, and the write markers
/// whose exactly-once fate the oracles track.
struct Scenario {
    kind: AppKind,
    dir: PathBuf,
    frag: String,
    /// Whether render-cache fragment repair is enabled (the scenario
    /// knob); re-applied after every restore, since a restored app
    /// starts with the default-on cache.
    fragments: bool,
    /// Whether incremental (dirty-chunk-only) checkpoints are enabled
    /// — the `--no-incremental` ablation forces every checkpoint,
    /// scheduled or explicit, down the full-export path. Re-applied
    /// after every restore like `fragments`.
    incremental: bool,
    site: Site,
    service: ExecutorService,
    pages: Vec<String>,
    viewers: Vec<Viewer>,
    /// `(marker, accepted)` for every marker-carrying write issued.
    markers: Vec<(String, bool)>,
    /// Valid write targets (assignment jids / record jids).
    targets: Vec<i64>,
    next_marker: usize,
}

/// Scenarios started in this process.
static SCENARIO_RUNS: AtomicUsize = AtomicUsize::new(0);

/// The scheduled-checkpoint policy the scenarios run under:
/// record-count-only, so the schedule is a pure function of the WAL
/// stream (a wall-clock term would make the interleaving depend on
/// machine speed and break seed replay).
const SCHEDULE_EVERY_RECORDS: u64 = 3;

/// The scenario's service. The driver is sequential, so one permit
/// and no line suffice.
fn start_service(site: &Site) -> ExecutorService {
    ExecutorService::start_scheduled(
        Arc::clone(&site.app),
        Arc::clone(&site.router),
        1,
        0,
        CheckpointPolicy {
            every_records: Some(SCHEDULE_EVERY_RECORDS),
            every: None,
        },
    )
}

fn parse_page(page: &str, viewer: &Viewer) -> Request {
    match page.split_once('?') {
        None => Request::new(page, viewer.clone()),
        Some((path, query)) => {
            let mut request = Request::new(path, viewer.clone());
            for pair in query.split('&') {
                if let Some((k, v)) = pair.split_once('=') {
                    request = request.with_param(k, v);
                }
            }
            request
        }
    }
}

impl Scenario {
    fn start(
        kind: AppKind,
        seed: u64,
        fragments: bool,
        incremental: bool,
    ) -> Result<Scenario, String> {
        // The run number keeps two runs of one seed in one process
        // (the replay test) out of each other's directory and faults.
        let run = SCENARIO_RUNS.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let frag = format!("jacq_chaos_s{seed}_{}_{pid}_{run}", kind.name());
        let dir = std::env::temp_dir().join(&frag);
        let _ = std::fs::remove_dir_all(&dir);
        let site = kind
            .build_persistent(&dir)
            .map_err(|e| format!("{}: building persistent site: {e}", kind.name()))?;
        if !fragments {
            site.app.set_fragment_repair(false);
        }
        if !incremental {
            site.app.set_incremental_checkpoints(false);
        }

        // Discover the seeded object jids by probing — robust against
        // workload jid-allocation changes.
        let (page_family, model) = kind.object_page();
        let mut pages = kind.list_pages();
        let mut targets = Vec::new();
        for jid in 1..=60 {
            if site.app.get(model, jid).is_ok() {
                pages.push(format!("{page_family}?id={jid}"));
            }
            let target_model = match kind {
                AppKind::Conference => "paper",
                AppKind::Courses => "assignment",
                AppKind::Health => "health_record",
            };
            if site.app.get(target_model, jid).is_ok() {
                targets.push(jid);
            }
        }

        let service = start_service(&site);
        Ok(Scenario {
            viewers: kind.viewers(),
            kind,
            dir,
            frag,
            fragments,
            incremental,
            site,
            service,
            pages,
            markers: Vec::new(),
            targets,
            next_marker: 0,
        })
    }

    /// Renders the full differential grid directly through the
    /// router (reads stay legal even in degraded mode).
    fn grid(&self) -> Vec<(String, String, u16, String)> {
        let mut cells = Vec::new();
        for page in &self.pages {
            for viewer in &self.viewers {
                let response = self
                    .site
                    .router
                    .handle(&self.site.app, &parse_page(page, viewer));
                cells.push((
                    page.clone(),
                    format!("{viewer:?}"),
                    response.status,
                    response.body,
                ));
            }
        }
        cells
    }

    fn physical_rows(&self) -> Vec<(&'static str, usize)> {
        self.kind
            .tables()
            .iter()
            .map(|t| (*t, self.site.app.db.physical_rows(t).unwrap_or(0)))
            .collect()
    }

    /// Issues one marker-carrying write through the executor service
    /// and records the marker's accepted/rejected fate. Returns the
    /// response status.
    fn write(&mut self, rng: &mut SplitMix64, report: &mut ChaosReport) -> u16 {
        // The trailing `x` closes the marker so `…-w1x` is never a
        // substring of `…-w10x` when the oracles count occurrences.
        let marker = format!("chaos-{}-w{}x", self.frag, self.next_marker);
        self.next_marker += 1;
        let request = match self.kind {
            AppKind::Conference => {
                let writer = 1 + rng.below(6) as i64;
                Request::new("papers/submit", Viewer::User(writer)).with_param("title", &marker)
            }
            AppKind::Courses => {
                // The seeded student; the submission-text policy shows
                // a submission to its own author unconditionally, so
                // the marker is grid-visible whatever the assignment.
                let target = self.targets[rng.below(self.targets.len() as u64) as usize];
                Request::new("submissions/submit", Viewer::User(1))
                    .with_param("assignment", &target.to_string())
                    .with_param("text", &marker)
            }
            AppKind::Health => {
                // Waivers carry no text field, so health writes are
                // exercised without a marker (the physical-rows and
                // grid oracles still cover them).
                let record = self.targets[rng.below(self.targets.len() as u64) as usize];
                let grantee = 1 + rng.below(8) as i64;
                Request::new("waivers/set", Viewer::User(grantee))
                    .with_param("record", &record.to_string())
                    .with_param("grantee", &grantee.to_string())
            }
        };
        let served = self.service.serve(request);
        let status = served.response.status;
        if status == 200 {
            report.writes_ok += 1;
            if !matches!(self.kind, AppKind::Health) {
                self.markers.push((marker, true));
                // The new object's page joins the grid: its id is the
                // write route's response body.
                if let Ok(jid) = served.response.body.trim().parse::<i64>() {
                    let (family, _) = self.kind.object_page();
                    self.pages.push(format!("{family}?id={jid}"));
                }
            }
        } else {
            report.writes_rejected += 1;
            if !matches!(self.kind, AppKind::Health) {
                self.markers.push((marker, false));
            }
        }
        status
    }

    fn read(&self, rng: &mut SplitMix64) -> u16 {
        let page = &self.pages[rng.below(self.pages.len() as u64) as usize];
        let viewer = &self.viewers[rng.below(self.viewers.len() as u64) as usize];
        self.service.serve(parse_page(page, viewer)).response.status
    }

    fn health(&self) -> Response {
        self.service
            .serve(Request::new("admin/health", Viewer::Anonymous))
            .response
    }

    /// `admin/checkpoint` through the service, retried past one-shot
    /// injected crashes. Errors if it never succeeds.
    fn checkpoint(&self, report: &mut ChaosReport) -> Result<(), String> {
        for _ in 0..3 {
            let response = self
                .service
                .serve(Request::new("admin/checkpoint", Viewer::User(1)))
                .response;
            if response.status == 200 {
                report.checkpoints += 1;
                return Ok(());
            }
            if !response.body.contains("injected") {
                return Err(format!(
                    "{}: checkpoint failed for a non-injected reason: {} {}",
                    self.kind.name(),
                    response.status,
                    response.body
                ));
            }
        }
        Err(format!(
            "{}: checkpoint still failing after retries",
            self.kind.name()
        ))
    }

    /// The full degradation arc: a WAL fault fails one write and
    /// flips read-only; reads and health keep answering; a checkpoint
    /// clears it; a retried write lands.
    fn degraded_arc(
        &mut self,
        rng: &mut SplitMix64,
        report: &mut ChaosReport,
    ) -> Result<(), String> {
        let kind = if rng.chance(50) {
            FaultKind::Error
        } else {
            FaultKind::ShortWrite
        };
        faults::arm_at(FaultPoint::WalAppend, 0, kind, &self.frag);
        let hit = self.write(rng, report);
        if hit == 200 {
            return Err(format!(
                "{}: write succeeded through an armed WAL fault",
                self.kind.name()
            ));
        }
        report.faults_injected += 1;
        if !self.site.app.is_degraded() {
            return Err(format!(
                "{}: WAL failure did not flip degraded mode",
                self.kind.name()
            ));
        }
        let health = self.health();
        if health.status != 503 || !health.body.contains("degraded") {
            return Err(format!(
                "{}: degraded health was {} {:?}",
                self.kind.name(),
                health.status,
                health.body
            ));
        }
        let shed = self.write(rng, report);
        if shed != 503 {
            return Err(format!(
                "{}: degraded write got {shed}, want 503",
                self.kind.name()
            ));
        }
        if self.read(rng) != 200 {
            return Err(format!(
                "{}: reads must keep serving in degraded mode",
                self.kind.name()
            ));
        }
        self.checkpoint(report)?;
        if self.site.app.is_degraded() || self.health().status != 200 {
            return Err(format!(
                "{}: checkpoint did not clear degraded mode",
                self.kind.name()
            ));
        }
        if self.write(rng, report) != 200 {
            return Err(format!(
                "{}: post-recovery write must succeed",
                self.kind.name()
            ));
        }
        // Entries the cache repaired (or warmed) across the arc must
        // still serve the post-recovery truth.
        self.cached_grid_matches_uncached(report)?;
        report.degraded_arcs += 1;
        Ok(())
    }

    /// Arms a crash point inside the checkpoint writer, drives a
    /// checkpoint into it, and requires the retry to succeed.
    fn checkpoint_crash(
        &mut self,
        rng: &mut SplitMix64,
        report: &mut ChaosReport,
    ) -> Result<(), String> {
        let point = if rng.chance(50) {
            FaultPoint::CheckpointPreRename
        } else {
            FaultPoint::CheckpointPostRename
        };
        faults::arm_at(point, 0, FaultKind::Error, &self.frag);
        self.checkpoint(report)?;
        report.faults_injected += 1;
        Ok(())
    }

    /// Kill + restore: shuts the service down, reboots the site from
    /// the checkpoint directory (optionally through an injected
    /// restore-read fault first), and runs every recovery oracle.
    fn kill_and_restore(
        &mut self,
        rng: &mut SplitMix64,
        report: &mut ChaosReport,
    ) -> Result<(), String> {
        let before_grid = self.grid();
        let before_rows = self.physical_rows();
        // The restored app starts a fresh cache and fresh counters:
        // bank this life's repair and scheduled-checkpoint counts
        // before they vanish with the process.
        report.fragment_repairs += self.site.app.render_cache_stats().repairs;
        report.scheduled_checkpoints += self.site.app.scheduled_checkpoint_count();
        self.service.shutdown();
        report.kills += 1;

        if rng.chance(30) {
            faults::arm_at(FaultPoint::RestoreRead, 0, FaultKind::Error, &self.frag);
            match self.kind.restore(&self.dir) {
                Ok(_) => {
                    return Err(format!(
                        "{}: restore succeeded through an armed read fault",
                        self.kind.name()
                    ))
                }
                Err(e) if e.to_string().contains("injected") => {
                    report.faults_injected += 1;
                    report.restore_retries += 1;
                }
                Err(e) => {
                    return Err(format!(
                        "{}: unexpected restore error: {e}",
                        self.kind.name()
                    ))
                }
            }
        }

        self.site = self
            .kind
            .restore(&self.dir)
            .map_err(|e| format!("{}: restore: {e}", self.kind.name()))?;
        if !self.fragments {
            self.site.app.set_fragment_repair(false);
        }
        if !self.incremental {
            self.site.app.set_incremental_checkpoints(false);
        }
        self.service = start_service(&self.site);

        let after_grid = self.grid();
        report.grid_cells_checked += after_grid.len();
        if before_grid.len() != after_grid.len() {
            return Err(format!("{}: grid shape changed", self.kind.name()));
        }
        for (b, a) in before_grid.iter().zip(&after_grid) {
            if b != a {
                return Err(format!(
                    "{}: grid divergence at {} for {}: {} {:?} != {} {:?}",
                    self.kind.name(),
                    b.0,
                    b.1,
                    b.2,
                    b.3,
                    a.2,
                    a.3
                ));
            }
        }
        let after_rows = self.physical_rows();
        if before_rows != after_rows {
            return Err(format!(
                "{}: physical rows drifted across restore: {before_rows:?} != {after_rows:?}",
                self.kind.name()
            ));
        }
        self.check_markers(&after_grid)?;
        // The reborn service's *cached* reads must agree with the
        // uncached grid it was just checked against.
        self.cached_grid_matches_uncached(report)?;
        Ok(())
    }

    /// Exactly-once: each accepted marker appears in some grid cell
    /// and never twice in one page; each rejected marker nowhere.
    fn check_markers(&self, grid: &[(String, String, u16, String)]) -> Result<(), String> {
        for (marker, accepted) in &self.markers {
            let mut total = 0usize;
            for (page, viewer, _, body) in grid {
                let n = body.matches(marker.as_str()).count();
                if n > 1 {
                    return Err(format!(
                        "{}: marker {marker} appears {n} times in {page} for {viewer} \
                         (a write applied more than once)",
                        self.kind.name()
                    ));
                }
                total += n;
            }
            if *accepted && total == 0 {
                return Err(format!(
                    "{}: accepted marker {marker} lost after recovery",
                    self.kind.name()
                ));
            }
            if !accepted && total > 0 {
                return Err(format!(
                    "{}: rejected marker {marker} leaked into a page",
                    self.kind.name()
                ));
            }
        }
        Ok(())
    }

    /// Render-cache oracle: every list page for every viewer, served
    /// through the executor (cache consulted — miss, hit, or fragment
    /// repair, whatever state the scenario left) **twice**, each
    /// response compared byte-for-byte against an uncached
    /// `Router::handle` render. The second pass guarantees a stamped
    /// entry exists afterwards, so any later write exercises the
    /// stale path.
    fn cached_grid_matches_uncached(&self, report: &mut ChaosReport) -> Result<(), String> {
        for page in self.kind.list_pages() {
            for viewer in &self.viewers {
                let uncached = self
                    .site
                    .router
                    .handle(&self.site.app, &parse_page(&page, viewer));
                for pass in ["populate", "replay"] {
                    let served = self.service.serve(parse_page(&page, viewer)).response;
                    if served.status != uncached.status || served.body != uncached.body {
                        return Err(format!(
                            "{}: cached serve diverged from the uncached render \
                             at {page} for {viewer:?} ({pass} pass): \
                             {} {:?} != {} {:?}",
                            self.kind.name(),
                            served.status,
                            served.body,
                            uncached.status,
                            uncached.body
                        ));
                    }
                    report.grid_cells_checked += 1;
                }
            }
        }
        Ok(())
    }

    /// Deterministic fragment-repair exercise: warm the first list
    /// page for a logged-in viewer, push one marker write through the
    /// service, and require the next cached serve to agree with an
    /// uncached render byte-for-byte. For the conference app the
    /// write's only moving table *is* the fragment table, so with the
    /// knob on the warm entry must be **repaired** (counter-pinned);
    /// courses writes leave the course page valid (hit path) and
    /// health writes move the non-fragment `waiver` table (refused
    /// repair → invalidation fallback), so those apps pin the
    /// fallback arms of the same contract.
    fn repair_probe(
        &mut self,
        rng: &mut SplitMix64,
        report: &mut ChaosReport,
    ) -> Result<(), String> {
        let page = self.kind.list_pages()[0].clone();
        let viewer = self.viewers[self.viewers.len() - 1].clone();
        for _ in 0..2 {
            let _ = self.service.serve(parse_page(&page, &viewer));
        }
        let repairs_before = self.site.app.render_cache_stats().repairs;
        let status = self.write(rng, report);
        if status != 200 {
            return Err(format!(
                "{}: the repair probe's write got {status}, want 200",
                self.kind.name()
            ));
        }
        let served = self.service.serve(parse_page(&page, &viewer)).response;
        let uncached = self
            .site
            .router
            .handle(&self.site.app, &parse_page(&page, &viewer));
        if served.status != uncached.status || served.body != uncached.body {
            return Err(format!(
                "{}: post-write cached serve diverged from the uncached render \
                 at {page} for {viewer:?}: {:?} != {:?}",
                self.kind.name(),
                served.body,
                uncached.body
            ));
        }
        report.grid_cells_checked += 1;
        if self.fragments && matches!(self.kind, AppKind::Conference) {
            let repairs_after = self.site.app.render_cache_stats().repairs;
            if repairs_after <= repairs_before {
                return Err(format!(
                    "{}: the probe write must repair the warm {page} entry \
                     in place (repairs stayed at {repairs_before})",
                    self.kind.name()
                ));
            }
        }
        Ok(())
    }

    fn finish(self, report: &mut ChaosReport) {
        report.fragment_repairs += self.site.app.render_cache_stats().repairs;
        report.scheduled_checkpoints += self.site.app.scheduled_checkpoint_count();
        self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The flood stage's admission line: requests that may wait for the
/// one permit.
const FLOOD_LINE: usize = 4;
/// Requests flooded at the gate on top of the one that holds its
/// permit.
const FLOOD: usize = 48;

/// Sends `1 + FLOOD` requests at once, each on its own thread, through
/// a one-permit gate with a line of [`FLOOD_LINE`]; the route parks
/// until released. One request takes the permit and parks and the
/// line fills behind it, so every other request must be shed at once
/// with `503` + `Retry-After`, never queued past the bound. Once
/// released, the holder and the line are served, and the gate serves
/// normally again.
fn flood_stage(report: &mut ChaosReport) -> Result<(), String> {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let mut router = Router::new();
    // Parks until the stage drops its release sender.
    router.route_read("chaos/park", move |_app: &App, _req| {
        let _ = release_rx.lock().expect("release").recv();
        Response::ok("parked\n".to_owned())
    });
    let service =
        ExecutorService::start_bounded(Arc::new(App::new()), Arc::new(router), 1, FLOOD_LINE);
    let park = || Request::new("chaos/park", Viewer::Anonymous);

    let (early, mut late) = std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..=FLOOD {
            let (service, done_tx) = (&service, done_tx.clone());
            scope.spawn(move || done_tx.send(service.serve(park()).response));
        }
        drop(done_tx);
        // Nothing admitted can finish while the permit holder is
        // parked, so every answer before the release is a shed.
        let early: Vec<Response> = (0..FLOOD - FLOOD_LINE)
            .map_while(|_| done_rx.recv_timeout(Duration::from_secs(10)).ok())
            .collect();
        drop(release_tx);
        (early, done_rx.iter().collect::<Vec<_>>())
    });
    // Recovery: the drained gate serves normally.
    late.push(service.serve(park()).response);
    let answers = |responses: &[Response]| -> Vec<(u16, Option<String>)> {
        responses
            .iter()
            .map(|r| (r.status, r.header("retry-after").map(str::to_owned)))
            .collect()
    };
    let (early, late) = (answers(&early), answers(&late));
    if early != vec![(503, Some("1".to_owned())); FLOOD - FLOOD_LINE]
        || late != vec![(200, None); FLOOD_LINE + 2]
        || service.sheds() != early.len()
    {
        return Err(format!(
            "flood answered {early:?} while the permit was held and {late:?} after \
             (shed counter {}); want {} sheds with Retry-After, then the holder, \
             the line of {FLOOD_LINE} and one more request served",
            service.sheds(),
            FLOOD - FLOOD_LINE
        ));
    }
    report.sheds += early.len();
    Ok(())
}

/// Runs one full chaos seed with render-cache fragment repair in its
/// default (enabled) state. See [`run_seed_with_fragments`].
///
/// # Errors
///
/// The first violated invariant, with enough context to replay
/// (`chaos --seed N` reproduces the exact interleaving).
pub fn run_seed(seed: u64) -> Result<ChaosReport, String> {
    run_seed_with_fragments(seed, true)
}

/// Runs one full chaos seed: a randomized scenario over each of the
/// three applications, then the admission flood stage. `fragments`
/// is the scenario knob for render-cache fragment repair: with it
/// off, every stale cache entry pays a full re-render, giving an
/// ablated arm whose interleaving is bit-identical (the knob never
/// draws from the RNG).
///
/// # Errors
///
/// The first violated invariant, with enough context to replay
/// (`chaos --seed N` reproduces the exact interleaving).
pub fn run_seed_with_fragments(seed: u64, fragments: bool) -> Result<ChaosReport, String> {
    run_seed_configured(seed, fragments, true)
}

/// Runs one full chaos seed with both scenario knobs explicit:
/// `fragments` (render-cache fragment repair) and `incremental`
/// (dirty-chunk-only checkpoints — off means every checkpoint,
/// scheduled or explicit, re-exports the full snapshot). Neither
/// knob draws from the RNG, so all four arms of one seed replay the
/// same logical interleaving.
///
/// # Errors
///
/// The first violated invariant, with enough context to replay
/// (`chaos --seed N [--no-incremental]` reproduces the exact
/// interleaving).
pub fn run_seed_configured(
    seed: u64,
    fragments: bool,
    incremental: bool,
) -> Result<ChaosReport, String> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(seed));
    let mut report = ChaosReport {
        seed,
        ..ChaosReport::default()
    };

    for kind in [AppKind::Conference, AppKind::Courses, AppKind::Health] {
        let mut scenario = Scenario::start(kind, seed, fragments, incremental)?;
        let steps = 14 + rng.below(8);
        let mut had_degraded_arc = false;
        let mut had_kill = false;
        for _ in 0..steps {
            report.steps += 1;
            match rng.below(100) {
                0..=34 => {
                    let status = scenario.write(&mut rng, &mut report);
                    if !matches!(status, 200 | 503) {
                        return Err(format!(
                            "{}: unfaulted write got unexpected status {status}",
                            kind.name()
                        ));
                    }
                }
                35..=59 => {
                    let status = scenario.read(&mut rng);
                    if !matches!(status, 200 | 400) {
                        return Err(format!(
                            "{}: read got unexpected status {status}",
                            kind.name()
                        ));
                    }
                }
                60..=69 => scenario.checkpoint(&mut report)?,
                70..=81 => {
                    scenario.degraded_arc(&mut rng, &mut report)?;
                    had_degraded_arc = true;
                }
                82..=89 => scenario.checkpoint_crash(&mut rng, &mut report)?,
                _ => {
                    scenario.kill_and_restore(&mut rng, &mut report)?;
                    had_kill = true;
                }
            }
        }
        // Every scenario must exercise the headline arcs at least
        // once, whatever the event mix drew.
        if !had_degraded_arc {
            report.steps += 1;
            scenario.degraded_arc(&mut rng, &mut report)?;
        }
        report.steps += 1;
        scenario.repair_probe(&mut rng, &mut report)?;
        if !had_kill {
            report.steps += 1;
        }
        scenario.kill_and_restore(&mut rng, &mut report)?;
        scenario.finish(&mut report);
    }

    flood_stage(&mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_streams_are_deterministic_and_distinct() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert_ne!(xs, zs, "different seed, different stream");
        assert!(xs.iter().any(|x| *x != xs[0]), "stream advances");
    }

    #[test]
    fn chance_is_bounded() {
        let mut rng = SplitMix64::new(7);
        assert!(!rng.chance(0));
        let mut rng = SplitMix64::new(7);
        assert!(rng.chance(100));
    }

    #[test]
    fn flood_sheds_and_recovers() {
        let mut report = ChaosReport::default();
        flood_stage(&mut report).expect("flood stage invariants");
        assert_eq!(report.sheds, FLOOD - FLOOD_LINE);
    }
}
