//! Seeded inputs: the conference database every workload reads, and
//! the process and directory measurements the report records.

use std::path::Path;

use apps::conf;
use apps::conf_vanilla::ConfVanilla;
use jacqueline::{App, Viewer};
use microdb::Value;

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a61_6371_7065_7266)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// One conference user as the generator created it.
#[derive(Clone, Debug)]
pub struct User {
    pub jid: i64,
    pub level: &'static str,
    pub email: String,
}

impl User {
    /// Whether the email policy lets this user see every email.
    pub fn is_chair(&self) -> bool {
        self.level == "chair"
    }
}

/// A conference database, built identically in Jacqueline and in the
/// hand-coded baseline.
pub struct Conference {
    pub app: App,
    pub vanilla: ConfVanilla,
    pub users: Vec<User>,
    pub papers: Vec<i64>,
}

/// `n_users` users (the first is the chair, every tenth a PC member)
/// and `n_papers` papers with one review each; authors and reviewers
/// drawn from `seed`. The review phase is on, so titles, authors and
/// emails are all policy-protected.
pub fn conference(n_users: usize, n_papers: usize, seed: u64) -> Conference {
    let mut rng = Rng::new(seed);
    let mut app = App::new();
    conf::register(&mut app).expect("register the conference models");
    conf::set_phase(&app, conf::PHASE_REVIEW).expect("set the phase");
    let mut vanilla = ConfVanilla::new();
    vanilla.set_phase(conf::PHASE_REVIEW);
    let mut users = Vec::with_capacity(n_users);
    for i in 0..n_users.max(2) {
        let level = match i {
            0 => "chair",
            _ if i % 10 == 1 => "pc",
            _ => "normal",
        };
        let email = format!("user{i}@example.org");
        let row = vec![
            Value::from(format!("user{i}")),
            Value::from(level),
            Value::from(format!("org{}", i % 7)),
            Value::from(email.as_str()),
        ];
        let jid = app
            .create("user_profile", row.clone())
            .expect("create a user");
        let vid = vanilla
            .db
            .insert("user_profile", row)
            .expect("insert a user");
        assert_eq!(jid, vid, "the two databases must line up");
        users.push(User { jid, level, email });
    }
    let mut papers = Vec::with_capacity(n_papers);
    for i in 0..n_papers {
        let author = Viewer::User(users[rng.below(users.len())].jid);
        let title = format!("Paper {i}: faceted systems");
        let pj = conf::submit_paper(&app, &author, &title).expect("create a paper");
        let pv = vanilla.submit_paper(&author, &title);
        assert_eq!(pj, pv, "the two databases must line up");
        papers.push(pj);
        let reviewer = Viewer::User(users[rng.below(users.len())].jid);
        let score = (i % 5) as i64;
        conf::submit_review(&app, &reviewer, pj, score, "fine").expect("create a review");
        vanilla.submit_review(&reviewer, pv, score, "fine");
    }
    Conference {
        app,
        vanilla,
        users,
        papers,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Physical rows across every model table of `app`.
pub fn physical_rows(app: &App) -> usize {
    app.model_names()
        .iter()
        .map(|m| app.db.physical_rows(m).unwrap_or(0))
        .sum()
}

/// Interned facet nodes and computed-table counters, summed over the
/// leaf types the framework facets.
#[derive(Clone, Copy, Debug, Default)]
pub struct Facets {
    pub nodes: f64,
    pub memo_hits: f64,
    pub memo_misses: f64,
}

pub fn facets() -> Facets {
    let all = [
        faceted::intern_stats::<Option<microdb::Row>>(),
        faceted::intern_stats::<bool>(),
        faceted::intern_stats::<Value>(),
        faceted::intern_stats::<i64>(),
        faceted::intern_stats::<String>(),
    ];
    let mut f = Facets::default();
    for s in all {
        f.nodes += (s.leaves + s.splits) as f64;
        f.memo_hits += s.memo_hits as f64;
        f.memo_misses += s.memo_misses as f64;
    }
    f
}

/// Decode-cache counters of `apps`, summed.
pub fn decode_stats(apps: &[&App]) -> (f64, f64, f64) {
    apps.iter().fold((0.0, 0.0, 0.0), |acc, app| {
        let s = app.db.decode_cache_stats();
        (
            acc.0 + s.hits as f64,
            acc.1 + s.misses as f64,
            acc.2 + s.delta_applies as f64,
        )
    })
}

/// A fresh, empty directory.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}
