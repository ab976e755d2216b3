//! A generation-validated cache of fully rendered [`Response`]s: the
//! executor serves hot pages as **byte hits** instead of re-running
//! decode, policy resolution, and page assembly per request.
//!
//! PR 6 made decode-cache repair O(1), which left *rendering* — label
//! resolution plus page assembly — the dominant per-request cost on
//! every read route. This module closes that gap with the same
//! validate-on-read discipline the decode cache uses, one level up:
//!
//! * **Key**: `(path, canonicalized params, viewer)`. The viewer is
//!   part of the key because a rendered page *is* a policy-resolved
//!   projection — serving one viewer's bytes to another would leak
//!   exactly what the faceted runtime exists to protect (the LWeb
//!   argument: label-based enforcement must survive caching).
//! * **Stamp**: the generation vector of the route's declared
//!   footprint tables, in the footprint's canonical table order (so
//!   it names no table), captured at render time **while the
//!   executor still holds the route's shared footprint locks** — a
//!   writer cannot slip between render and stamp, so a stored entry's
//!   vector is exactly the state its bytes were rendered from.
//! * **Validation**: lookup compares the stored vector against live
//!   [`microdb`] table generations. Any mismatch removes the entry
//!   and hands its carcass back to the executor, which either
//!   *repairs* it from the write journal (below) or discards it
//!   (counted in [`RenderCacheStats::invalidated`]) and falls through
//!   to a fresh render. There is no push invalidation to get wrong —
//!   and because no-op writes are generation-silent, a write that
//!   changes nothing leaves every entry valid.
//! * **Repair**: routes that register a fragment renderer
//!   ([`Router::route_fragments`](crate::Router::route_fragments))
//!   have their pages stored with a [`FragmentedPage`] — 16-byte
//!   spans, one per object jid, into the entry's single body buffer,
//!   so a page's bytes are kept once. On a generation mismatch where
//!   the fragment table is the *only* mover, the executor pulls the
//!   table's `deltas_since(stamped_gen)` journal, re-renders only the
//!   fragments whose jids the deltas touch (full faceted projection
//!   under the entry's viewer — no bytes are spliced that didn't pass
//!   policy enforcement), copies every untouched fragment's span out
//!   of the old body, and restamps the generation vector. A
//!   single-row write thus repairs a hot page at O(1) fragment cost
//!   instead of invalidating every viewer's copy. Window overflow,
//!   movement of any *other* footprint table, or any decomposition
//!   mismatch falls back to the full re-render — correctness never
//!   depends on the journal, exactly like the decode cache's
//!   delta-maintenance contract.
//!
//! Only routes with a *declared* footprint are cacheable: a
//! footprint-less read route gives the cache no table set to stamp,
//! so it is counted ([`RenderCacheStats::uncacheable`]) and rendered
//! normally. Only plain `200` responses with no extra headers are
//! stored — anything setting cookies or error statuses always
//! re-renders.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

use crate::http::{Footprint, Response};
use crate::model::Viewer;

/// Number of independently locked shards. Lookups on different shards
/// never contend; 16 is plenty for the executor's worker counts.
const SHARDS: usize = 16;

/// Per-shard entry cap. The cache is bounded at `SHARDS * SHARD_CAP`
/// entries total; a full shard evicts an arbitrary resident entry
/// (validate-on-read makes eviction purely a performance decision,
/// never a correctness one).
const SHARD_CAP: usize = 512;

/// How one request interacted with the render cache — exported by the
/// HTTP server as the `X-Render-Cache` response header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RenderCacheStatus {
    /// Served from cached bytes; no controller ran.
    Hit,
    /// Rendered and stored (or at least render-cache-eligible).
    Miss,
    /// A stale entry was repaired in place from the write journal:
    /// only the touched fragments re-rendered, every untouched
    /// fragment's bytes were copied from the stored body.
    Repair,
    /// Not eligible: cache disabled, write route, footprint-less read
    /// route, or unknown path.
    Bypass,
}

impl RenderCacheStatus {
    /// The wire form: `hit` / `miss` / `repair` / `bypass`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RenderCacheStatus::Hit => "hit",
            RenderCacheStatus::Miss => "miss",
            RenderCacheStatus::Repair => "repair",
            RenderCacheStatus::Bypass => "bypass",
        }
    }
}

/// Counters since construction (diagnostics; `admin/health` reports
/// them and tests pin exact counts of them).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RenderCacheStats {
    /// Requests served from cached bytes.
    pub hits: u64,
    /// Cacheable requests that had to render (cold key, or a stale
    /// entry that could not be repaired).
    pub misses: u64,
    /// Stale entries repaired in place from the write journal instead
    /// of being discarded.
    pub repairs: u64,
    /// Individual fragments re-rendered across all repairs — the O(1)
    /// claim in numbers: one single-row write to a thousand-row page
    /// should add one here, not a thousand.
    pub repaired_fragments: u64,
    /// Entries dropped because a footprint table's generation moved
    /// and repair was not possible.
    pub invalidated: u64,
    /// Requests on footprint-less read routes, which cannot be
    /// stamped and are never cached.
    pub uncacheable: u64,
}

/// The cache key: one rendered page for one viewer. Params arrive
/// canonicalized (route-registered hook, see
/// [`Router::canonicalize_params`](crate::Router::canonicalize_params))
/// and sorted, so equivalent requests collide onto one entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RenderKey {
    pub(crate) path: String,
    pub(crate) params: Vec<(String, String)>,
    pub(crate) viewer: Viewer,
}

/// The fragment decomposition of a cached page, as byte offsets into
/// the entry's one body buffer: the prefix ends at `start`, each
/// object's fragment runs from the previous fragment's end (or
/// `start`) to its own `end`, in first-appearance row order, and the
/// suffix is whatever follows the last span. Stored only for routes
/// that registered a fragment renderer, and only when the page was
/// assembled from those fragments — so copying untouched spans next to
/// repaired fragments can never produce bytes a full render would not.
/// A page longer than `u32::MAX` bytes keeps no decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FragmentedPage {
    /// The table whose rows the fragments decompose (the journal the
    /// repair path replays).
    pub(crate) table: String,
    /// End of the prefix: where the first fragment starts.
    pub(crate) start: u32,
    /// `(jid, end offset)` in page order. An object the entry's viewer
    /// cannot see has an empty span.
    pub(crate) spans: Vec<(i64, u32)>,
}

impl FragmentedPage {
    /// Every fragment's `(jid, byte range)` in page order.
    pub(crate) fn fragments(&self) -> impl Iterator<Item = (i64, Range<usize>)> + '_ {
        let mut from = self.start as usize;
        self.spans.iter().map(move |&(jid, end)| {
            let range = from..end as usize;
            from = range.end;
            (jid, range)
        })
    }
}

/// A stored page: the body bytes, once, plus the footprint-table
/// generations they were rendered under and — for fragment-registered
/// routes — the spans the repair path copies from. Only plain `200`s
/// without headers are stored, so a hit rebuilds its [`Response`] from
/// the body alone.
struct Entry {
    generations: Box<[u64]>,
    body: String,
    fragments: Option<FragmentedPage>,
}

/// A stale entry, already removed from the cache, handed to the
/// executor for a repair attempt. Counting is deferred until the
/// attempt resolves: [`RenderCache::note_repaired`] on success,
/// [`RenderCache::note_invalidated`] on fallback.
pub(crate) struct StaleEntry {
    /// The generation vector the bytes were rendered under, one per
    /// table in [`Footprint::tables`] order.
    pub(crate) generations: Box<[u64]>,
    /// The stored body the spans index into.
    pub(crate) body: String,
    /// The stored decomposition, if the entry was fragmented.
    pub(crate) fragments: Option<FragmentedPage>,
}

/// The three-way outcome of a cache probe.
pub(crate) enum Lookup {
    /// A valid entry: serve these bytes.
    Hit(Response),
    /// A stale entry, removed from the map: try to repair it, else
    /// render in full.
    Stale(StaleEntry),
    /// No entry: render in full.
    Cold,
}

/// The bounded, sharded render cache. Owned by the
/// [`App`](crate::App); consulted by the executor after footprint-lock
/// acquisition.
pub(crate) struct RenderCache {
    enabled: AtomicBool,
    fragments_enabled: AtomicBool,
    hasher: RandomState,
    shards: Vec<RwLock<HashMap<RenderKey, Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    repairs: AtomicU64,
    repaired_fragments: AtomicU64,
    invalidated: AtomicU64,
    uncacheable: AtomicU64,
}

impl RenderCache {
    pub(crate) fn new() -> RenderCache {
        RenderCache {
            enabled: AtomicBool::new(true),
            fragments_enabled: AtomicBool::new(true),
            hasher: RandomState::new(),
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            repaired_fragments: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Switches the cache on or off (the uncached reference arm of the
    /// differential grids). Returns the previous setting. Disabling
    /// drops every stored page.
    pub(crate) fn set_enabled(&self, enabled: bool) -> bool {
        let was = self.enabled.swap(enabled, Ordering::AcqRel);
        if !enabled {
            for shard in &self.shards {
                shard.write().expect("render cache shard").clear();
            }
        }
        was
    }

    /// Whether stale entries may be stored fragmented and repaired
    /// from the write journal (off in the no-repair reference arm).
    pub(crate) fn fragments_enabled(&self) -> bool {
        self.fragments_enabled.load(Ordering::Acquire)
    }

    /// Switches fragment repair on or off; returns the previous
    /// setting. Disabling reverts to PR 7 behavior — stale entries
    /// are always discarded — without touching stored pages (their
    /// decompositions simply stop being consulted).
    pub(crate) fn set_fragments_enabled(&self, enabled: bool) -> bool {
        self.fragments_enabled.swap(enabled, Ordering::AcqRel)
    }

    pub(crate) fn stats(&self) -> RenderCacheStats {
        RenderCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            repaired_fragments: self.repaired_fragments.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
        }
    }

    /// Records a request on a footprint-less read route — the
    /// "uncacheable: count them, don't cache them" rule.
    pub(crate) fn note_uncacheable(&self) {
        self.uncacheable.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a [`Lookup::Stale`] probe as *discarded*: the entry
    /// could not be repaired, the request renders in full. Counted
    /// exactly like the pre-repair cache did — one invalidation plus
    /// the miss the re-render is.
    pub(crate) fn note_invalidated(&self) {
        self.invalidated.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a [`Lookup::Stale`] probe as *repaired*, with the
    /// number of fragments that had to re-render.
    pub(crate) fn note_repaired(&self, fragments: u64) {
        self.repairs.fetch_add(1, Ordering::Relaxed);
        self.repaired_fragments
            .fetch_add(fragments, Ordering::Relaxed);
    }

    fn shard(&self, key: &RenderKey) -> &RwLock<HashMap<RenderKey, Entry>> {
        &self.shards[(self.hasher.hash_one(key) as usize) % SHARDS]
    }

    /// Looks up `key`, validating the stored generation vector against
    /// `live` over the route footprint's tables (a closure over the
    /// live database; `None` means the table is gone, which also
    /// invalidates, as does a vector of the wrong length). A valid
    /// entry returns its bytes ([`Lookup::Hit`], counted); a missing
    /// entry is a counted [`Lookup::Cold`]. A *stale* entry is removed
    /// from the map and handed back **uncounted** — the caller
    /// resolves it via [`RenderCache::note_repaired`] or
    /// [`RenderCache::note_invalidated`] once the repair attempt
    /// settles.
    pub(crate) fn lookup(
        &self,
        key: &RenderKey,
        footprint: &Footprint,
        live: impl Fn(&str) -> Option<u64>,
    ) -> Lookup {
        let shard = self.shard(key);
        {
            let map = shard.read().expect("render cache shard");
            match map.get(key) {
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Cold;
                }
                Some(entry) => {
                    let mut tables = footprint.tables();
                    let valid = entry
                        .generations
                        .iter()
                        .all(|gen| tables.next().and_then(&live) == Some(*gen))
                        && tables.next().is_none();
                    if valid {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Lookup::Hit(Response::ok(entry.body.clone()));
                    }
                }
            }
        }
        match shard.write().expect("render cache shard").remove(key) {
            Some(entry) => Lookup::Stale(StaleEntry {
                generations: entry.generations,
                body: entry.body,
                fragments: entry.fragments,
            }),
            // Another worker took the stale entry between our read and
            // write locks; for this request the probe was simply cold.
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Cold
            }
        }
    }

    /// Stores a rendered page under the generation vector observed at
    /// render time, with an optional fragment decomposition for the
    /// repair path (dropped while fragments are disabled). Only plain
    /// `200` responses with no extra headers are cacheable — errors
    /// and cookie-setting responses always re-render. A full shard
    /// evicts an arbitrary resident entry.
    pub(crate) fn store(
        &self,
        key: RenderKey,
        generations: Box<[u64]>,
        response: &Response,
        fragments: Option<FragmentedPage>,
    ) {
        if response.status != 200 || !response.headers.is_empty() {
            return;
        }
        let fragments = if self.fragments_enabled() {
            fragments
        } else {
            None
        };
        let shard = self.shard(&key);
        let mut map = shard.write().expect("render cache shard");
        if map.len() >= SHARD_CAP && !map.contains_key(&key) {
            if let Some(evict) = map.keys().next().cloned() {
                map.remove(&evict);
            }
        }
        map.insert(
            key,
            Entry {
                generations,
                body: response.body.clone(),
                fragments,
            },
        );
    }

    /// Resident entries across all shards (test hook).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("render cache shard").len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(path: &str, viewer: Viewer) -> RenderKey {
        RenderKey {
            path: path.to_owned(),
            params: Vec::new(),
            viewer,
        }
    }

    /// A stamp over one table, `paper` at generation `gen`.
    fn gens(gen: u64) -> Box<[u64]> {
        Box::new([gen])
    }

    fn paper() -> Footprint {
        Footprint::reads(&["paper"])
    }

    fn as_hit(probe: Lookup) -> Option<Response> {
        match probe {
            Lookup::Hit(response) => Some(response),
            Lookup::Stale(_) | Lookup::Cold => None,
        }
    }

    /// A page of `fragments` under the `== P ==` prefix and an
    /// empty suffix: the body and its decomposition.
    fn page(table: &str, fragments: &[(i64, &str)]) -> (Response, FragmentedPage) {
        let mut body = "== P ==\n".to_owned();
        let start = body.len() as u32;
        let spans = fragments
            .iter()
            .map(|(jid, f)| {
                body.push_str(f);
                (*jid, body.len() as u32)
            })
            .collect();
        let page = FragmentedPage {
            table: table.to_owned(),
            start,
            spans,
        };
        (Response::ok(body), page)
    }

    #[test]
    fn hit_after_store_while_generations_hold() {
        let cache = RenderCache::new();
        let k = key("papers/all", Viewer::User(1));
        assert!(matches!(
            cache.lookup(&k, &paper(), |_| Some(3)),
            Lookup::Cold
        ));
        cache.store(k.clone(), gens(3), &Response::ok("page".into()), None);
        let hit = as_hit(cache.lookup(&k, &paper(), |_| Some(3))).expect("valid entry hits");
        assert_eq!(hit.body, "page");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidated), (1, 1, 0));
    }

    #[test]
    fn generation_move_invalidates_exactly_once() {
        let cache = RenderCache::new();
        let k = key("papers/all", Viewer::User(1));
        cache.store(k.clone(), gens(3), &Response::ok("old".into()), None);
        let probe = cache.lookup(&k, &paper(), |_| Some(4));
        assert!(matches!(probe, Lookup::Stale(_)), "stale vector");
        assert_eq!(cache.len(), 0, "stale entry removed");
        // A stale probe is uncounted until the caller resolves it.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.invalidated), (0, 0));
        cache.note_invalidated();
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.invalidated), (1, 1));
        // The follow-up miss is a plain cold miss, not another
        // invalidation.
        assert!(matches!(
            cache.lookup(&k, &paper(), |_| Some(4)),
            Lookup::Cold
        ));
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn dropped_table_invalidates() {
        let cache = RenderCache::new();
        let k = key("papers/all", Viewer::Anonymous);
        cache.store(k.clone(), gens(1), &Response::ok("p".into()), None);
        assert!(matches!(
            cache.lookup(&k, &paper(), |_| None),
            Lookup::Stale(_)
        ));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn stale_entries_carry_their_decomposition_out() {
        let cache = RenderCache::new();
        let k = key("papers/all", Viewer::User(1));
        let (body, fragments) = page("paper", &[(1, "a\n"), (2, "b\n")]);
        assert_eq!(body.body, "== P ==\na\nb\n");
        cache.store(k.clone(), gens(3), &body, Some(fragments));
        let Lookup::Stale(stale) = cache.lookup(&k, &paper(), |_| Some(4)) else {
            panic!("stale probe expected");
        };
        assert_eq!(stale.generations, gens(3));
        assert_eq!(
            stale.body, body.body,
            "the old body rides out with its spans"
        );
        let fragments = stale.fragments.expect("decomposition preserved");
        assert_eq!(fragments.table, "paper");
        assert_eq!(fragments.spans.len(), 2);
        cache.note_repaired(1);
        let stats = cache.stats();
        assert_eq!((stats.repairs, stats.repaired_fragments), (1, 1));
        assert_eq!(
            (stats.misses, stats.invalidated),
            (0, 0),
            "a repair is neither a miss nor an invalidation"
        );
    }

    #[test]
    fn disabling_fragments_strips_decompositions_at_store() {
        let cache = RenderCache::new();
        assert!(cache.set_fragments_enabled(false), "was enabled");
        let k = key("papers/all", Viewer::User(1));
        let (body, fragments) = page("paper", &[(1, "p")]);
        cache.store(k.clone(), gens(3), &body, Some(fragments));
        let Lookup::Stale(stale) = cache.lookup(&k, &paper(), |_| Some(4)) else {
            panic!("stale probe expected");
        };
        assert!(
            stale.fragments.is_none(),
            "fragments-off stores plain entries (the full-invalidate arm)"
        );
        assert!(!cache.set_fragments_enabled(true), "was disabled");
    }

    #[test]
    fn stale_spans_reassemble_the_stored_body() {
        let cache = RenderCache::new();
        let k = key("papers/all", Viewer::User(1));
        // Multi-byte text next to an empty (hidden) fragment.
        let (body, fragments) = page("paper", &[(7, "Café — naïve\n"), (3, ""), (9, "z\n")]);
        cache.store(k.clone(), gens(3), &body, Some(fragments));
        let Lookup::Stale(stale) = cache.lookup(&k, &paper(), |_| Some(4)) else {
            panic!("stale probe expected");
        };
        let fragments = stale.fragments.expect("decomposition preserved");
        let old = &stale.body;
        let pieces: Vec<(i64, &str)> = fragments
            .fragments()
            .map(|(jid, range)| (jid, &old[range]))
            .collect();
        assert_eq!(pieces, [(7, "Café — naïve\n"), (3, ""), (9, "z\n")]);
        let prefix = &old[..fragments.start as usize];
        let tail = fragments
            .spans
            .last()
            .map_or(fragments.start, |&(_, end)| end);
        let middle: String = pieces.iter().map(|(_, piece)| *piece).collect();
        assert_eq!(
            format!("{prefix}{middle}{}", &old[tail as usize..]),
            body.body,
            "spans reassemble the body byte for byte"
        );
    }

    #[test]
    fn stale_entry_of_another_footprint_never_validates() {
        let cache = RenderCache::new();
        let k = key("papers/all", Viewer::User(1));
        cache.store(k.clone(), gens(3), &Response::ok("p".into()), None);
        let wider = Footprint::reads(&["paper", "review"]);
        assert!(
            matches!(cache.lookup(&k, &wider, |_| Some(3)), Lookup::Stale(_)),
            "a stamp whose length differs from the footprint is stale"
        );
    }

    #[test]
    fn viewers_never_share_entries() {
        let cache = RenderCache::new();
        let alice = key("papers/all", Viewer::User(1));
        let bob = key("papers/all", Viewer::User(2));
        cache.store(
            alice.clone(),
            gens(1),
            &Response::ok("alice's view".into()),
            None,
        );
        assert!(
            as_hit(cache.lookup(&bob, &paper(), |_| Some(1))).is_none(),
            "a page rendered for one viewer must never serve another"
        );
        assert!(
            as_hit(cache.lookup(&key("papers/all", Viewer::Anonymous), &paper(), |_| Some(1)))
                .is_none()
        );
        let hit = as_hit(cache.lookup(&alice, &paper(), |_| Some(1))).unwrap();
        assert_eq!(hit.body, "alice's view");
    }

    #[test]
    fn params_distinguish_entries() {
        let cache = RenderCache::new();
        let mut one = key("papers/one", Viewer::User(1));
        one.params = vec![("id".to_owned(), "1".to_owned())];
        let mut two = one.clone();
        two.params = vec![("id".to_owned(), "2".to_owned())];
        cache.store(one.clone(), gens(1), &Response::ok("p1".into()), None);
        assert!(as_hit(cache.lookup(&two, &paper(), |_| Some(1))).is_none());
        assert_eq!(
            as_hit(cache.lookup(&one, &paper(), |_| Some(1)))
                .unwrap()
                .body,
            "p1"
        );
    }

    #[test]
    fn only_plain_200_responses_are_stored() {
        let cache = RenderCache::new();
        let k = key("x", Viewer::Anonymous);
        cache.store(k.clone(), Box::default(), &Response::not_found(), None);
        cache.store(k.clone(), Box::default(), &Response::forbidden("no"), None);
        cache.store(
            k.clone(),
            Box::default(),
            &Response::ok("s".into()).with_header("Set-Cookie", "session=x"),
            None,
        );
        assert_eq!(cache.len(), 0, "errors and cookie-setters never cached");
        cache.store(
            k.clone(),
            Box::default(),
            &Response::ok("plain".into()),
            None,
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disable_clears_and_reports_previous_setting() {
        let cache = RenderCache::new();
        let k = key("papers/all", Viewer::User(1));
        cache.store(k.clone(), gens(1), &Response::ok("p".into()), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.set_enabled(false), "was enabled");
        assert_eq!(cache.len(), 0, "disable drops stored pages");
        assert!(!cache.set_enabled(true), "was disabled");
    }

    #[test]
    fn shard_cap_bounds_residency() {
        let cache = RenderCache::new();
        for i in 0..(SHARDS * SHARD_CAP * 2) {
            cache.store(
                key(&format!("page/{i}"), Viewer::Anonymous),
                gens(1),
                &Response::ok(i.to_string()),
                None,
            );
        }
        assert!(
            cache.len() <= SHARDS * SHARD_CAP,
            "cache must stay bounded, holds {}",
            cache.len()
        );
    }

    #[test]
    fn status_wire_forms() {
        assert_eq!(RenderCacheStatus::Hit.as_str(), "hit");
        assert_eq!(RenderCacheStatus::Miss.as_str(), "miss");
        assert_eq!(RenderCacheStatus::Repair.as_str(), "repair");
        assert_eq!(RenderCacheStatus::Bypass.as_str(), "bypass");
    }
}
