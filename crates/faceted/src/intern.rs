//! The hash-consed node store behind [`Faceted`].
//!
//! Faceted values used to be ad-hoc `Rc` trees: canonical by
//! construction, but re-canonicalized with `O(size)` structural
//! equality on every operation and pinned to a single thread. This
//! module replaces that representation with the architecture of a
//! production BDD package:
//!
//! * **Unique table** — every canonical node (leaf or split) is
//!   interned exactly once per process, so two faceted values are
//!   semantically equal *iff* they share the same node; `PartialEq`
//!   degenerates to an id comparison and identical sub-computations
//!   share storage automatically.
//! * **Computed tables** — the results of the canonicalizing
//!   operations (`ite`, `assume`) are memoized on node ids, turning
//!   the worst-case exponential re-canonicalization walks into cache
//!   hits whenever facet trees share structure (which hash-consing
//!   makes pervasive: a faceted row count over `n` guarded rows
//!   collapses from a `2^n`-leaf tree to an `O(n²)`-node DAG). A
//!   third table memoizes [`Faceted::map_memo`](crate::Faceted::map_memo)
//!   across calls — e.g. projecting one field of a stored object, which
//!   policies do on every request.
//! * **Thread safety** — the store is sharded behind reader-writer
//!   locks, so `Faceted<T>` is `Send + Sync` and the
//!   concurrent request executor in the `jacqueline` crate can share
//!   faceted state across worker threads.
//!
//! One store exists per leaf type `T` (keyed by `TypeId`); stores live
//! for the lifetime of the process. Memoization can be toggled with
//! [`set_memoization`] (used by the `experiments` harness to measure
//! its effect) and per-type statistics are available via
//! [`intern_stats`]. [`collect_garbage`] drops nodes no longer
//! referenced outside the store.

use std::any::{Any, TypeId};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockWriteGuard};

use crate::idhash::{IdBuildHasher, IdHashMap};
use crate::label::Label;
use crate::value::{Faceted, Node, NodeKind};

/// The bounds a leaf type must satisfy to live in a faceted value.
///
/// Hash-consing needs `Eq + Hash` to intern leaves, and the shared
/// store needs `Send + Sync + 'static` so faceted values can cross
/// threads. The trait is blanket-implemented; you never implement it
/// by hand.
pub trait Facet: Clone + Eq + Hash + Send + Sync + 'static {}

impl<T: Clone + Eq + Hash + Send + Sync + 'static> Facet for T {}

/// Number of independently locked shards per store. A small power of
/// two: enough to keep executor worker threads from serializing on
/// one lock, small enough that `collect_garbage` can hold every shard.
const SHARD_COUNT: usize = 16;

/// Process-wide allocator for node ids (shared across all leaf types;
/// uniqueness is all that matters).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Global switch for the computed tables (the unique table is *not*
/// optional — correctness of pointer equality depends on it).
static MEMO_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables operation memoization (the `ite`, `assume` and
/// `map` computed tables). Interning itself always stays on. Returns the previous
/// setting. Intended for benchmarking the memo contribution, not for
/// production use.
pub fn set_memoization(enabled: bool) -> bool {
    MEMO_ENABLED.swap(enabled, Ordering::Relaxed)
}

/// Whether operation memoization is currently enabled.
#[must_use]
pub fn memoization_enabled() -> bool {
    MEMO_ENABLED.load(Ordering::Relaxed)
}

/// Counters describing one leaf type's node store.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct interned leaves.
    pub leaves: usize,
    /// Distinct interned split nodes.
    pub splits: usize,
    /// Entries currently held by the `ite`/`assume`/`map` computed
    /// tables.
    pub memo_entries: usize,
    /// Computed-table hits since process start.
    pub memo_hits: u64,
    /// Computed-table misses since process start.
    pub memo_misses: u64,
}

/// Statistics for the store of leaf type `T`.
#[must_use]
pub fn intern_stats<T: Facet>() -> InternStats {
    let store = store_of::<T>();
    let mut stats = InternStats {
        memo_hits: store.memo_hits.load(Ordering::Relaxed),
        memo_misses: store.memo_misses.load(Ordering::Relaxed),
        ..InternStats::default()
    };
    for shard in &store.shards {
        let s = shard.read().expect("faceted store poisoned");
        stats.leaves += s.leaves.len();
        stats.splits += s.splits.len();
        stats.memo_entries += s.ite.len() + s.assume.len() + s.maps.len();
    }
    stats
}

/// Drops every node of leaf type `T` that is no longer referenced by
/// any live [`Faceted`] value, clearing the computed tables first
/// (they pin nodes). Returns the number of nodes reclaimed.
///
/// This is the explicit-GC model of classic BDD packages: callers
/// with long-lived processes (e.g. a request executor between load
/// phases) invoke it at quiescent points.
pub fn collect_garbage<T: Facet>() -> usize {
    let store = store_of::<T>();
    // Hold every shard for the whole sweep so no thread can re-intern
    // a node we are about to drop.
    let mut guards: Vec<RwLockWriteGuard<'_, Shard<T>>> = store
        .shards
        .iter()
        .map(|s| s.write().expect("faceted store poisoned"))
        .collect();
    for g in &mut guards {
        g.ite.clear();
        g.assume.clear();
        g.maps.clear();
    }
    let mut reclaimed = 0;
    loop {
        let mut dropped = 0;
        for g in &mut guards {
            // A strong count of 1 means the unique table holds the only
            // reference: no external `Faceted` and no parent node (a
            // parent split would hold a second strong reference).
            let before = g.splits.len() + g.leaves.len();
            g.splits.retain(|_, f| Arc::strong_count(&f.0) > 1);
            g.leaves.retain(|f| Arc::strong_count(&f.0 .0) > 1);
            dropped += before - (g.splits.len() + g.leaves.len());
        }
        if dropped == 0 {
            break;
        }
        reclaimed += dropped;
    }
    reclaimed
}

/// Key of the unique table for split nodes and of the `ite` computed
/// table: `(label, high id, low id)`.
type SplitKey = (Label, u64, u64);

/// Key of the `map` computed table: `(input node id, closure type,
/// caller key)`. Node ids are process-wide and never reused, so the
/// input node is identified whatever its leaf type.
pub(crate) type MapKey = (u64, TypeId, u64);

pub(crate) struct Store<T: Facet> {
    shards: Vec<RwLock<Shard<T>>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

/// A leaf node as an entry of the unique table: hashed and compared
/// by its value, and borrowable as it, so the table is probed with a
/// plain `&T` while the value itself is stored once, inside the node.
struct LeafEntry<T: Facet>(Faceted<T>);

impl<T: Facet> LeafEntry<T> {
    fn value(&self) -> &T {
        self.0.as_leaf().expect("the leaf table holds only leaves")
    }
}

impl<T: Facet> Borrow<T> for LeafEntry<T> {
    fn borrow(&self) -> &T {
        self.value()
    }
}

impl<T: Facet> PartialEq for LeafEntry<T> {
    fn eq(&self, other: &LeafEntry<T>) -> bool {
        self.value() == other.value()
    }
}

impl<T: Facet> Eq for LeafEntry<T> {}

impl<T: Facet> Hash for LeafEntry<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.value().hash(state);
    }
}

/// One shard of a store. Leaves are keyed by values from outside the
/// process (row contents), so their table keeps the HashDoS-resistant
/// default hasher; every other table is keyed by labels and node ids
/// the process mints itself and uses the cheap [`IdHasher`](crate::IdHasher).
struct Shard<T: Facet> {
    /// Unique table, leaf nodes.
    leaves: HashSet<LeafEntry<T>>,
    /// Unique table, split nodes.
    splits: IdHashMap<SplitKey, Faceted<T>>,
    /// Computed table for `ite`.
    ite: IdHashMap<SplitKey, Faceted<T>>,
    /// Computed table for `assume`: `(node, label, polarity)`.
    assume: IdHashMap<(u64, Label, bool), Faceted<T>>,
    /// Computed table for `map_memo`, holding results of this store's
    /// leaf type.
    maps: IdHashMap<MapKey, Faceted<T>>,
}

impl<T: Facet> Default for Shard<T> {
    fn default() -> Shard<T> {
        Shard {
            leaves: HashSet::new(),
            splits: IdHashMap::default(),
            ite: IdHashMap::default(),
            assume: IdHashMap::default(),
            maps: IdHashMap::default(),
        }
    }
}

/// The shard of a leaf value (SipHash, like the leaf table itself).
fn leaf_shard<K: Hash>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARD_COUNT
}

/// The shard of an id-keyed entry. Bits 32–35 of the hash: the shard
/// map itself buckets by the low bits and tags by the top seven, so
/// these stay independent of both.
fn id_shard<K: Hash>(key: &K) -> usize {
    (IdBuildHasher::default().hash_one(key) >> 32) as usize % SHARD_COUNT
}

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

impl<T: Facet> Store<T> {
    fn new() -> Store<T> {
        Store {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }

    /// Interns a leaf, returning the canonical node for `value`.
    pub(crate) fn leaf(&self, value: T) -> Faceted<T> {
        self.intern_leaf(value, |v| v)
    }

    /// [`Store::leaf`] by reference: clones `value` only on a miss.
    pub(crate) fn leaf_ref(&self, value: &T) -> Faceted<T> {
        self.intern_leaf(value, T::clone)
    }

    /// The canonical leaf equal to `value`, interning `own(value)` if
    /// there is none yet.
    fn intern_leaf<V: Borrow<T>>(&self, value: V, own: impl FnOnce(V) -> T) -> Faceted<T> {
        let shard = &self.shards[leaf_shard(value.borrow())];
        if let Some(hit) = shard
            .read()
            .expect("faceted store poisoned")
            .leaves
            .get(value.borrow())
        {
            return hit.0.clone();
        }
        let mut s = shard.write().expect("faceted store poisoned");
        if let Some(hit) = s.leaves.get(value.borrow()) {
            return hit.0.clone();
        }
        let node = Faceted(Arc::new(Node {
            id: fresh_id(),
            kind: NodeKind::Leaf(own(value)),
        }));
        s.leaves.insert(LeafEntry(node.clone()));
        node
    }

    /// Interns a split node. Callers guarantee canonical preconditions:
    /// `high != low` and `label` strictly below every label in either
    /// child.
    pub(crate) fn split(&self, label: Label, high: &Faceted<T>, low: &Faceted<T>) -> Faceted<T> {
        debug_assert!(high != low, "canonical splits have distinct children");
        let key: SplitKey = (label, high.node_id(), low.node_id());
        let shard = &self.shards[id_shard(&key)];
        if let Some(hit) = shard
            .read()
            .expect("faceted store poisoned")
            .splits
            .get(&key)
        {
            return hit.clone();
        }
        let mut s = shard.write().expect("faceted store poisoned");
        if let Some(hit) = s.splits.get(&key) {
            return hit.clone();
        }
        let node = Faceted(Arc::new(Node {
            id: fresh_id(),
            kind: NodeKind::Split {
                label,
                high: high.clone(),
                low: low.clone(),
            },
        }));
        s.splits.insert(key, node.clone());
        node
    }

    pub(crate) fn ite_cached(&self, key: SplitKey) -> Option<Faceted<T>> {
        self.cached(&key, |s| &s.ite)
    }

    pub(crate) fn ite_insert(&self, key: SplitKey, value: Faceted<T>) {
        self.remember(key, value, |s| &mut s.ite);
    }

    pub(crate) fn assume_cached(&self, key: (u64, Label, bool)) -> Option<Faceted<T>> {
        self.cached(&key, |s| &s.assume)
    }

    pub(crate) fn assume_insert(&self, key: (u64, Label, bool), value: Faceted<T>) {
        self.remember(key, value, |s| &mut s.assume);
    }

    pub(crate) fn map_cached(&self, key: MapKey) -> Option<Faceted<T>> {
        self.cached(&key, |s| &s.maps)
    }

    pub(crate) fn map_insert(&self, key: MapKey, value: Faceted<T>) {
        self.remember(key, value, |s| &mut s.maps);
    }

    /// Probes one computed table (counted as a hit or a miss); `None`
    /// without a probe while memoization is off.
    fn cached<K: Hash + Eq>(
        &self,
        key: &K,
        table: impl Fn(&Shard<T>) -> &IdHashMap<K, Faceted<T>>,
    ) -> Option<Faceted<T>> {
        if !memoization_enabled() {
            return None;
        }
        let shard = self.shards[id_shard(key)]
            .read()
            .expect("faceted store poisoned");
        let hit = table(&shard).get(key).cloned();
        self.count(hit.is_some());
        hit
    }

    /// Stores a result in one computed table (nothing while
    /// memoization is off).
    fn remember<K: Hash + Eq>(
        &self,
        key: K,
        value: Faceted<T>,
        table: impl Fn(&mut Shard<T>) -> &mut IdHashMap<K, Faceted<T>>,
    ) {
        if !memoization_enabled() {
            return;
        }
        let mut shard = self.shards[id_shard(&key)]
            .write()
            .expect("faceted store poisoned");
        table(&mut shard).insert(key, value);
    }

    fn count(&self, hit: bool) {
        if hit {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.memo_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A registered store, type-erased. Stores are leaked on creation:
/// they live for the rest of the process anyway, and a `'static`
/// reference lets callers skip reference counting.
type AnyStore = &'static (dyn Any + Send + Sync);

/// The per-process registry of stores, one per leaf type.
static STORES: OnceLock<RwLock<HashMap<TypeId, AnyStore>>> = OnceLock::new();

thread_local! {
    /// This thread's view of [`STORES`]: the stores it has touched.
    /// Holds a handful of entries (one per leaf type in use), so a
    /// linear scan beats hashing, and it needs no lock.
    static LOCAL_STORES: RefCell<Vec<(TypeId, AnyStore)>> = const { RefCell::new(Vec::new()) };
}

/// The (lazily created) store for leaf type `T`.
///
/// Every faceted constructor calls this, so the hot path is a scan of
/// the calling thread's own cache; the global registry (and its lock)
/// is consulted only on a thread's first touch of a leaf type.
pub(crate) fn store_of<T: Facet>() -> &'static Store<T> {
    let id = TypeId::of::<T>();
    let store = LOCAL_STORES.with(|local| {
        if let Some(&(_, store)) = local.borrow().iter().find(|(t, _)| *t == id) {
            return store;
        }
        let store = registered_store::<T>();
        local.borrow_mut().push((id, store));
        store
    });
    store
        .downcast_ref::<Store<T>>()
        .expect("store registered under its own TypeId")
}

/// The registry's store for `T`, created on the first call from any
/// thread.
fn registered_store<T: Facet>() -> AnyStore {
    let registry = STORES.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(&store) = registry
        .read()
        .expect("faceted store registry poisoned")
        .get(&TypeId::of::<T>())
    {
        return store;
    }
    *registry
        .write()
        .expect("faceted store registry poisoned")
        .entry(TypeId::of::<T>())
        .or_insert_with(|| Box::leak(Box::new(Store::<T>::new())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_leaves_are_shared() {
        let a = Faceted::leaf(417_i32);
        let b = Faceted::leaf(417_i32);
        assert_eq!(a.node_id(), b.node_id());
        assert_ne!(a.node_id(), Faceted::leaf(418_i32).node_id());
    }

    #[test]
    fn stats_track_interning() {
        let _ = Faceted::leaf("intern-stats-probe");
        let s = intern_stats::<&'static str>();
        assert!(s.leaves >= 1);
    }

    #[test]
    fn memo_toggle_round_trips() {
        let was = set_memoization(false);
        assert!(!memoization_enabled());
        set_memoization(was);
        assert_eq!(memoization_enabled(), was);
    }

    #[test]
    fn garbage_collection_reclaims_dead_nodes() {
        // A dedicated leaf type so other tests cannot pin our nodes.
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct GcProbe(u64);
        {
            let _v = Faceted::split(
                Label::from_index(0),
                Faceted::leaf(GcProbe(1)),
                Faceted::leaf(GcProbe(2)),
            );
            assert!(intern_stats::<GcProbe>().leaves >= 2);
        }
        let reclaimed = collect_garbage::<GcProbe>();
        assert!(reclaimed >= 3, "two leaves and a split were dead");
        assert_eq!(intern_stats::<GcProbe>().leaves, 0);
    }

    #[test]
    fn first_touch_race_yields_one_store() {
        // A leaf type no other test touches, so every thread below
        // meets its store for the first time at the barrier.
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct RaceProbe(u64);
        const THREADS: usize = 8;
        const LEAVES: u64 = 32;
        let barrier = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<Vec<Faceted<RaceProbe>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        (0..LEAVES)
                            .map(|i| Faceted::leaf(RaceProbe(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let ids = |values: &[Faceted<RaceProbe>]| -> Vec<u64> {
            values.iter().map(Faceted::node_id).collect()
        };
        for values in &per_thread[1..] {
            assert_eq!(
                ids(values),
                ids(&per_thread[0]),
                "threads agree on node ids"
            );
        }
        // Threads that never built a RaceProbe see the same store.
        let stats = std::thread::spawn(intern_stats::<RaceProbe>)
            .join()
            .unwrap();
        assert_eq!(stats.leaves as u64, LEAVES);
        assert_eq!(
            std::thread::spawn(collect_garbage::<RaceProbe>)
                .join()
                .unwrap(),
            0
        );
        drop(per_thread);
        let reclaimed = std::thread::spawn(collect_garbage::<RaceProbe>)
            .join()
            .unwrap();
        assert_eq!(reclaimed as u64, LEAVES);
        assert_eq!(intern_stats::<RaceProbe>().leaves, 0);
    }
}
