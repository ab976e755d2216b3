//! The faceted database handle: meta-data management, marshalling,
//! faceted queries, guarded writes, Early Pruning, and the
//! generation-stamped decode cache.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use faceted::{Branches, FacetedList, IdHashMap, Label, LabelRegistry};
use microdb::{
    ColumnDef, ColumnType, CreateMeta, Database, Operand, Predicate, Query, Row, RowDelta, Schema,
    SortOrder, Statement, Table, Value,
};

use crate::error::{FormError, FormResult};
use crate::meta::{encode_jvars, parse_jvars, JID, JVARS};
use crate::object::{flatten_object, rebuild_rows, FacetedObject, GuardedRow};

/// Hit/miss counters of the decode cache (diagnostics; tests pin
/// exact counts of them).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Queries served from an already-decoded table snapshot.
    pub hits: u64,
    /// Queries that had to unmarshal (cold table or stale generation
    /// past the journal window).
    pub misses: u64,
    /// Stale slots repaired in place from the table's change journal
    /// (each avoided a full-table re-decode).
    pub delta_applies: u64,
}

/// One cached decoded table, valid exactly while the table's write
/// stamp still equals `generation`. Two independent layers:
///
/// * `rows` — the unmarshalled guarded rows of every physical row,
///   aligned with physical row order (populated by the first query of
///   any shape — selective ones only while delta maintenance is on —
///   and `None` until then);
/// * `objects` — facet DAGs of objects already rebuilt at this
///   generation ([`FormDb::get`] memoizes per `jid`; facet DAGs are
///   hash-consed, so the cached clones are O(1)).
#[derive(Clone, Debug, Default)]
struct DecodedTable {
    generation: u64,
    rows: Option<FacetedList<GuardedRow>>,
    objects: IdHashMap<i64, FacetedObject>,
}

/// What [`FormDb::probe_object`] found in a current cache slot.
enum ObjectProbe {
    /// The object's memoized facet DAG.
    Built(FacetedObject),
    /// No DAG yet, but the decoded snapshot of the object's table.
    Unbuilt(FacetedList<GuardedRow>),
    /// Neither: the slot is missing, stale, or holds no snapshot.
    Stale,
}

/// A decoded row as rebuild input: its guard and its interned leaf.
fn leaf_of(row: &GuardedRow) -> (&Branches, &FacetedObject) {
    (&row.guard, row.leaf())
}

/// A faceted database: a relational engine driven purely through
/// meta-data columns, per §3 of the paper.
///
/// Every logical table gets two extra columns: `jid` (logical object
/// id, also the target of faceted foreign keys) and `jvars` (the
/// encoded branch set saying which views see the row). All
/// marshalling and unmarshalling happens here; the underlying
/// [`microdb::Database`] stays completely facet-unaware.
///
/// # The decode cache
///
/// The paper's own evaluation (§6, Tables 3–4) identifies
/// *unmarshalling* — re-parsing `jvars` strings into facet guards —
/// as the dominant cost of the FORM. `FormDb` therefore keeps a
/// per-table cache of decoded [`GuardedRow`]s, keyed on the table's
/// monotonic [`microdb::Table::generation`] stamp: every
/// `insert`/`update`/`delete` bumps the stamp, so a cached snapshot
/// is valid exactly until the next write *to that table* — writes to
/// other tables invalidate nothing. Queries (`all`, `filter`,
/// `order_by`, `get`, joins) plan against physical row indices and
/// reuse the decoded rows; Early-Pruning variants apply the viewer
/// constraint to the decoded rows, not to raw strings. Cache clones
/// are O(1) ([`FacetedList`] is copy-on-write), and a selective query
/// returns a [`FacetedList::select`]ion of the snapshot, so a cache
/// hit copies no row at all.
///
/// Invalidation is *delta-maintained*: a write bumps the stamp, but
/// the next query repairs the stale snapshot from the table's bounded
/// change journal ([`microdb::Table::deltas_since`]) — a single-row
/// insert appends one decoded row instead of re-decoding the whole
/// table; updates/deletes patch or evict only the touched rows and
/// object memos. When the journal window has slid past the snapshot,
/// the query falls back to a full re-decode, so correctness never
/// depends on journal retention. [`FormDb::set_decode_cache`]
/// switches the cache off and [`FormDb::set_delta_maintenance`]
/// switches just the repair path off: those are the reference arms of
/// the differential grids, which pin cached, uncached, and
/// delta-maintained paths byte-identical.
///
/// # Concurrency
///
/// `FormDb` is `Send + Sync`, and both queries *and row-level writes*
/// take `&self`: storage is sharded per table inside
/// [`microdb::Database`], label allocation and `jid` reservation use
/// internal locks, so concurrent requests touching different tables
/// proceed fully in parallel. Multi-statement isolation (a reader
/// must not observe half of a `save`) is coordinated above this layer
/// by the executor's footprint locks. Per-request Early Pruning
/// should use the `*_with` query variants, which take the viewer
/// constraint as an argument instead of mutating the shared
/// [`FormDb::set_pruning`] state.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), form::FormError> {
/// use faceted::Faceted;
/// use form::FormDb;
/// use microdb::{ColumnDef, ColumnType, Value};
///
/// let mut db = FormDb::new();
/// db.create_table("event", vec![
///     ColumnDef::new("name", ColumnType::Str),
/// ])?;
///
/// let k = db.fresh_label("event_name");
/// let name = Faceted::split(
///     k,
///     Faceted::leaf(Some(vec![Value::from("Carol's surprise party")])),
///     Faceted::leaf(Some(vec![Value::from("Private event")])),
/// );
/// let jid = db.insert("event", &name)?;
///
/// // Two physical rows share the jid (Table 1 of the paper).
/// assert_eq!(db.physical_rows("event")?, 2);
/// let obj = db.get("event", jid)?;
/// assert_eq!(obj.project(&faceted::View::from_labels([k])).as_ref().unwrap()[0],
///            Value::from("Carol's surprise party"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FormDb {
    db: Database,
    labels: RwLock<LabelRegistry>,
    /// Per-table next logical id (Django primary keys are per-model).
    next_jid: Mutex<BTreeMap<String, i64>>,
    /// When set, unmarshalling reconstructs only facets consistent
    /// with this viewer constraint (Early Pruning, §3.2).
    pruning: Option<Branches>,
    /// Whether the decode cache is active (`true` by default; the
    /// differential grids' uncached reference arm switches it off).
    cache_enabled: bool,
    /// Whether stale cache slots are repaired from the tables' change
    /// journals instead of waiting for a full re-decode (`true` by
    /// default; the differential grids' full-re-decode reference arm
    /// switches it off).
    delta_maintenance: bool,
    /// Decode-cache slots by table name. Tables are named by the
    /// program, object memos by `jid`s it allocates, so both maps use
    /// the id hasher.
    decoded: RwLock<IdHashMap<String, DecodedTable>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    delta_applies: AtomicU64,
}

impl Default for FormDb {
    fn default() -> FormDb {
        FormDb {
            db: Database::new(),
            labels: RwLock::new(LabelRegistry::new()),
            next_jid: Mutex::new(BTreeMap::new()),
            pruning: None,
            cache_enabled: true,
            delta_maintenance: true,
            decoded: RwLock::new(IdHashMap::default()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            delta_applies: AtomicU64::new(0),
        }
    }
}

impl Clone for FormDb {
    fn clone(&self) -> FormDb {
        FormDb {
            db: self.db.clone(),
            labels: RwLock::new(self.labels.read().expect("labels lock").clone()),
            next_jid: Mutex::new(self.next_jid.lock().expect("jid lock").clone()),
            pruning: self.pruning.clone(),
            cache_enabled: self.cache_enabled,
            delta_maintenance: self.delta_maintenance,
            // A fresh clone starts cold; snapshots repopulate lazily.
            decoded: RwLock::new(IdHashMap::default()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            delta_applies: AtomicU64::new(0),
        }
    }
}

impl FormDb {
    /// An empty faceted database.
    #[must_use]
    pub fn new() -> FormDb {
        FormDb::default()
    }

    /// Direct access to the underlying relational engine (for
    /// baselines and diagnostics; application code should stay on the
    /// faceted API). Row-level writes through the raw handle still
    /// bump table generations, so the decode cache stays correct;
    /// *structural* changes are different — `drop_table` through the
    /// raw handle must be paired with [`FormDb::create_table`] (which
    /// purges the dropped name's snapshot) rather than
    /// `Database::create_table`, because a fresh table restarts its
    /// generation counter.
    pub fn raw(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Shared access to the underlying relational engine.
    #[must_use]
    pub fn raw_ref(&self) -> &Database {
        &self.db
    }

    /// Allocates a fresh policy label.
    pub fn fresh_label(&self, name: &str) -> Label {
        self.labels.write().expect("labels lock").fresh(name)
    }

    /// Shared access to the label registry.
    ///
    /// # Panics
    ///
    /// Panics if a prior label allocation panicked mid-write.
    pub fn labels(&self) -> RwLockReadGuard<'_, LabelRegistry> {
        self.labels.read().expect("labels lock")
    }

    /// Enables Early Pruning for a known viewer constraint; queries
    /// will reconstruct only the consistent facets.
    pub fn set_pruning(&mut self, constraint: Option<Branches>) {
        self.pruning = constraint;
    }

    /// The active pruning constraint, if any.
    #[must_use]
    pub fn pruning(&self) -> Option<&Branches> {
        self.pruning.as_ref()
    }

    /// Switches the decode cache on or off (the uncached reference arm
    /// of the differential grids). Returns the previous setting. Disabling also drops any cached
    /// snapshots.
    pub fn set_decode_cache(&mut self, enabled: bool) -> bool {
        let was = self.cache_enabled;
        self.cache_enabled = enabled;
        if !enabled {
            self.decoded.write().expect("decode cache lock").clear();
        }
        was
    }

    /// Whether the decode cache is active.
    #[must_use]
    pub fn decode_cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Switches delta maintenance of stale cache slots on or off (the
    /// full-re-decode reference arm of the differential grids).
    /// Returns the previous setting. With it off, a stale slot waits for the next
    /// full-table read to re-decode — the pre-journal behavior.
    pub fn set_delta_maintenance(&mut self, enabled: bool) -> bool {
        let was = self.delta_maintenance;
        self.delta_maintenance = enabled;
        was
    }

    /// Whether stale cache slots are repaired from change journals.
    #[must_use]
    pub fn delta_maintenance_enabled(&self) -> bool {
        self.delta_maintenance
    }

    /// Decode-cache hit/miss/delta counters since construction.
    #[must_use]
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        DecodeCacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            delta_applies: self.delta_applies.load(Ordering::Relaxed),
        }
    }

    /// The generation stamp of the cached snapshot for `table`, if one
    /// exists — test hook for the invalidation contract (a write to
    /// table A must leave B's snapshot valid).
    #[must_use]
    pub fn cached_generation(&self, table: &str) -> Option<u64> {
        self.decoded
            .read()
            .expect("decode cache lock")
            .get(table)
            .map(|d| d.generation)
    }

    /// Creates a logical table: the user columns plus `jid`/`jvars`
    /// meta columns, with a hash index on `jid`.
    ///
    /// # Errors
    ///
    /// Propagates [`microdb::DbError`] (e.g. duplicate table).
    pub fn create_table(&mut self, name: &str, user_columns: Vec<ColumnDef>) -> FormResult<()> {
        let mut cols = user_columns;
        cols.push(ColumnDef::new(JID, ColumnType::Int));
        cols.push(ColumnDef::new(JVARS, ColumnType::Str));
        self.db.create_table(name, Schema::new(cols))?;
        self.db.table_mut(name)?.create_index(JID)?;
        // A fresh table restarts its generation at 0, so a snapshot
        // cached for a *previous* table of the same name (dropped via
        // the raw handle) could look current again once the new
        // table's write count catches up — drop it now.
        self.decoded
            .write()
            .expect("decode cache lock")
            .remove(name);
        Ok(())
    }

    /// Declares a hash index on a user column (Django indexes foreign
    /// keys by default; the FORM queries are plain SQL, so they
    /// benefit like any other query).
    ///
    /// # Errors
    ///
    /// Propagates table/column lookup errors.
    pub fn create_index(&mut self, table: &str, column: &str) -> FormResult<()> {
        self.db.table_mut(table)?.create_index(column)?;
        Ok(())
    }

    /// Number of *physical* rows in a table (facets included) — the
    /// space-overhead metric of §3.3.
    ///
    /// # Errors
    ///
    /// Propagates table-lookup errors.
    pub fn physical_rows(&self, table: &str) -> FormResult<usize> {
        Ok(self.db.table(table)?.len())
    }

    /// Reserves the next logical object id of a table without writing
    /// anything — used when the object's own `jid` must be visible to
    /// its policies before insertion.
    pub fn reserve_jid(&self, table: &str) -> i64 {
        let mut map = self.next_jid.lock().expect("jid lock");
        let next = map.entry(table.to_owned()).or_insert(1);
        let jid = *next;
        *next += 1;
        jid
    }

    /// Inserts a faceted object, returning its fresh `jid`. Each
    /// reachable facet leaf becomes one physical row with the guard
    /// encoded in `jvars`.
    ///
    /// # Errors
    ///
    /// Schema-validation errors from the engine.
    pub fn insert(&self, table: &str, object: &FacetedObject) -> FormResult<i64> {
        let jid = self.reserve_jid(table);
        self.write_rows(table, jid, object, Vec::new(), None)?;
        Ok(jid)
    }

    /// Inserts a newly created faceted object under its pre-reserved
    /// `create.jid`, logging `create` — the labels the creation
    /// allocated and the row its policies close over — in the same
    /// write-log record as the object's rows: a crash or a failed
    /// append keeps both or neither.
    ///
    /// # Errors
    ///
    /// Schema-validation errors from the engine, or
    /// [`microdb::DbError::Persist`] from the log append (the rows are
    /// rolled back).
    pub fn insert_created(
        &self,
        table: &str,
        create: &CreateMeta,
        object: &FacetedObject,
    ) -> FormResult<()> {
        self.write_rows(table, create.jid, object, Vec::new(), Some(create))
    }

    /// The marshalling loop behind every object write: `prelude`
    /// statements (e.g. [`FormDb::save`]'s delete of the old rows),
    /// then one insert per reachable facet leaf, applied and logged
    /// as a *single atomic batch* under one table write lock (with
    /// `create`, the creation metadata, in the same record). A
    /// failure anywhere — a bad row, a full disk on the WAL append —
    /// rolls the whole object write back, so neither memory nor the
    /// log ever holds a torn object and reads keep serving the intact
    /// pre-write state.
    fn write_rows(
        &self,
        table: &str,
        jid: i64,
        object: &FacetedObject,
        prelude: Vec<Statement>,
        create: Option<&CreateMeta>,
    ) -> FormResult<()> {
        crate::touched::note_write(table);
        let mut stmts = prelude;
        for (guard, fields) in flatten_object(object) {
            let mut row: Row = fields;
            row.push(Value::Int(jid));
            row.push(Value::Str(encode_jvars(&guard)));
            stmts.push(Statement::Insert {
                table: table.to_owned(),
                row,
            });
        }
        // One write lock for the whole batch: rows of one object land
        // atomically, records stay in generation order, and replay is
        // byte-deterministic.
        let mut t = self.db.table_mut(table)?;
        self.db.apply_batch_locked(&mut t, &stmts, create)?;
        // Writers pay for index maintenance so the shared-access query
        // plan (`&self`) always finds fresh indexes.
        t.refresh_indexes();
        Ok(())
    }

    /// Parses one physical row (user columns + `jid` + `jvars`) into a
    /// [`GuardedRow`]. Takes a slice so callers can decode sub-ranges
    /// of joined rows without materializing intermediate `Vec`s.
    fn decode_row(row: &[Value], width: usize) -> FormResult<GuardedRow> {
        let jid = row[width]
            .as_int()
            .ok_or_else(|| FormError::BadJvars("jid is not an integer".into()))?;
        let jvars = row[width + 1]
            .as_str()
            .ok_or_else(|| FormError::BadJvars("jvars is not a string".into()))?;
        Ok(GuardedRow::new(
            jid,
            parse_jvars(jvars)?,
            row[..width].to_vec(),
        ))
    }

    /// The decoded rows of `table` under an already-held table guard:
    /// served from the cache when the generation stamp still matches,
    /// unmarshalled (and, when the cache is enabled, stored) otherwise.
    ///
    /// The returned list is aligned with physical row order, so
    /// [`Query::plan_indices`] results index directly into it.
    fn decoded_rows(&self, table: &str, t: &Table) -> FormResult<FacetedList<GuardedRow>> {
        let generation = t.generation();
        if self.cache_enabled {
            if let Some(rows) = self.fresh_snapshot(table, t) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(rows); // O(1): shared storage
            }
            // Only count misses while the cache is live — with the
            // cache disabled the stats stay frozen (matching every
            // other query path), so counters of the two arms compare.
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        let width = t.schema().len() - 2;
        let mut pairs = Vec::with_capacity(t.len());
        for r in t.rows() {
            let g = FormDb::decode_row(r, width)?;
            // The one clone of each guard happens here — once per
            // table *generation*, not once per request.
            pairs.push((g.guard.clone(), g));
        }
        let rows: FacetedList<GuardedRow> = pairs.into_iter().collect();
        if self.cache_enabled {
            let mut cache = self.decoded.write().expect("decode cache lock");
            if let Some(slot) = FormDb::slot_at(&mut cache, table, generation) {
                slot.rows = Some(rows.clone());
            }
        }
        Ok(rows)
    }

    /// The cached decoded snapshot of `table`, if one is populated and
    /// still at `generation`.
    fn current_snapshot(&self, table: &str, generation: u64) -> Option<FacetedList<GuardedRow>> {
        let cache = self.decoded.read().expect("decode cache lock");
        let slot = cache.get(table)?;
        if slot.generation != generation {
            return None;
        }
        slot.rows.clone()
    }

    /// The cached decoded snapshot of `table` at its current
    /// generation, repairing a stale slot from the change journal
    /// first if needed. A warm hit costs one shared-lock probe.
    fn fresh_snapshot(&self, table: &str, t: &Table) -> Option<FacetedList<GuardedRow>> {
        let generation = t.generation();
        self.current_snapshot(table, generation).or_else(|| {
            self.try_delta_advance(table, t);
            self.current_snapshot(table, generation)
        })
    }

    /// Delta maintenance: when `table`'s cache slot is stale but the
    /// table's change journal still covers the window between the
    /// slot's generation and the present, repair the slot in place —
    /// append/rewrite/remove only the touched rows of the decoded
    /// snapshot, evict only the touched objects' memos — instead of
    /// leaving the whole slot to a full re-decode. A single-row insert
    /// into an n-row table thus costs one row decode, not n.
    ///
    /// This is strictly an optimization: a slid-past journal window
    /// leaves the slot stale (next full read re-decodes), and a row
    /// that fails to decode evicts the slot outright (a full decode
    /// would fail on the same row) — correctness never depends on the
    /// journal.
    fn try_delta_advance(&self, table: &str, t: &Table) {
        if !self.cache_enabled || !self.delta_maintenance {
            return;
        }
        let generation = t.generation();
        // Decide staleness under the shared lock first, so concurrent
        // readers of a warm table never queue on each other. Only a
        // stale slot takes the exclusive lock, and re-checks there:
        // another reader may have repaired it in between.
        let current = self
            .decoded
            .read()
            .expect("decode cache lock")
            .get(table)
            .is_none_or(|slot| slot.generation >= generation);
        if current {
            return;
        }
        let mut cache = self.decoded.write().expect("decode cache lock");
        let Some(slot) = cache
            .get_mut(table)
            .filter(|slot| slot.generation < generation)
        else {
            return;
        };
        let Some(deltas) = t.deltas_since(slot.generation) else {
            return; // window slid past the slot: full decode rebuilds
        };
        let width = t.schema().len() - 2;
        let jid_of = |row: &Row| row[width].as_int();
        for delta in deltas {
            match delta {
                RowDelta::Append(row) => {
                    if let Some(jid) = jid_of(row) {
                        slot.objects.remove(&jid);
                    }
                    if let Some(rows) = &mut slot.rows {
                        match FormDb::decode_row(row, width) {
                            Ok(g) => rows.push(g.guard.clone(), g),
                            Err(_) => {
                                cache.remove(table);
                                return;
                            }
                        }
                    }
                }
                RowDelta::Rewrite(rewrites) => {
                    for (ix, old, new) in rewrites {
                        if let Some(jid) = jid_of(old) {
                            slot.objects.remove(&jid);
                        }
                        if let Some(jid) = jid_of(new) {
                            slot.objects.remove(&jid);
                        }
                        if let Some(rows) = &mut slot.rows {
                            match FormDb::decode_row(new, width) {
                                Ok(g) => rows.replace_row(*ix, g.guard.clone(), g),
                                Err(_) => {
                                    cache.remove(table);
                                    return;
                                }
                            }
                        }
                    }
                }
                RowDelta::Remove(removals) => {
                    // Descending order keeps the earlier indices valid.
                    for (ix, row) in removals.iter().rev() {
                        if let Some(jid) = jid_of(row) {
                            slot.objects.remove(&jid);
                        }
                        if let Some(rows) = &mut slot.rows {
                            rows.remove_row(*ix);
                        }
                    }
                }
            }
        }
        slot.generation = generation;
        self.delta_applies.fetch_add(1, Ordering::Relaxed);
    }

    /// One shared-lock probe of the decode cache for `(table, jid)` at
    /// `generation`: the memoized facet DAG, else the decoded snapshot
    /// to rebuild it from.
    fn probe_object(&self, table: &str, generation: u64, jid: i64) -> ObjectProbe {
        let cache = self.decoded.read().expect("decode cache lock");
        match cache.get(table) {
            Some(slot) if slot.generation == generation => match slot.objects.get(&jid) {
                Some(obj) => ObjectProbe::Built(obj.clone()),
                None => slot
                    .rows
                    .clone()
                    .map_or(ObjectProbe::Stale, ObjectProbe::Unbuilt),
            },
            _ => ObjectProbe::Stale,
        }
    }

    /// The cache slot for `(table, generation)`, creating or resetting
    /// it as needed. Generations are monotonic, so data derived at an
    /// *older* generation must never overwrite a newer slot — callers
    /// get `None` in that case and simply skip caching.
    fn slot_at<'c>(
        cache: &'c mut IdHashMap<String, DecodedTable>,
        table: &str,
        generation: u64,
    ) -> Option<&'c mut DecodedTable> {
        // Probe before inserting: the table name is copied only once,
        // when its slot is first created.
        if !cache.contains_key(table) {
            cache.insert(table.to_owned(), DecodedTable::default());
        }
        let slot = cache.get_mut(table).expect("slot just ensured");
        if slot.generation < generation {
            *slot = DecodedTable {
                generation,
                rows: None,
                objects: IdHashMap::default(),
            };
        }
        (slot.generation == generation).then_some(slot)
    }

    /// Stores a rebuilt object in the cache (kept only while the slot
    /// generation still matches, so a concurrent write can never
    /// resurrect a stale DAG).
    fn store_object(&self, table: &str, generation: u64, jid: i64, obj: &FacetedObject) {
        let mut cache = self.decoded.write().expect("decode cache lock");
        if let Some(slot) = FormDb::slot_at(&mut cache, table, generation) {
            slot.objects.insert(jid, obj.clone());
        }
    }

    /// Runs a single-table query and returns its result as decoded
    /// guarded rows, reusing the cached snapshot whenever the planner
    /// can express the result as physical row indices.
    fn select_decoded(
        &self,
        table: &str,
        query: &Query,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedList<GuardedRow>> {
        crate::touched::note_read(table);
        let t = self.db.table(table)?;
        let Some(indices) = query.plan_indices(&t)? else {
            // Shapes the index planner cannot express (none of the
            // FORM's own queries hit this; kept for robustness).
            let width = t.schema().len() - 2;
            drop(t);
            let rows = query.execute_ref(&self.db)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in &rows {
                let g = FormDb::decode_row(r, width)?;
                out.push((g.guard.clone(), g));
            }
            let list: FacetedList<GuardedRow> = out.into_iter().collect();
            return Ok(FormDb::pruned(list, prune));
        };
        Ok(FormDb::pruned(self.rows_at(table, &t, &indices)?, prune))
    }

    /// The rows of `table` whose `column` equals `value`, in physical
    /// order — the read behind [`FormDb::filter_eq`] and a cold
    /// [`FormDb::get`]. When the column's index is clean and the
    /// decode cache is on, this is one index probe plus a selection of
    /// the decoded snapshot: no `Query`, no `Predicate`, no per-row
    /// re-evaluation. Everything else goes through the planner
    /// ([`FormDb::select_decoded`]):
    ///
    /// * an unindexed column, or an index left dirty by a write;
    /// * the decode cache off (its reference arm is the planner path);
    /// * a pruning constraint;
    /// * a `NULL` literal: SQL `col = NULL` matches nothing, while the
    ///   index would return the rows holding `NULL`.
    fn select_eq(
        &self,
        table: &str,
        column: &str,
        value: &Value,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedList<GuardedRow>> {
        if self.cache_enabled && prune.is_none() && !value.is_null() {
            crate::touched::note_read(table);
            let t = self.db.table(table)?;
            if let Some(hits) = t.index_probe_ref(column, value) {
                return self.rows_at(table, &t, hits);
            }
        }
        let pred = Predicate::eq(Operand::col(column), Operand::Lit(value.clone()));
        self.select_decoded(table, &Query::from(table).filter(pred), prune)
    }

    /// The decoded rows of `table` at physical `indices` (in that
    /// order), taken under the caller's table guard `t`: a selection
    /// of the cached snapshot when there is one, otherwise a decode of
    /// the snapshot or of just these rows.
    fn rows_at(
        &self,
        table: &str,
        t: &Table,
        indices: &[usize],
    ) -> FormResult<FacetedList<GuardedRow>> {
        let full_selection =
            indices.len() == t.len() && indices.iter().enumerate().all(|(p, &i)| p == i);
        if self.cache_enabled {
            let decoded = match self.fresh_snapshot(table, t) {
                Some(decoded) => {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    Some(decoded)
                }
                // Cold/stale snapshot: decode the table once, store it,
                // and share it. A selective query (e.g. an indexed `get`
                // or `filter_eq`) builds the snapshot only while delta
                // maintenance is on: the deltas then keep it fresh, so a
                // write+get loop stays one decoded row per write.
                None if full_selection || self.delta_maintenance => {
                    Some(self.decoded_rows(table, t)?)
                }
                None => None,
            };
            if let Some(decoded) = decoded {
                // The matched rows of the shared snapshot: no row copy.
                return Ok(if full_selection {
                    decoded
                } else {
                    decoded.select(indices)
                });
            }
            // Deltas off and the query is selective: decode only the
            // matched rows instead of unmarshalling the whole table —
            // otherwise a write+get loop over n objects would cost
            // O(n²) total decodes. The snapshot is rebuilt by the next
            // full-table read.
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        // Selected-rows-only decode: the path above and the uncached
        // (`cache_enabled == false`) path, which is the pre-cache
        // behavior.
        let width = t.schema().len() - 2;
        let rows = t.rows();
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            let g = FormDb::decode_row(&rows[i], width)?;
            out.push((g.guard.clone(), g));
        }
        Ok(out.into_iter().collect())
    }

    fn pruned(rows: FacetedList<GuardedRow>, prune: Option<&Branches>) -> FacetedList<GuardedRow> {
        match prune {
            None => rows,
            Some(constraint) => rows.prune(constraint),
        }
    }

    /// All guarded rows of a table — the faceted `objects.all()` —
    /// pruned by the database-level constraint, if one is set.
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn all(&self, table: &str) -> FormResult<FacetedList<GuardedRow>> {
        self.all_with(table, self.pruning.as_ref())
    }

    /// [`FormDb::all`] with an explicit Early-Pruning constraint,
    /// letting each concurrent request keep its pruning state
    /// thread-local instead of mutating the shared handle.
    ///
    /// On a cache hit with no constraint this is O(1): the returned
    /// list shares the cached snapshot's storage.
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn all_with(
        &self,
        table: &str,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedList<GuardedRow>> {
        crate::touched::note_read(table);
        let t = self.db.table(table)?;
        let rows = self.decoded_rows(table, &t)?;
        drop(t);
        Ok(FormDb::pruned(rows, prune))
    }

    /// Faceted `filter`: issues the WHERE query directly against the
    /// physical table — because each facet lives in its own row,
    /// standard relational filtering is already flow-correct (§3.1.1).
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn filter(&self, table: &str, predicate: Predicate) -> FormResult<FacetedList<GuardedRow>> {
        self.filter_with(table, predicate, self.pruning.as_ref())
    }

    /// [`FormDb::filter`] with an explicit Early-Pruning constraint.
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn filter_with(
        &self,
        table: &str,
        predicate: Predicate,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedList<GuardedRow>> {
        let query = Query::from(table).filter(predicate);
        self.select_decoded(table, &query, prune)
    }

    /// Faceted equality filter on one column.
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn filter_eq(
        &self,
        table: &str,
        column: &str,
        value: Value,
    ) -> FormResult<FacetedList<GuardedRow>> {
        self.select_eq(table, column, &value, self.pruning.as_ref())
    }

    /// Faceted `ORDER BY`: relies on SQL sorting of physical rows —
    /// secret and public facets sort independently because they are
    /// separate rows (§3.1.1).
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn order_by(
        &self,
        table: &str,
        column: &str,
        order: SortOrder,
    ) -> FormResult<FacetedList<GuardedRow>> {
        self.order_by_with(table, column, order, self.pruning.as_ref())
    }

    /// [`FormDb::order_by`] with an explicit Early-Pruning constraint.
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn order_by_with(
        &self,
        table: &str,
        column: &str,
        order: SortOrder,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedList<GuardedRow>> {
        let query = Query::from(table).order_by(column, order);
        self.select_decoded(table, &query, prune)
    }

    /// Faceted join: `left JOIN right ON left.fk = right.jid`,
    /// unioning the guards of both sides — the translated query of
    /// Table 2. Pairs whose combined guard is contradictory are
    /// dropped (no view could see them).
    ///
    /// Both sides come from the decode cache, so the join never
    /// re-parses `jvars` and never materializes intermediate raw-row
    /// copies.
    ///
    /// Returns `(left_row, right_row)` pairs with the combined guard.
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn join_on_fk(
        &self,
        left: &str,
        fk_column: &str,
        right: &str,
    ) -> FormResult<FacetedList<(GuardedRow, GuardedRow)>> {
        self.join_on_fk_with(left, fk_column, right, self.pruning.as_ref())
    }

    /// [`FormDb::join_on_fk`] with an explicit Early-Pruning
    /// constraint.
    ///
    /// # Errors
    ///
    /// Table lookup / decoding errors.
    pub fn join_on_fk_with(
        &self,
        left: &str,
        fk_column: &str,
        right: &str,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedList<(GuardedRow, GuardedRow)>> {
        crate::touched::note_read(left);
        crate::touched::note_read(right);
        let (ldec, fk_ix) = {
            let t = self.db.table(left)?;
            let fk_ix = t
                .schema()
                .column_index(fk_column)
                .ok_or_else(|| microdb::DbError::NoSuchColumn(fk_column.to_owned()))?;
            // The fk must be a *user* column: decoded rows carry only
            // the user fields, and joining on the meta columns
            // (`jid`/`jvars`) is not a faceted foreign key.
            if fk_ix >= t.schema().len() - 2 {
                return Err(FormError::Db(microdb::DbError::InvalidOperation(format!(
                    "join_on_fk: {fk_column} is a meta column, not a user foreign key"
                ))));
            }
            (self.decoded_rows(left, &t)?, fk_ix)
        };
        let rdec = if left == right {
            ldec.clone()
        } else {
            let t = self.db.table(right)?;
            self.decoded_rows(right, &t)?
        };

        // Hash join on the right side's jid, in physical row order —
        // the same pairing (and ordering) the relational hash join
        // produces.
        let mut by_jid: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, (_, r)) in rdec.iter().enumerate() {
            by_jid.entry(r.jid).or_default().push(i);
        }
        let mut out = FacetedList::new();
        for (_, l) in ldec.iter() {
            let Some(fk) = l.fields[fk_ix].as_int() else {
                continue; // NULL (or non-integer) keys never join
            };
            let Some(matches) = by_jid.get(&fk) else {
                continue;
            };
            for &ri in matches {
                let (_, r) = rdec.row(ri);
                let guard = l.guard.union(&r.guard);
                if !guard.is_consistent() {
                    continue;
                }
                let mut l = l.clone();
                let mut r = r.clone();
                l.guard = guard.clone();
                r.guard = guard.clone();
                out.push(guard, (l, r));
            }
        }
        if let Some(constraint) = prune {
            out = out.prune(constraint);
        }
        Ok(out)
    }

    /// Reconstructs one logical object from its physical rows.
    ///
    /// # Errors
    ///
    /// [`FormError::NoSuchObject`] if no row carries this `jid`;
    /// [`FormError::FacetConflict`] on ambiguous facets.
    pub fn get(&self, table: &str, jid: i64) -> FormResult<FacetedObject> {
        self.get_with(table, jid, self.pruning.as_ref())
    }

    /// [`FormDb::get`] with an explicit Early-Pruning constraint.
    ///
    /// Unpruned lookups are memoized per `(table, jid)` in the decode
    /// cache's object layer: the facet DAG is rebuilt once per table
    /// generation and shared by every subsequent request (policies
    /// re-fetch the same profile objects constantly — the paper's
    /// Table 4 workload). Pruned lookups rebuild from the decoded
    /// rows, which still skips all `jvars` parsing.
    ///
    /// # Errors
    ///
    /// Same as [`FormDb::get`].
    pub fn get_with(
        &self,
        table: &str,
        jid: i64,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedObject> {
        crate::touched::note_read(table);
        if !self.cache_enabled || prune.is_some() {
            return self.rebuild_from_rows(table, jid, prune);
        }
        let t = self.db.table(table)?;
        let generation = t.generation();
        // On a miss, repair a stale slot before probing again, so
        // memos of objects the write did not touch stay warm.
        let probe = match self.probe_object(table, generation, jid) {
            ObjectProbe::Stale => {
                self.try_delta_advance(table, &t);
                self.probe_object(table, generation, jid)
            }
            probe => probe,
        };
        // The cold object of a warm snapshot: its rows' leaves are
        // already interned, so the rebuild only links splits.
        let rebuilt = match probe {
            ObjectProbe::Built(obj) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(obj);
            }
            ObjectProbe::Unbuilt(rows) => t
                .index_probe_ref(JID, &Value::Int(jid))
                .filter(|hits| !hits.is_empty())
                .map(|hits| {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    rebuild_rows(jid, hits.len(), |i| leaf_of(rows.row(hits[i]).1))
                }),
            ObjectProbe::Stale => None,
        };
        drop(t);
        let obj = match rebuilt {
            Some(obj) => obj?,
            None => self.rebuild_from_rows(table, jid, None)?,
        };
        self.store_object(table, generation, jid, &obj);
        Ok(obj)
    }

    /// Rebuilds one object's facet DAG from its (decoded) physical
    /// rows — the slow path behind the object cache.
    fn rebuild_from_rows(
        &self,
        table: &str,
        jid: i64,
        prune: Option<&Branches>,
    ) -> FormResult<FacetedObject> {
        let rows = self.select_eq(table, JID, &Value::Int(jid), None)?;
        if rows.is_empty() {
            return Err(FormError::NoSuchObject {
                table: table.to_owned(),
                jid,
            });
        }
        let rows = FormDb::pruned(rows, prune);
        rebuild_rows(jid, rows.len(), |i| leaf_of(rows.row(i).1))
    }

    /// Saves an object under a path condition: the paper's guarded
    /// write (§2.2/§3.1.2). The stored object becomes
    /// `⟨⟨pc ? new : current⟩⟩`; with an empty `pc` this is a plain
    /// overwrite.
    ///
    /// # Errors
    ///
    /// Lookup/decoding errors; a missing object is treated as absent
    /// (`None` facets) rather than an error, so guarded creation
    /// works.
    pub fn save(
        &self,
        table: &str,
        jid: i64,
        new: &FacetedObject,
        pc: &Branches,
    ) -> FormResult<()> {
        let current = match self.get(table, jid) {
            Ok(cur) => cur,
            Err(FormError::NoSuchObject { .. }) => faceted::Faceted::leaf(None),
            Err(e) => return Err(e),
        };
        let merged = faceted::Faceted::split_branches(pc, new.clone(), current);
        // Fast path: when the merged object flattens to exactly the
        // guard set its stored rows already carry, overwrite each row
        // where it sits. Physical positions are preserved, so a
        // single-object save dirties O(object) of the table — the
        // property the incremental checkpointer's row-range chunks
        // rely on — instead of shifting the whole tail.
        if let Some(stmts) = self.in_place_save_stmts(table, jid, &merged)? {
            crate::touched::note_write(table);
            let mut t = self.db.table_mut(table)?;
            self.db.apply_batch_locked(&mut t, &stmts, None)?;
            t.refresh_indexes();
            return Ok(());
        }
        // Delete-then-reinsert as ONE atomic batch: a failure (e.g. a
        // WAL append on a full disk) must not leave the object
        // deleted-but-not-rewritten in memory or in the log.
        self.write_rows(
            table,
            jid,
            &merged,
            vec![Statement::Delete {
                table: table.to_owned(),
                pred: Predicate::eq(Operand::col(JID), Operand::lit(jid)),
            }],
            None,
        )
    }

    /// Builds the per-row `Update` batch of the in-place save fast
    /// path, or `None` when the write must fall back to
    /// delete + re-insert: the object's guard structure changed (its
    /// flattened `jvars` set differs from the stored rows'), a guard
    /// repeats (the per-guard predicate would no longer address one
    /// row), or the object has no stored rows yet.
    ///
    /// Each statement targets one stored row by `(jid, jvars)` and
    /// reassigns every user column in place, so row order is kept.
    fn in_place_save_stmts(
        &self,
        table: &str,
        jid: i64,
        merged: &FacetedObject,
    ) -> FormResult<Option<Vec<Statement>>> {
        let flat = flatten_object(merged);
        let t = self.db.table(table)?;
        let schema = t.schema();
        let width = schema.len() - 2;
        let mut current: Vec<String> = Vec::new();
        for row in t.rows() {
            if row[width].as_int() == Some(jid) {
                match row[width + 1].as_str() {
                    Some(s) => current.push(s.to_owned()),
                    None => return Ok(None),
                }
            }
        }
        if current.is_empty()
            || current.len() != flat.len()
            || flat.iter().any(|(_, fields)| fields.len() != width)
        {
            return Ok(None);
        }
        let user_cols: Vec<String> = schema.columns()[..width]
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        drop(t);
        let encoded: Vec<(String, &Row)> = flat
            .iter()
            .map(|(guard, fields)| (encode_jvars(guard), fields))
            .collect();
        let mut stored: Vec<&str> = current.iter().map(String::as_str).collect();
        let mut fresh: Vec<&str> = encoded.iter().map(|(g, _)| g.as_str()).collect();
        stored.sort_unstable();
        fresh.sort_unstable();
        if stored != fresh || fresh.windows(2).any(|w| w[0] == w[1]) {
            return Ok(None);
        }
        Ok(Some(
            encoded
                .into_iter()
                .map(|(guard, fields)| Statement::Update {
                    table: table.to_owned(),
                    pred: Predicate::eq(Operand::col(JID), Operand::lit(jid))
                        .and(Predicate::eq(Operand::col(JVARS), Operand::lit(guard))),
                    assignments: user_cols
                        .iter()
                        .cloned()
                        .zip(fields.iter().cloned())
                        .collect(),
                })
                .collect(),
        ))
    }

    /// Deletes an object under a path condition: views satisfying
    /// `pc` stop seeing it, others keep it (implemented as a guarded
    /// save of the absent object).
    ///
    /// # Errors
    ///
    /// Same as [`FormDb::save`].
    pub fn delete(&self, table: &str, jid: i64, pc: &Branches) -> FormResult<()> {
        self.save(table, jid, &faceted::Faceted::leaf(None), pc)
    }

    // -----------------------------------------------------------------
    // Persistence: metadata export/restore, snapshot restore with
    // decode-cache revalidation, write-log plumbing.
    // -----------------------------------------------------------------

    /// Attaches an append-only write log to the storage engine: every
    /// committed write (each object write one batch) appends a durable
    /// record. See [`microdb::WriteLog`].
    pub fn attach_wal(&mut self, wal: std::sync::Arc<microdb::WriteLog>) {
        self.db.attach_wal(wal);
    }

    /// Exports the FORM's metadata: label-registry names and per-table
    /// `jid` cursors (see [`crate::FormMeta`] for why both must
    /// survive a restart).
    #[must_use]
    pub fn export_meta(&self) -> crate::FormMeta {
        crate::FormMeta {
            labels: self.labels.read().expect("labels lock").export_names(),
            next_jid: self.next_jid.lock().expect("jid lock").clone(),
        }
    }

    /// Restores metadata exported by [`FormDb::export_meta`],
    /// replacing the registry and the `jid` cursors wholesale.
    pub fn restore_meta(&mut self, meta: &crate::FormMeta) {
        *self.labels.write().expect("labels lock") =
            LabelRegistry::from_names(meta.labels.iter().cloned());
        *self.next_jid.lock().expect("jid lock") = meta.next_jid.clone();
    }

    /// Restores one stored label name at its recorded index — the
    /// write-log replay path for labels allocated after the last
    /// checkpoint (see [`LabelRegistry::import_at`]). Returns the
    /// label.
    pub fn import_label(&self, index: u32, stored_name: &str) -> Label {
        self.labels
            .write()
            .expect("labels lock")
            .import_at(index, stored_name)
    }

    /// Advances a table's `jid` cursor to at least `next` (replay of
    /// post-checkpoint object creations; also used to re-derive the
    /// cursor from restored rows).
    pub fn bump_next_jid(&self, table: &str, next: i64) {
        let mut map = self.next_jid.lock().expect("jid lock");
        let cur = map.entry(table.to_owned()).or_insert(1);
        *cur = (*cur).max(next);
    }

    /// Replaces the storage engine's contents with a snapshot,
    /// **revalidating** the decode cache against the restored
    /// generation stamps instead of flushing it: a cached slot whose
    /// generation equals the restored table's stamp describes exactly
    /// the restored rows (generations are monotonic within a
    /// lineage, and a checkpoint is a point on this database's own
    /// lineage), so it stays warm; any other slot is dropped.
    ///
    /// Restoring a checkpoint and immediately serving reads therefore
    /// costs zero re-decodes for tables that were not written after
    /// the checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates [`microdb::Database::restore`] errors; on error the
    /// database and cache are unchanged.
    pub fn restore_database(&mut self, snapshot: &microdb::Snapshot) -> FormResult<()> {
        self.db.restore(snapshot)?;
        let mut cache = self.decoded.write().expect("decode cache lock");
        cache.retain(|table, slot| {
            self.db
                .generation(table)
                .is_ok_and(|g| g == slot.generation)
        });
        Ok(())
    }

    /// The `jid`s of every logical object in `table`, ascending — the
    /// checkpoint writer counts objects with this.
    ///
    /// # Errors
    ///
    /// Table-lookup errors.
    pub fn object_jids(&self, table: &str) -> FormResult<Vec<i64>> {
        let t = self.db.table(table)?;
        let jid_ix = t.schema().len() - 2;
        let mut jids: Vec<i64> = t.rows().iter().filter_map(|r| r[jid_ix].as_int()).collect();
        jids.sort_unstable();
        jids.dedup();
        Ok(jids)
    }

    /// The `jid`s of every logical object in `table`, in
    /// **first-appearance physical-row order** — the order a list page
    /// that scans the table renders objects in. This differs from
    /// [`FormDb::object_jids`] (ascending) because `save` re-inserts:
    /// an updated object's rows move to the table's end, and so does
    /// its rendered line.
    ///
    /// # Errors
    ///
    /// Table-lookup errors.
    pub fn jid_order(&self, table: &str) -> FormResult<Vec<i64>> {
        crate::touched::note_read(table);
        let t = self.db.table(table)?;
        let jid_ix = t.schema().len() - 2;
        let mut seen = std::collections::HashSet::new();
        let mut jids = Vec::new();
        for row in t.rows() {
            if let Some(jid) = row[jid_ix].as_int() {
                if seen.insert(jid) {
                    jids.push(jid);
                }
            }
        }
        Ok(jids)
    }

    /// The `jid`s whose rows appear in `table`'s change journal after
    /// generation `since`: old **and** new rows of every delta,
    /// deduplicated and sorted ascending. `None` when the journal
    /// window has slid past `since`, when `since` is from the future
    /// (a restore to an older checkpoint), or when a journaled row
    /// carries a non-integer jid — in every such case the caller must
    /// fall back to a full rebuild, exactly like the decode cache's
    /// [`delta-advance`](FormDb::set_delta_maintenance) contract:
    /// correctness never depends on the journal.
    ///
    /// # Errors
    ///
    /// Table-lookup errors.
    pub fn touched_jids_since(&self, table: &str, since: u64) -> FormResult<Option<Vec<i64>>> {
        crate::touched::note_read(table);
        let t = self.db.table(table)?;
        let Some(deltas) = t.deltas_since(since) else {
            return Ok(None);
        };
        let width = t.schema().len() - 2;
        let mut jids = Vec::new();
        let mut push = |row: &Row| -> bool {
            row[width].as_int().is_some_and(|jid| {
                jids.push(jid);
                true
            })
        };
        for delta in deltas {
            let journaled = match delta {
                RowDelta::Append(row) => push(row),
                RowDelta::Rewrite(rewrites) => {
                    rewrites.iter().all(|(_, old, new)| push(old) && push(new))
                }
                RowDelta::Remove(removals) => removals.iter().all(|(_, row)| push(row)),
            };
            if !journaled {
                return Ok(None);
            }
        }
        jids.sort_unstable();
        jids.dedup();
        Ok(Some(jids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faceted::{Branch, Faceted, View};

    fn event_db() -> (FormDb, Label, i64) {
        let mut db = FormDb::new();
        db.create_table(
            "event",
            vec![
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("location", ColumnType::Str),
            ],
        )
        .unwrap();
        let k = db.fresh_label("event_policy");
        let obj = Faceted::split(
            k,
            Faceted::leaf(Some(vec![
                Value::from("Carol's surprise party"),
                Value::from("Schloss Dagstuhl"),
            ])),
            Faceted::leaf(Some(vec![
                Value::from("Private event"),
                Value::from("Undisclosed location"),
            ])),
        );
        let jid = db.insert("event", &obj).unwrap();
        (db, k, jid)
    }

    #[test]
    fn insert_stores_one_row_per_facet() {
        let (db, _, _) = event_db();
        assert_eq!(db.physical_rows("event").unwrap(), 2);
    }

    #[test]
    fn get_round_trips_facets() {
        let (db, k, jid) = event_db();
        let obj = db.get("event", jid).unwrap();
        let secret = obj.project(&View::from_labels([k])).clone().unwrap();
        let public = obj.project(&View::empty()).clone().unwrap();
        assert_eq!(secret[0], Value::from("Carol's surprise party"));
        assert_eq!(public[1], Value::from("Undisclosed location"));
    }

    #[test]
    fn filter_tracks_sensitive_values() {
        // The §3.1.1 query: only the secret facet matches; the result
        // is guarded so only authorized viewers see the event.
        let (db, k, _) = event_db();
        let result = db
            .filter_eq("event", "location", Value::from("Schloss Dagstuhl"))
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.project(&View::from_labels([k])).len(), 1);
        assert!(result.project(&View::empty()).is_empty());
    }

    #[test]
    fn order_by_sorts_facets_independently() {
        // §3.1.1: ⟨a?"Charlie":"***"⟩, ⟨b?"Bob":"***"⟩, ⟨c?"Alice":"***"⟩
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("f", ColumnType::Str)])
            .unwrap();
        let (a, b, c) = (
            db.fresh_label("a"),
            db.fresh_label("b"),
            db.fresh_label("c"),
        );
        for (l, name) in [(a, "Charlie"), (b, "Bob"), (c, "Alice")] {
            let obj = Faceted::split(
                l,
                Faceted::leaf(Some(vec![Value::from(name)])),
                Faceted::leaf(Some(vec![Value::from("***")])),
            );
            db.insert("t", &obj).unwrap();
        }
        let sorted = db.order_by("t", "f", SortOrder::Asc).unwrap();
        // View {a, ¬b, c}: sees "Charlie", "***", "Alice" — sorted
        // as ["***", "Alice", "Charlie"] (the paper's example).
        let view = View::from_labels([a, c]);
        let names: Vec<String> = sorted
            .project(&view)
            .into_iter()
            .map(|g| g.fields[0].as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["***", "Alice", "Charlie"]);
    }

    #[test]
    fn join_unions_jvars_from_both_tables() {
        let (mut db, k, jid) = event_db();
        db.create_table(
            "guest",
            vec![
                ColumnDef::new("event", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
        )
        .unwrap();
        let g = db.fresh_label("guest_policy");
        let guest = Faceted::split(
            g,
            Faceted::leaf(Some(vec![Value::Int(jid), Value::from("alice")])),
            Faceted::leaf(None),
        );
        db.insert("guest", &guest).unwrap();

        let joined = db.join_on_fk("guest", "event", "event").unwrap();
        // Pairs: (guest-secret × event-secret), (guest-secret × event-public).
        assert_eq!(joined.len(), 2);
        let both = View::from_labels([k, g]);
        let seen = joined.project(&both);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1.fields[0], Value::from("Carol's surprise party"));
        // A viewer with only g sees the public event side.
        let only_g = View::from_labels([g]);
        let seen = joined.project(&only_g);
        assert_eq!(seen[0].1.fields[0], Value::from("Private event"));
        // A viewer without g sees no joined row at all.
        assert!(joined.project(&View::from_labels([k])).is_empty());
    }

    #[test]
    fn save_without_pc_overwrites() {
        let (db, _, jid) = event_db();
        let new = Faceted::leaf(Some(vec![Value::from("X"), Value::from("Y")]));
        db.save("event", jid, &new, &Branches::new()).unwrap();
        assert_eq!(db.physical_rows("event").unwrap(), 1);
        let obj = db.get("event", jid).unwrap();
        assert_eq!(obj, new);
    }

    #[test]
    fn save_under_pc_keeps_old_value_for_other_views() {
        // The Dagstuhl-update example of §2.2: a write inside a branch
        // on sensitive data becomes ⟨k ? new : old⟩.
        let (db, k, jid) = event_db();
        let new = Faceted::leaf(Some(vec![
            Value::from("Carol's surprise party"),
            Value::from("Dagstuhl event!"),
        ]));
        let pc = Branches::new().with(Branch::pos(k));
        db.save("event", jid, &new, &pc).unwrap();
        let obj = db.get("event", jid).unwrap();
        assert_eq!(
            obj.project(&View::from_labels([k])).clone().unwrap()[1],
            Value::from("Dagstuhl event!")
        );
        assert_eq!(
            obj.project(&View::empty()).clone().unwrap()[1],
            Value::from("Undisclosed location"),
            "unauthorized views keep the old facet"
        );
    }

    #[test]
    fn guarded_delete_hides_for_matching_views() {
        let (db, k, jid) = event_db();
        let pc = Branches::new().with(Branch::pos(k));
        db.delete("event", jid, &pc).unwrap();
        let obj = db.get("event", jid).unwrap();
        assert_eq!(obj.project(&View::from_labels([k])), &None);
        assert!(obj.project(&View::empty()).is_some());
    }

    #[test]
    fn full_delete_removes_object() {
        let (db, _, jid) = event_db();
        db.delete("event", jid, &Branches::new()).unwrap();
        assert!(matches!(
            db.get("event", jid),
            Err(FormError::NoSuchObject { .. })
        ));
        assert_eq!(db.physical_rows("event").unwrap(), 0);
    }

    #[test]
    fn form_db_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FormDb>();
        assert_send_sync::<FacetedObject>();
        assert_send_sync::<FacetedList<crate::GuardedRow>>();
    }

    #[test]
    fn explicit_constraint_matches_db_level_pruning() {
        let (mut db, k, jid) = event_db();
        let constraint = Branches::new().with(Branch::pos(k));
        let explicit_all = db.all_with("event", Some(&constraint)).unwrap();
        let explicit_get = db.get_with("event", jid, Some(&constraint)).unwrap();
        db.set_pruning(Some(constraint));
        assert_eq!(db.all("event").unwrap(), explicit_all);
        assert_eq!(db.get("event", jid).unwrap(), explicit_get);
        assert_eq!(explicit_all.len(), 1);
    }

    #[test]
    fn early_pruning_reconstructs_fewer_facets() {
        let (mut db, k, _) = event_db();
        db.set_pruning(Some(Branches::new().with(Branch::pos(k))));
        let all = db.all("event").unwrap();
        assert_eq!(all.len(), 1, "only the consistent facet is unmarshalled");
        assert_eq!(
            all.project(&View::from_labels([k]))[0].fields[0],
            Value::from("Carol's surprise party")
        );
    }

    #[test]
    fn pruned_get_matches_unpruned_projection() {
        let (mut db, k, jid) = event_db();
        let full = db.get("event", jid).unwrap();
        db.set_pruning(Some(Branches::new().with(Branch::pos(k))));
        let pruned = db.get("event", jid).unwrap();
        let view = View::from_labels([k]);
        assert_eq!(pruned.project(&view), full.project(&view));
    }

    #[test]
    fn missing_object_is_reported() {
        let (db, _, _) = event_db();
        assert!(matches!(
            db.get("event", 999),
            Err(FormError::NoSuchObject { .. })
        ));
    }

    #[test]
    fn malformed_jvars_detected() {
        let (mut db, _, _) = event_db();
        db.raw()
            .insert(
                "event",
                vec![
                    Value::from("x"),
                    Value::from("y"),
                    Value::Int(50),
                    Value::from("garbage-jvars"),
                ],
            )
            .unwrap();
        assert!(matches!(db.get("event", 50), Err(FormError::BadJvars(_))));
    }

    #[test]
    fn cache_hit_shares_storage_and_survives_reads() {
        let (db, _, jid) = event_db();
        let first = db.all("event").unwrap();
        let second = db.all("event").unwrap();
        assert!(
            second.shares_rows_with(&first),
            "a cache hit returns the same decoded snapshot"
        );
        let stats = db.decode_cache_stats();
        assert_eq!(stats.misses, 1, "one cold decode");
        assert!(stats.hits >= 1);
        // Reads (get / filter) also ride the snapshot without
        // invalidating it.
        let _ = db.get("event", jid).unwrap();
        let _ = db
            .filter_eq("event", "location", Value::from("Schloss Dagstuhl"))
            .unwrap();
        assert_eq!(db.decode_cache_stats().misses, 1);
    }

    #[test]
    fn writes_invalidate_exactly_the_written_table() {
        let (mut db, _, _) = event_db();
        db.create_table("other", vec![ColumnDef::new("x", ColumnType::Int)])
            .unwrap();
        db.insert("other", &Faceted::leaf(Some(vec![Value::Int(1)])))
            .unwrap();
        let _ = db.all("event").unwrap();
        let _ = db.all("other").unwrap();
        let event_gen = db.cached_generation("event").unwrap();
        let other_gen = db.cached_generation("other").unwrap();

        // A write to `other` must stale only `other`'s snapshot.
        db.insert("other", &Faceted::leaf(Some(vec![Value::Int(2)])))
            .unwrap();
        assert_eq!(
            db.cached_generation("event"),
            Some(event_gen),
            "unrelated table keeps its snapshot"
        );
        assert_eq!(db.raw_ref().generation("event").unwrap(), event_gen);
        assert!(db.raw_ref().generation("other").unwrap() > other_gen);

        let stats_before = db.decode_cache_stats();
        let _ = db.all("event").unwrap();
        assert_eq!(
            db.decode_cache_stats().misses,
            stats_before.misses,
            "event still served from cache"
        );
        assert_eq!(
            db.decode_cache_stats().delta_applies,
            stats_before.delta_applies,
            "a current slot needs no repair"
        );
        let rows = db.all("other").unwrap();
        assert_eq!(rows.len(), 2, "the write is visible");
        assert_eq!(
            db.decode_cache_stats().misses,
            stats_before.misses,
            "other's stale slot is repaired from deltas, not re-decoded"
        );
        assert_eq!(
            db.decode_cache_stats().delta_applies,
            stats_before.delta_applies + 1
        );

        // With delta maintenance ablated, the same write pattern pays
        // the full re-decode — the pre-journal behavior.
        db.set_delta_maintenance(false);
        db.insert("other", &Faceted::leaf(Some(vec![Value::Int(3)])))
            .unwrap();
        let misses_before = db.decode_cache_stats().misses;
        let _ = db.all("other").unwrap();
        assert_eq!(
            db.decode_cache_stats().misses,
            misses_before + 1,
            "other re-decoded after the write with deltas off"
        );
    }

    #[test]
    fn cache_disabled_path_is_identical() {
        let (mut db, k, jid) = event_db();
        let cached_all = db.all("event").unwrap();
        let cached_get = db.get("event", jid).unwrap();
        let constraint = Branches::new().with(Branch::pos(k));
        let cached_pruned = db.all_with("event", Some(&constraint)).unwrap();
        db.set_decode_cache(false);
        assert_eq!(db.all("event").unwrap(), cached_all);
        assert_eq!(db.get("event", jid).unwrap(), cached_get);
        assert_eq!(
            db.all_with("event", Some(&constraint)).unwrap(),
            cached_pruned
        );
        assert_eq!(db.cached_generation("event"), None, "snapshots dropped");
    }

    #[test]
    fn join_on_meta_column_is_an_error_not_a_panic() {
        let (db, _, _) = event_db();
        assert!(matches!(
            db.join_on_fk("event", JID, "event"),
            Err(FormError::Db(microdb::DbError::InvalidOperation(_)))
        ));
        assert!(matches!(
            db.join_on_fk("event", "nope", "event"),
            Err(FormError::Db(microdb::DbError::NoSuchColumn(_)))
        ));
    }

    #[test]
    fn selective_get_after_write_does_not_decode_whole_table() {
        // A write+get loop must stay O(rows-of-the-object) per get,
        // not O(table). With delta maintenance the stale snapshot is
        // repaired in place (one decoded row per insert); with it
        // ablated, an indexed single-object lookup decodes only its
        // matched rows and leaves snapshot rebuilding to the next
        // full-table read.
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        for i in 0..64 {
            db.insert("t", &Faceted::leaf(Some(vec![Value::Int(i)])))
                .unwrap();
        }
        let _ = db.all("t").unwrap(); // snapshot at current generation
        db.insert("t", &Faceted::leaf(Some(vec![Value::Int(64)])))
            .unwrap(); // stales it
        let stats = db.decode_cache_stats();
        let obj = db.get("t", 1).unwrap();
        assert!(obj.project(&View::empty()).is_some());
        assert_eq!(
            db.cached_generation("t"),
            Some(db.raw_ref().generation("t").unwrap()),
            "the get advanced the slot"
        );
        assert_eq!(
            db.decode_cache_stats().delta_applies,
            stats.delta_applies + 1,
            "the get repaired the snapshot from the insert's delta"
        );
        // The repaired snapshot serves the next all() without a
        // re-decode, and repeated gets ride the object memo.
        let misses = db.decode_cache_stats().misses;
        let all = db.all("t").unwrap();
        assert_eq!(all.len(), 65);
        assert_eq!(db.decode_cache_stats().misses, misses);
        let again = db.get("t", 1).unwrap();
        assert_eq!(again, obj);
        assert_eq!(db.decode_cache_stats().misses, misses);

        // Ablated: the selective get must not pay a full-table decode
        // — the next all() re-decodes (one more miss).
        db.set_delta_maintenance(false);
        db.insert("t", &Faceted::leaf(Some(vec![Value::Int(65)])))
            .unwrap();
        let _ = db.get("t", 1).unwrap();
        let misses = db.decode_cache_stats().misses;
        let _ = db.all("t").unwrap();
        assert_eq!(db.decode_cache_stats().misses, misses + 1);
    }

    #[test]
    fn warm_indexed_filter_shares_the_snapshot() {
        let (mut db, k, _) = event_db();
        db.create_index("event", "location").unwrap();
        let all = db.all("event").unwrap();
        let before = db.decode_cache_stats();
        let hit = db
            .filter_eq("event", "location", Value::from("Schloss Dagstuhl"))
            .unwrap();
        assert!(
            hit.shares_rows_with(&all),
            "the matched rows are a selection of the cached snapshot"
        );
        assert_eq!(hit.len(), 1);
        assert_eq!(hit.project(&View::from_labels([k])).len(), 1);
        let after = db.decode_cache_stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
    }

    #[test]
    fn selective_reads_of_a_selective_only_table_decode_it_once() {
        // A table only ever read through an index (reviews, conflicts,
        // enrollments, waivers) still gets a decoded snapshot: the first
        // selective read decodes it, every later one selects from it,
        // and a write is repaired from its delta instead of re-decoded.
        const READS: u64 = 32;
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        db.create_index("t", "v").unwrap();
        for i in 0..64 {
            db.insert("t", &Faceted::leaf(Some(vec![Value::Int(i % 16)])))
                .unwrap();
        }
        let before = db.decode_cache_stats();
        for i in 0..READS {
            let rows = db.filter_eq("t", "v", Value::Int(i as i64 % 16)).unwrap();
            assert_eq!(rows.len(), 4);
        }
        let after = db.decode_cache_stats();
        assert_eq!(after.misses - before.misses, 1, "one decode for all reads");
        assert_eq!(after.hits - before.hits, READS - 1);
        db.insert("t", &Faceted::leaf(Some(vec![Value::Int(3)])))
            .unwrap();
        assert_eq!(db.filter_eq("t", "v", Value::Int(3)).unwrap().len(), 5);
        let repaired = db.decode_cache_stats();
        assert_eq!(repaired.misses, after.misses, "the write did not re-decode");
        assert_eq!(repaired.delta_applies, after.delta_applies + 1);
    }

    #[test]
    fn single_row_insert_into_large_table_is_served_by_delta_repair() {
        // The acceptance pin: a 1-row insert into an n=1024 table
        // followed by all() must be served by delta application (one
        // decoded row), not a full re-decode of all 1024 rows.
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        for i in 0..1024 {
            db.insert("t", &Faceted::leaf(Some(vec![Value::Int(i)])))
                .unwrap();
        }
        let _ = db.all("t").unwrap();
        let stats = db.decode_cache_stats();
        db.insert("t", &Faceted::leaf(Some(vec![Value::Int(1024)])))
            .unwrap();
        let all = db.all("t").unwrap();
        assert_eq!(all.len(), 1025);
        let after = db.decode_cache_stats();
        assert_eq!(after.misses, stats.misses, "no full re-decode");
        assert_eq!(after.delta_applies, stats.delta_applies + 1);
        assert_eq!(after.hits, stats.hits + 1, "served as a cache hit");
    }

    #[test]
    fn concurrent_readers_advance_a_stale_slot_once_per_write() {
        // Readers on a warm table race one writer: every query checks
        // the slot under the shared lock and only a stale one takes
        // the exclusive lock and re-checks. The writer waits for the
        // readers to catch up after each insert, so every write meets
        // the whole pack of readers at once; a reader that skipped the
        // re-check would apply the window again (an extra apply, or
        // duplicated rows).
        const WRITES: u64 = 200;
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        let k = db.fresh_label("k");
        let object = |v: i64| {
            Faceted::split(
                k,
                Faceted::leaf(Some(vec![Value::Int(v)])),
                Faceted::leaf(Some(vec![Value::Int(-1)])),
            )
        };
        for v in 0..64 {
            db.insert("t", &object(v)).unwrap();
        }
        let _ = db.all("t").unwrap();
        let _ = db.get("t", 1).unwrap();
        let before = db.decode_cache_stats();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for reader in 0..4_i64 {
                let (db, done) = (&db, &done);
                scope.spawn(move || {
                    let mut i = 0_i64;
                    while !done.load(Ordering::Relaxed) {
                        i += 1;
                        match reader {
                            0 | 1 => assert!(db.all("t").unwrap().len() >= 128),
                            2 => assert!(db.get("t", 1 + i % 64).is_ok()),
                            _ => {
                                assert!(!db.filter_eq("t", "v", Value::Int(-1)).unwrap().is_empty())
                            }
                        }
                    }
                });
            }
            for v in 0..WRITES {
                db.insert("t", &object(64 + v as i64)).unwrap();
                let generation = db.raw_ref().generation("t").unwrap();
                while db.cached_generation("t") != Some(generation) {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Relaxed);
        });
        let all = db.all("t").unwrap();
        assert_eq!(all.len(), db.physical_rows("t").unwrap());
        let rows = |list: &FacetedList<GuardedRow>| -> Vec<GuardedRow> {
            list.iter().map(|(_, r)| r.clone()).collect()
        };
        assert_eq!(
            rows(&all),
            rows(&db.clone().all("t").unwrap()),
            "the repaired snapshot equals a cold decode"
        );
        let applies = db.decode_cache_stats().delta_applies - before.delta_applies;
        assert_eq!(applies, WRITES, "one delta apply per write");
    }

    #[test]
    fn overflowed_journal_window_falls_back_to_full_decode() {
        // Writes can outrun the journal's bounded window; the slot is
        // then unrepairable and the next read pays a full decode —
        // same rows, just slower. Correctness never depends on
        // retention.
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        for i in 0..4 {
            db.insert("t", &Faceted::leaf(Some(vec![Value::Int(i)])))
                .unwrap();
        }
        let _ = db.all("t").unwrap();
        let stats = db.decode_cache_stats();
        // Far past the journal's row budget (1024).
        for i in 0..1100 {
            db.insert("t", &Faceted::leaf(Some(vec![Value::Int(100 + i)])))
                .unwrap();
        }
        let all = db.all("t").unwrap();
        assert_eq!(all.len(), 1104);
        let after = db.decode_cache_stats();
        assert_eq!(
            after.delta_applies, stats.delta_applies,
            "window slid: no repair"
        );
        assert_eq!(after.misses, stats.misses + 1, "full re-decode instead");
        // The rebuilt snapshot matches a cold decode.
        assert_eq!(db.clone().all("t").unwrap(), all);
    }

    #[test]
    fn delta_repair_evicts_only_touched_object_memos() {
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        let a = db
            .insert("t", &Faceted::leaf(Some(vec![Value::Int(1)])))
            .unwrap();
        let b = db
            .insert("t", &Faceted::leaf(Some(vec![Value::Int(2)])))
            .unwrap();
        let obj_a = db.get("t", a).unwrap(); // memoized
        let _ = db.get("t", b).unwrap(); // memoized
        let _ = db.all("t").unwrap();
        // Rewrite b; a's memo must survive the repair.
        let new_b = Faceted::leaf(Some(vec![Value::Int(20)]));
        db.save("t", b, &new_b, &Branches::new()).unwrap();
        let stats = db.decode_cache_stats();
        let again_a = db.get("t", a).unwrap();
        assert_eq!(again_a, obj_a);
        assert_eq!(
            db.decode_cache_stats().misses,
            stats.misses,
            "untouched object's memo stays warm across the write"
        );
        let again_b = db.get("t", b).unwrap();
        assert_eq!(again_b, new_b, "touched object's memo was evicted");
    }

    #[test]
    fn raw_update_and_delete_repair_through_rewrite_deltas() {
        // Engine-level update/delete through the raw handle produce
        // Rewrite/Remove deltas; the repaired snapshot must equal a
        // cold decode.
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        for i in 0..8 {
            db.insert("t", &Faceted::leaf(Some(vec![Value::Int(i)])))
                .unwrap();
        }
        let _ = db.all("t").unwrap();
        let stats = db.decode_cache_stats();
        db.raw()
            .update(
                "t",
                &Predicate::lt(Operand::col("v"), Operand::lit(3i64)),
                &[("v".to_owned(), Value::Int(-1))],
            )
            .unwrap();
        db.raw()
            .delete("t", &Predicate::eq(Operand::col("v"), Operand::lit(5i64)))
            .unwrap();
        let repaired = db.all("t").unwrap();
        assert_eq!(repaired.len(), 7);
        let after = db.decode_cache_stats();
        assert_eq!(after.misses, stats.misses, "patched, not re-decoded");
        assert_eq!(after.delta_applies, stats.delta_applies + 1);
        assert_eq!(db.clone().all("t").unwrap(), repaired);
    }

    #[test]
    fn drop_and_recreate_does_not_resurrect_cached_rows() {
        // A recreated table restarts its generation counter, so the
        // old snapshot could otherwise look current again once the
        // new table's write count matches the old one.
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Str)])
            .unwrap();
        for s in ["old1", "old2", "old3"] {
            db.insert("t", &Faceted::leaf(Some(vec![Value::from(s)])))
                .unwrap();
        }
        let _ = db.all("t").unwrap(); // cache at generation 3
        db.raw().drop_table("t").unwrap();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Str)])
            .unwrap();
        for s in ["new1", "new2", "new3"] {
            db.insert("t", &Faceted::leaf(Some(vec![Value::from(s)])))
                .unwrap();
        }
        let rows = db.all("t").unwrap();
        let texts: Vec<&str> = rows
            .iter()
            .map(|(_, r)| r.fields[0].as_str().unwrap())
            .collect();
        assert_eq!(texts, vec!["new1", "new2", "new3"]);
    }

    #[test]
    fn restore_revalidates_instead_of_flushing_the_cache() {
        let (mut db, _, _) = event_db();
        db.create_table("other", vec![ColumnDef::new("x", ColumnType::Int)])
            .unwrap();
        db.insert("other", &Faceted::leaf(Some(vec![Value::Int(1)])))
            .unwrap();
        let _ = db.all("event").unwrap();
        let _ = db.all("other").unwrap();
        let snapshot = db.raw_ref().snapshot();
        // Post-checkpoint write stales `other` relative to the
        // snapshot; `event` is untouched.
        db.insert("other", &Faceted::leaf(Some(vec![Value::Int(2)])))
            .unwrap();
        let _ = db.all("other").unwrap(); // cache re-warmed past the snapshot
        let misses_before = db.decode_cache_stats().misses;

        db.restore_database(&snapshot).unwrap();
        assert_eq!(
            db.cached_generation("event"),
            Some(db.raw_ref().generation("event").unwrap()),
            "matching-generation slot survives the restore"
        );
        assert_eq!(
            db.cached_generation("other"),
            None,
            "rolled-back table's slot is dropped"
        );
        let _ = db.all("event").unwrap();
        assert_eq!(
            db.decode_cache_stats().misses,
            misses_before,
            "event is served from the revalidated snapshot"
        );
        let rows = db.all("other").unwrap();
        assert_eq!(rows.len(), 1, "restored state, not the later write");
        assert_eq!(db.decode_cache_stats().misses, misses_before + 1);
    }

    #[test]
    fn meta_export_restore_round_trips_allocation_state() {
        let (db, _, _) = event_db();
        let extra = db.fresh_label("event_policy"); // α-renamed duplicate
        let meta = db.export_meta();
        assert_eq!(meta.labels.len(), 2);
        assert_eq!(meta.next_jid.get("event"), Some(&2));

        let mut fresh = FormDb::new();
        fresh.restore_meta(&meta);
        assert_eq!(
            fresh.labels().name(extra),
            db.labels().name(extra),
            "stored names restore verbatim"
        );
        // Allocation continues past the restored state: no reuse of a
        // persisted index, no jid collision.
        assert_eq!(fresh.fresh_label("next").index(), 2);
        assert_eq!(fresh.reserve_jid("event"), 2);
        // import_label + bump_next_jid are the write-log replay hooks:
        // a label lands at its recorded index, past a gap if need be.
        let replayed = fresh.import_label(5, "replayed.label");
        assert_eq!(replayed.index(), 5);
        assert_eq!(fresh.labels().name(replayed), "replayed.label");
        assert_eq!(fresh.labels().len(), 6, "indices 3 and 4 hold placeholders");
        fresh.bump_next_jid("event", 9);
        assert_eq!(fresh.reserve_jid("event"), 9);
        fresh.bump_next_jid("event", 3); // never regresses
        assert_eq!(fresh.reserve_jid("event"), 10);
    }

    #[test]
    fn object_jids_enumerates_distinct_objects() {
        let (db, _, jid) = event_db();
        assert_eq!(db.object_jids("event").unwrap(), vec![jid]);
        let second = db
            .insert(
                "event",
                &Faceted::leaf(Some(vec![Value::from("x"), Value::from("y")])),
            )
            .unwrap();
        assert_eq!(db.object_jids("event").unwrap(), vec![jid, second]);
    }

    #[test]
    fn attached_wal_captures_marshalled_rows() {
        let path = std::env::temp_dir().join(format!("form_wal_test_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut db, k, jid) = event_db();
        let baseline = db.raw_ref().snapshot();
        db.attach_wal(std::sync::Arc::new(microdb::WriteLog::open(&path).unwrap()));
        // A guarded save rewrites several facet rows, logged as ONE
        // atomic batch record so a failed append can never leave a
        // torn object in the log.
        let pc = faceted::Branches::new().with(faceted::Branch::pos(k));
        db.save(
            "event",
            jid,
            &Faceted::leaf(Some(vec![Value::from("new"), Value::from("spot")])),
            &pc,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "one record for the whole save");
        let record = microdb::BatchRecord::parse(text.trim_end()).unwrap();
        assert_eq!(
            (record.from, record.to),
            (
                baseline.table("event").unwrap().generation,
                db.raw_ref().generation("event").unwrap()
            ),
            "every delta of the save, in one record"
        );

        let mut restored = microdb::Database::new();
        restored.restore(&baseline).unwrap();
        let stats = microdb::WriteLog::replay(&path, &restored).unwrap();
        assert_eq!(stats.applied, 1, "the batch replays as a unit");
        assert_eq!(
            restored.table("event").unwrap().rows(),
            db.raw_ref().table("event").unwrap().rows()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_wal_append_rolls_back_the_whole_save() {
        use microdb::faults::{self, FaultKind, FaultPoint};
        let path = std::env::temp_dir().join(format!("form_walfault_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut db, k, jid) = event_db();
        db.attach_wal(std::sync::Arc::new(microdb::WriteLog::open(&path).unwrap()));
        let before = db.get("event", jid).unwrap();
        let rows_before = db.raw_ref().table("event").unwrap().rows().to_vec();

        faults::arm_at(FaultPoint::WalAppend, 0, FaultKind::Error, "form_walfault");
        let pc = faceted::Branches::new().with(faceted::Branch::pos(k));
        let err = db
            .save(
                "event",
                jid,
                &Faceted::leaf(Some(vec![Value::from("lost"), Value::from("write")])),
                &pc,
            )
            .unwrap_err();
        assert!(format!("{err}").contains("injected"), "{err}");

        // The failed save is invisible: the old rows are intact in
        // memory (the delete rolled back too) and the log is empty.
        assert_eq!(
            db.raw_ref().table("event").unwrap().rows(),
            rows_before.as_slice()
        );
        assert_eq!(db.get("event", jid).unwrap(), before);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);

        // The store keeps working: a retry (fault now spent) lands.
        db.save(
            "event",
            jid,
            &Faceted::leaf(Some(vec![Value::from("second"), Value::from("try")])),
            &pc,
        )
        .unwrap();
        assert_ne!(db.get("event", jid).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_writes_invalidate_through_generations() {
        let (mut db, _, _) = event_db();
        let before = db.all("event").unwrap();
        assert_eq!(before.len(), 2);
        db.raw()
            .insert(
                "event",
                vec![
                    Value::from("late"),
                    Value::from("row"),
                    Value::Int(77),
                    Value::from(""),
                ],
            )
            .unwrap();
        let after = db.all("event").unwrap();
        assert_eq!(after.len(), 3, "raw write visible despite the cache");
    }

    #[test]
    fn jid_order_tracks_first_appearance_and_in_place_save_keeps_it() {
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        let jids: Vec<i64> = (0..4)
            .map(|i| {
                db.insert("t", &Faceted::leaf(Some(vec![Value::Int(i)])))
                    .unwrap()
            })
            .collect();
        assert_eq!(db.jid_order("t").unwrap(), jids);
        // A structure-preserving `save` overwrites rows where they
        // sit: the object keeps its slot in first-appearance order
        // and the table's tail never shifts.
        db.save(
            "t",
            jids[1],
            &Faceted::leaf(Some(vec![Value::Int(99)])),
            &Branches::new(),
        )
        .unwrap();
        assert_eq!(db.jid_order("t").unwrap(), jids, "in-place save");
        let view = faceted::View::empty();
        let got = db.get("t", jids[1]).unwrap().project(&view).clone();
        assert_eq!(got, Some(vec![Value::Int(99)]), "the write landed");
        // A guard-structure change (a policy label appears) falls
        // back to delete + re-insert: the object's rows — and its
        // slot in first-appearance order — move to the end.
        let k = db.fresh_label("late_policy");
        db.save(
            "t",
            jids[1],
            &Faceted::split(
                k,
                Faceted::leaf(Some(vec![Value::Int(100)])),
                Faceted::leaf(Some(vec![Value::Int(-1)])),
            ),
            &Branches::new(),
        )
        .unwrap();
        assert_eq!(
            db.jid_order("t").unwrap(),
            vec![jids[0], jids[2], jids[3], jids[1]]
        );
        let mut ascending = db.object_jids("t").unwrap();
        ascending.sort_unstable();
        assert_eq!(
            db.object_jids("t").unwrap(),
            ascending,
            "object_jids stays sorted"
        );
    }

    #[test]
    fn touched_jids_since_reports_append_rewrite_and_remove() {
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        let a = db
            .insert("t", &Faceted::leaf(Some(vec![Value::Int(1)])))
            .unwrap();
        let b = db
            .insert("t", &Faceted::leaf(Some(vec![Value::Int(2)])))
            .unwrap();
        let g0 = db.raw_ref().generation("t").unwrap();
        assert_eq!(
            db.touched_jids_since("t", g0).unwrap(),
            Some(Vec::new()),
            "nothing written since g0"
        );
        // A save is delete + re-insert: Remove + Append deltas, one jid.
        db.save(
            "t",
            b,
            &Faceted::leaf(Some(vec![Value::Int(20)])),
            &Branches::new(),
        )
        .unwrap();
        assert_eq!(db.touched_jids_since("t", g0).unwrap(), Some(vec![b]));
        // An engine-level update produces Rewrite deltas; both old and
        // new rows name the same jid here.
        db.raw()
            .update(
                "t",
                &Predicate::eq(Operand::col("v"), Operand::lit(1i64)),
                &[("v".to_owned(), Value::Int(-1))],
            )
            .unwrap();
        assert_eq!(db.touched_jids_since("t", g0).unwrap(), Some(vec![a, b]));
    }

    #[test]
    fn touched_jids_since_refuses_slid_windows_and_future_stamps() {
        let mut db = FormDb::new();
        db.create_table("t", vec![ColumnDef::new("v", ColumnType::Int)])
            .unwrap();
        db.insert("t", &Faceted::leaf(Some(vec![Value::Int(0)])))
            .unwrap();
        let g = db.raw_ref().generation("t").unwrap();
        assert_eq!(
            db.touched_jids_since("t", g + 1).unwrap(),
            None,
            "a stamp from the future (restore to an older checkpoint) must fall back"
        );
        // Push the journal past its row budget (1024 rows); the
        // window slides off g.
        for i in 0..1100i64 {
            db.insert("t", &Faceted::leaf(Some(vec![Value::Int(i)])))
                .unwrap();
        }
        assert_eq!(
            db.touched_jids_since("t", g).unwrap(),
            None,
            "a slid-past window must fall back"
        );
    }

    /// A result's rows, in order, with their guards and fields.
    fn listed(rows: &FacetedList<GuardedRow>) -> Vec<(Branches, GuardedRow)> {
        rows.iter().map(|(g, r)| (g.clone(), r.clone())).collect()
    }

    /// `filter_eq` must answer exactly what the planner answers for
    /// `col = v`, row for row, on the direct index probe and on every
    /// fallback to the planner.
    #[test]
    fn filter_eq_matches_the_planner_on_every_path() {
        let mut db = FormDb::new();
        db.create_table(
            "t",
            vec![
                ColumnDef::new("k", ColumnType::Int).nullable(),
                ColumnDef::new("u", ColumnType::Int).nullable(),
                ColumnDef::new("s", ColumnType::Str),
            ],
        )
        .unwrap();
        db.create_index("t", "k").unwrap();
        let labels: Vec<Label> = (0..3).map(|i| db.fresh_label(&format!("l{i}"))).collect();
        for i in 0..24i64 {
            // Some keys NULL, some repeated; half the objects faceted.
            let key = |shift: i64| match (i + shift) % 6 {
                0 => Value::Null,
                k => Value::Int(k),
            };
            let high = Faceted::leaf(Some(vec![key(0), key(1), Value::from(format!("h{i}"))]));
            let obj = if i % 2 == 0 {
                let low = Faceted::leaf(Some(vec![key(2), key(3), Value::from("***")]));
                Faceted::split(labels[i as usize % 3], high, low)
            } else {
                high
            };
            db.insert("t", &obj).unwrap();
        }
        let probes = [
            Value::Int(1),
            Value::Int(3),
            Value::Int(99),
            Value::Float(5.0),
            Value::Float(2.5),
            Value::Null,
            Value::from("h4"),
            Value::from("***"),
        ];
        let check = |db: &FormDb, arm: &str| {
            for column in ["k", "u", "s", JID] {
                for v in &probes {
                    let probed = db.filter_eq("t", column, v.clone()).unwrap();
                    let planned = db
                        .filter(
                            "t",
                            Predicate::eq(Operand::col(column), Operand::Lit(v.clone())),
                        )
                        .unwrap();
                    assert_eq!(listed(&probed), listed(&planned), "{arm}: {column} = {v:?}");
                    if v.is_null() {
                        assert!(probed.is_empty(), "{arm}: {column} = NULL matches nothing");
                    }
                }
            }
            // The Int column really holds what the Float probes.
            assert!(!db
                .filter_eq("t", "k", Value::Float(5.0))
                .unwrap()
                .is_empty());
        };
        check(&db, "clean index");

        // A cold `get` (probe path) builds the same object as the
        // planner's rows do.
        for jid in 1..=24 {
            let cold = db.clone().get("t", jid).unwrap();
            let query =
                Query::from("t").filter(Predicate::eq(Operand::col(JID), Operand::lit(jid)));
            let rows = db.select_decoded("t", &query, None).unwrap();
            let planned = rebuild_rows(jid, rows.len(), |i| leaf_of(rows.row(i).1)).unwrap();
            assert_eq!(cold, planned, "jid {jid}");
        }

        // An index left dirty by a raw update: the probe must fall back.
        let mut dirty = db.clone();
        dirty
            .raw()
            .table_mut("t")
            .unwrap()
            .update_where(
                |r| r[0] == Value::Int(2),
                &[("k".to_owned(), Value::Int(3))],
            )
            .unwrap();
        assert!(dirty
            .raw_ref()
            .table("t")
            .unwrap()
            .index_probe_ref("k", &Value::Int(3))
            .is_none());
        check(&dirty, "dirty index");

        let mut uncached = db.clone();
        uncached.set_decode_cache(false);
        check(&uncached, "cache off");

        let mut pruned = db.clone();
        pruned.set_pruning(Some(Branches::from_iter([
            Branch::pos(labels[0]),
            Branch::neg(labels[1]),
        ])));
        check(&pruned, "pruning constraint");
    }
}
