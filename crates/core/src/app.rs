//! The Jacqueline application object: policy-agnostic object manager
//! plus the label → policy bindings a [`Session`](crate::Session)
//! resolves.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use faceted::{Faceted, FacetedList, Label, View};
use form::{FacetedObject, FormDb, FormResult, GuardedRow};
use microdb::{Predicate, Row, SortOrder, Value};

use crate::model::{FieldPolicy, ModelDef, PolicyFn};

/// A policy attached to a live label: the check plus the
/// creation-time row snapshot it closes over (§2.1.2: "with respect
/// to the value of event at the time a value is created and the state
/// of the system at the time of output"). The durable binding is the
/// object's row in its model's binding table, from which a restore
/// re-attaches the (unserializable) closure of the re-registered
/// model.
///
/// Entries are shared behind an `Arc`: resolving a label looks its
/// entry up and runs the check on it, which then costs one reference
/// count bump rather than a copy of the row.
pub(crate) struct PolicyEntry {
    pub(crate) check: PolicyFn,
    pub(crate) row: Row,
    pub(crate) jid: i64,
}

/// A Jacqueline application: registered models, the faceted database,
/// and the label→policy map.
///
/// The programmer's contract (§2): declare policies in the models,
/// access data only through this API, and the runtime guarantees
/// outputs comply with the policies.
///
/// # Concurrency
///
/// Mutating object operations ([`App::create`], [`App::save`],
/// [`App::update_fields`]) take `&self`: storage is locked per table
/// inside the database layer, and the label→policy bookkeeping sits
/// behind its own locks, so requests writing *different* tables run
/// fully in parallel. Request-level isolation (a reader never sees
/// half of a multi-statement write) is the
/// [`Executor`](crate::Executor)'s job via footprint locks. Only
/// structural setup ([`App::register_model`]) still needs `&mut self`.
pub struct App {
    /// The faceted database.
    pub db: FormDb,
    models: BTreeMap<String, ModelDef>,
    /// Policy bindings indexed by [`Label::index`]: labels are dense
    /// allocation counters, so a lookup is one bounds-checked load.
    /// Which labels an object has is recorded once, in its binding
    /// row ([`FormDb::binding`]).
    pub(crate) policies: RwLock<Vec<Option<Arc<PolicyEntry>>>>,
    /// Request-level footprint locks, owned by the app so concurrent
    /// executor runs against the same app isolate against each other.
    pub(crate) request_locks: crate::executor::RequestLocks,
    /// The generation-validated cache of rendered pages, consulted by
    /// the executor under footprint locks (see
    /// [`rendercache`](crate::rendercache)).
    pub(crate) render_cache: crate::rendercache::RenderCache,
    /// `Some(reason)` while the app is in **read-only degraded mode**:
    /// a durable write failed (a WAL append — disk full, I/O error),
    /// the in-memory mutation was rolled back, and the executor
    /// answers write routes `503 Retry-After` until a successful
    /// checkpoint re-establishes durability and clears the flag.
    /// Reads keep serving throughout — they are exactly as consistent
    /// as before the fault.
    degraded: RwLock<Option<String>>,
    /// The persistence directory [`App::enable_persistence`] attached
    /// its log to — where scheduled checkpoints land.
    pub(crate) persist_dir: RwLock<Option<std::path::PathBuf>>,
    /// Whether checkpoints may reuse clean chunks from the previous
    /// checkpoint (the default) or must re-export everything (the
    /// `--no-incremental` ablation).
    incremental_checkpoints: std::sync::atomic::AtomicBool,
    /// What the last successful checkpoint wrote — the clean-chunk
    /// reuse substrate (see [`checkpoint`](crate::checkpoint)).
    pub(crate) ckpt_memory: std::sync::Mutex<Option<crate::checkpoint::CheckpointMemory>>,
    /// Checkpoints the executor's scheduler has completed.
    pub(crate) scheduled_checkpoints: std::sync::atomic::AtomicU64,
}

impl App {
    /// Creates an application with an empty database.
    #[must_use]
    pub fn new() -> App {
        App {
            db: FormDb::new(),
            models: BTreeMap::new(),
            policies: RwLock::new(Vec::new()),
            request_locks: crate::executor::RequestLocks::default(),
            render_cache: crate::rendercache::RenderCache::new(),
            degraded: RwLock::new(None),
            persist_dir: RwLock::new(None),
            incremental_checkpoints: std::sync::atomic::AtomicBool::new(true),
            ckpt_memory: std::sync::Mutex::new(None),
            scheduled_checkpoints: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The reason this app is in read-only degraded mode, or `None`
    /// when healthy. See the `degraded` field for the protocol.
    #[must_use]
    pub fn degraded_reason(&self) -> Option<String> {
        self.degraded.read().expect("degraded flag").clone()
    }

    /// Whether the app is currently in read-only degraded mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.read().expect("degraded flag").is_some()
    }

    /// Enters degraded mode (first reason wins — later faults while
    /// already degraded do not overwrite the original diagnosis).
    pub(crate) fn enter_degraded(&self, reason: String) {
        let mut flag = self.degraded.write().expect("degraded flag");
        flag.get_or_insert(reason);
    }

    /// Leaves degraded mode — called after a successful checkpoint
    /// has re-established durability (the log is freshly compacted,
    /// so the next append starts clean).
    pub(crate) fn clear_degraded(&self) {
        *self.degraded.write().expect("degraded flag") = None;
    }

    /// Inspects a write result: a persistence error (`DbError::
    /// Persist` — a failed WAL append) flips the app into read-only
    /// degraded mode. Logic errors (type mismatches, unknown tables …)
    /// are the caller's bug, not a storage fault, and leave the mode
    /// untouched.
    fn note_write_result<T>(&self, result: &FormResult<T>) {
        if let Err(form::FormError::Db(microdb::DbError::Persist(reason))) = result {
            self.enter_degraded(reason.clone());
        }
    }

    /// Switches the render cache on or off (the uncached reference arm
    /// of the differential grids and the chaos oracle). Returns the previous setting; disabling drops every
    /// stored page. Takes `&self`: unlike the decode cache this is
    /// toggled on served apps behind `Arc`s.
    pub fn set_render_cache(&self, enabled: bool) -> bool {
        self.render_cache.set_enabled(enabled)
    }

    /// Whether the render cache is currently enabled.
    #[must_use]
    pub fn render_cache_enabled(&self) -> bool {
        self.render_cache.enabled()
    }

    /// Switches the render cache's fragment-repair path on or off
    /// (the no-repair reference arm of the differential grids and the
    /// `--no-fragments` chaos arm). Returns the previous setting.
    /// Disabled, the cache behaves exactly as before repair existed:
    /// entries store un-fragmented and every stale probe is a full
    /// invalidation.
    pub fn set_fragment_repair(&self, enabled: bool) -> bool {
        self.render_cache.set_fragments_enabled(enabled)
    }

    /// Whether fragment repair is currently enabled.
    #[must_use]
    pub fn fragment_repair_enabled(&self) -> bool {
        self.render_cache.fragments_enabled()
    }

    /// Switches incremental (chunk-reusing) checkpoints on or off
    /// (the `--no-incremental` chaos arm and the full-checkpoint
    /// reference arm of the checkpoint tests use this). Returns the
    /// previous setting. Disabled, every checkpoint re-exports and
    /// re-chunks everything, exactly like the first checkpoint of a
    /// fresh process.
    pub fn set_incremental_checkpoints(&self, enabled: bool) -> bool {
        self.incremental_checkpoints
            .swap(enabled, std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether incremental checkpoints are currently enabled.
    #[must_use]
    pub fn incremental_checkpoints_enabled(&self) -> bool {
        self.incremental_checkpoints
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The directory persistence was enabled on, if any — the target
    /// of scheduled checkpoints.
    #[must_use]
    pub fn persist_dir(&self) -> Option<std::path::PathBuf> {
        self.persist_dir.read().expect("persist dir").clone()
    }

    /// Checkpoints completed by the executor's scheduler (as opposed
    /// to operator-triggered `admin/checkpoint` calls).
    #[must_use]
    pub fn scheduled_checkpoint_count(&self) -> u64 {
        self.scheduled_checkpoints
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// WAL pressure since the last checkpoint: `(records, bytes)`
    /// appended to the row log since it was last truncated/compacted.
    /// `(0, 0)` when persistence is not enabled.
    #[must_use]
    pub fn wal_pressure(&self) -> (u64, u64) {
        self.db.raw_ref().wal().map_or((0, 0), |wal| {
            (wal.records_since_truncate(), wal.bytes_since_truncate())
        })
    }

    /// Render-cache hit/miss/repair/invalidated/uncacheable counters
    /// since construction.
    #[must_use]
    pub fn render_cache_stats(&self) -> crate::rendercache::RenderCacheStats {
        self.render_cache.stats()
    }

    /// Registers a model, creating its backing table and, when it has
    /// policies, its binding table (see
    /// [`FormDb::create_binding_table`]).
    ///
    /// # Errors
    ///
    /// Propagates table-creation errors.
    pub fn register_model(&mut self, model: ModelDef) -> FormResult<()> {
        self.db.create_table(&model.name, model.columns.clone())?;
        if !model.policies.is_empty() {
            self.db
                .create_binding_table(&model.name, model.policies.len())?;
        }
        self.models.insert(model.name.clone(), model);
        Ok(())
    }

    /// The registered model definition.
    ///
    /// # Panics
    ///
    /// Panics if the model was not registered (a programming error).
    #[must_use]
    pub fn model(&self, name: &str) -> &ModelDef {
        self.models
            .get(name)
            .unwrap_or_else(|| panic!("model {name} not registered"))
    }

    /// `Model.objects.create(...)`: allocates one label per field
    /// policy, builds the faceted object (secret facets on the
    /// high side, computed public views on the low side), records the
    /// policies, and stores the physical rows.
    ///
    /// # Errors
    ///
    /// Propagates insertion errors. A *persistence* failure (the WAL
    /// append) additionally flips the app into read-only degraded
    /// mode — the rows and policy bindings were rolled back, so reads
    /// stay consistent while the executor sheds writes.
    pub fn create(&self, model_name: &str, row: Row) -> FormResult<i64> {
        let result = self.create_impl(model_name, row);
        self.note_write_result(&result);
        result
    }

    fn create_impl(&self, model_name: &str, row: Row) -> FormResult<i64> {
        let model = self.model(model_name);
        let jid = self.db.reserve_jid(&model.name);
        let labels: Vec<Label> = model
            .policies
            .iter()
            .map(|_| self.db.fresh_label())
            .collect();
        // Bind before the rows land: a reader must never find a facet
        // row whose label has no policy (an unbound label defaults to
        // shown).
        for (policy_ix, label) in labels.iter().enumerate() {
            self.bind_policy(*label, model_name, policy_ix, jid, &row)?;
        }
        let object = facet_row(&model.policies, &labels, &row);
        // The binding row (labels and creation-time row) commits with
        // the facet rows: durable together or not at all.
        if let Err(e) = self
            .db
            .insert_created(&model.name, jid, &object, &row, &labels)
        {
            // Nothing of the object became durable: take its bindings
            // back so no checkpoint exports them. The labels stay
            // allocated — skipped indices are harmless, reused ones
            // are not.
            self.unbind(&labels);
            return Err(e);
        }
        Ok(jid)
    }

    /// Names of the registered models, in registration (name) order.
    #[must_use]
    pub fn model_names(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// Drops every policy binding — the first step of a restore's
    /// rebinding (the binding tables' rows replace them wholesale).
    pub(crate) fn clear_policy_state(&self) {
        self.policies.write().expect("policy lock").clear();
    }

    /// Attaches one policy binding: the check closure comes from this
    /// app's registered model (closures cannot be serialized; the
    /// `(model, policy index)` pair is their stable name), everything
    /// else from the binding row or the create. Binding is idempotent.
    pub(crate) fn bind_policy(
        &self,
        label: Label,
        model_name: &str,
        policy_ix: usize,
        jid: i64,
        row: &Row,
    ) -> FormResult<()> {
        let model = self.models.get(model_name).ok_or_else(|| {
            form::FormError::Db(microdb::DbError::Persist(format!(
                "checkpoint binds model {model_name:?}, which this app does not register"
            )))
        })?;
        let fp = model.policies.get(policy_ix).ok_or_else(|| {
            form::FormError::Db(microdb::DbError::Persist(format!(
                "checkpoint binds policy #{policy_ix} of model {model_name:?}, \
                 which has {} policies",
                model.policies.len()
            )))
        })?;
        // The binding table is indexed by label, so a label the
        // counter never handed out (a corrupt checkpoint) must not
        // size it.
        let allocated = self.db.label_count();
        if label.index() as usize >= allocated {
            return Err(form::FormError::Db(microdb::DbError::Persist(format!(
                "checkpoint binds label {label}, past the {allocated} labels allocated"
            ))));
        }
        let entry = Arc::new(PolicyEntry {
            check: fp.check.clone(),
            row: row.clone(),
            jid,
        });
        let mut policies = self.policies.write().expect("policy lock");
        let ix = label.index() as usize;
        if policies.len() <= ix {
            policies.resize(ix + 1, None);
        }
        policies[ix] = Some(entry);
        Ok(())
    }

    /// Drops the policy bindings of `labels` — the undo of
    /// [`App::bind_policy`] for a create whose rows never landed.
    fn unbind(&self, labels: &[Label]) {
        let mut policies = self.policies.write().expect("policy lock");
        for label in labels {
            if let Some(entry) = policies.get_mut(label.index() as usize) {
                *entry = None;
            }
        }
    }

    /// Updates columns of an object, preserving its labels and
    /// re-applying the model's public-view computations — the faceted
    /// analogue of `obj.field = v; obj.save()`. A non-empty `pc`
    /// performs the write as a guarded update. The object's labels
    /// are the ones its binding row names; a model without policies
    /// has none.
    ///
    /// # Errors
    ///
    /// Propagates lookup and write errors; an object of a model with
    /// policies that has no binding row is
    /// [`form::FormError::NoSuchObject`] in the binding table.
    pub fn update_fields(
        &self,
        model_name: &str,
        jid: i64,
        updates: &[(usize, Value)],
        pc: &faceted::Branches,
    ) -> FormResult<()> {
        let model = self.model(model_name);
        let current = self.db.get(model_name, jid)?;
        let labels = if model.policies.is_empty() {
            Vec::new()
        } else {
            self.db
                .binding(model_name, jid)?
                .ok_or_else(|| form::FormError::NoSuchObject {
                    table: form::binding_table(model_name),
                    jid,
                })?
                .labels
        };
        // The all-labels-true view is the fully secret row.
        let all_true = View::from_labels(current.labels());
        let Some(mut secret) = current.project(&all_true).clone() else {
            return Ok(()); // object absent in every authorized view
        };
        for (ix, v) in updates {
            secret[*ix] = v.clone();
        }
        let object = facet_row(&model.policies, &labels, &secret);
        let result = self.db.save(&model.name, jid, &object, pc);
        self.note_write_result(&result);
        result
    }

    /// Faceted `objects.all()`.
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn all(&self, model: &str) -> FormResult<FacetedList<GuardedRow>> {
        self.db.all(model)
    }

    /// Faceted `objects.filter(column=value)`.
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn filter_eq(
        &self,
        model: &str,
        column: &str,
        value: Value,
    ) -> FormResult<FacetedList<GuardedRow>> {
        self.db.filter_eq(model, column, value)
    }

    /// Faceted filter with an arbitrary predicate.
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn filter(&self, model: &str, predicate: Predicate) -> FormResult<FacetedList<GuardedRow>> {
        self.db.filter(model, predicate)
    }

    /// Faceted `ORDER BY`.
    ///
    /// # Errors
    ///
    /// Propagates query errors.
    pub fn order_by(
        &self,
        model: &str,
        column: &str,
        order: SortOrder,
    ) -> FormResult<FacetedList<GuardedRow>> {
        self.db.order_by(model, column, order)
    }

    /// Reconstructs a single object.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors.
    pub fn get(&self, model: &str, jid: i64) -> FormResult<FacetedObject> {
        self.db.get(model, jid)
    }

    /// Saves an object under a path condition (guarded write).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn save(
        &self,
        model: &str,
        jid: i64,
        new: &FacetedObject,
        pc: &faceted::Branches,
    ) -> FormResult<()> {
        let result = self.db.save(model, jid, new, pc);
        self.note_write_result(&result);
        result
    }

    /// The policy bound to `label`, if any. The lock is released
    /// before the caller runs the check, which may itself resolve
    /// labels.
    pub(crate) fn policy(&self, label: Label) -> Option<Arc<PolicyEntry>> {
        self.policies
            .read()
            .expect("policy lock")
            .get(label.index() as usize)?
            .clone()
    }
}

/// Facets `row` over `policies`, policy `i` guarded by `labels[i]`:
/// each split keeps the row on its secret side and puts the policy's
/// public view of its fields on the public side — the object a
/// create stores, and an update stores again.
///
/// # Panics
///
/// Panics if a public view does not produce one value per field it
/// protects (a model-definition bug).
fn facet_row(policies: &[FieldPolicy], labels: &[Label], row: &Row) -> FacetedObject {
    let mut object: FacetedObject = Faceted::leaf(Some(row.clone()));
    for (fp, label) in policies.iter().zip(labels) {
        let public_values = (fp.public_view)(row);
        assert_eq!(
            public_values.len(),
            fp.fields.len(),
            "public view must produce one value per protected field"
        );
        let public_side = object.map(&mut |opt: &Option<Row>| {
            opt.as_ref().map(|r| {
                let mut r = r.clone();
                for (ix, v) in fp.fields.iter().zip(&public_values) {
                    r[*ix] = v.clone();
                }
                r
            })
        });
        object = Faceted::split(*label, object, public_side);
    }
    object
}

impl Default for App {
    fn default() -> App {
        App::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{label_for, simple_policy};
    use crate::{Session, Viewer};
    use microdb::{ColumnDef, ColumnType};

    /// What `viewer` is shown of `obj` by a fresh request session.
    fn shown(app: &App, viewer: Viewer, obj: &FacetedObject) -> Option<Row> {
        Session::new(viewer).view_object(app, obj)
    }

    /// The paper's §2 social-calendar example, end to end.
    fn calendar_app() -> App {
        let mut app = App::new();
        let event = ModelDef::public(
            "event",
            vec![
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("location", ColumnType::Str),
            ],
        )
        .with_policy(label_for(
            "restrict_event",
            vec![0, 1],
            |_row| {
                vec![
                    Value::from("Private event"),
                    Value::from("Undisclosed location"),
                ]
            },
            |args| {
                // Policy: viewer must be on the guest list (queries the
                // EventGuest table at output time).
                let Some(user) = args.viewer.user_jid() else {
                    return Faceted::leaf(false);
                };
                let event_jid = args.jid;
                let guests = args
                    .db
                    .filter_eq("eventguest", "guest", Value::Int(user))
                    .unwrap_or_default();
                let matching = guests.filter_rows(|g| g.fields[0] == Value::Int(event_jid));
                form::faceted_count(&matching).map(&mut |n| *n > 0)
            },
        ));
        app.register_model(event).unwrap();
        app.register_model(ModelDef::public(
            "eventguest",
            vec![
                ColumnDef::new("event", ColumnType::Int),
                ColumnDef::new("guest", ColumnType::Int),
            ],
        ))
        .unwrap();
        app.register_model(ModelDef::public(
            "userprofile",
            vec![ColumnDef::new("name", ColumnType::Str)],
        ))
        .unwrap();
        app
    }

    #[test]
    fn create_allocates_labels_and_facets() {
        let app = calendar_app();
        let jid = app
            .create(
                "event",
                vec![
                    Value::from("Carol's surprise party"),
                    Value::from("Schloss Dagstuhl"),
                ],
            )
            .unwrap();
        assert_eq!(jid, 1);
        assert_eq!(app.db.physical_rows("event").unwrap(), 2);
    }

    #[test]
    fn sink_shows_secret_to_guest_public_to_other() {
        let app = calendar_app();
        let alice = app
            .create("userprofile", vec![Value::from("alice")])
            .unwrap();
        let carol = app
            .create("userprofile", vec![Value::from("carol")])
            .unwrap();
        let party = app
            .create(
                "event",
                vec![
                    Value::from("Carol's surprise party"),
                    Value::from("Schloss Dagstuhl"),
                ],
            )
            .unwrap();
        app.create("eventguest", vec![Value::Int(party), Value::Int(alice)])
            .unwrap();

        let obj = app.get("event", party).unwrap();
        let shown_alice = shown(&app, Viewer::User(alice), &obj).unwrap();
        assert_eq!(shown_alice[0], Value::from("Carol's surprise party"));
        let shown_carol = shown(&app, Viewer::User(carol), &obj).unwrap();
        assert_eq!(shown_carol[0], Value::from("Private event"));
        assert_eq!(shown_carol[1], Value::from("Undisclosed location"));
        let anon = shown(&app, Viewer::Anonymous, &obj).unwrap();
        assert_eq!(anon[0], Value::from("Private event"));
    }

    #[test]
    fn filter_on_sensitive_field_stays_protected() {
        let app = calendar_app();
        let alice = app
            .create("userprofile", vec![Value::from("alice")])
            .unwrap();
        let party = app
            .create(
                "event",
                vec![Value::from("party"), Value::from("Schloss Dagstuhl")],
            )
            .unwrap();
        app.create("eventguest", vec![Value::Int(party), Value::Int(alice)])
            .unwrap();

        let result = app
            .filter_eq("event", "location", Value::from("Schloss Dagstuhl"))
            .unwrap();
        let for_alice = Session::new(Viewer::User(alice)).view_rows(&app, &result);
        assert_eq!(for_alice.len(), 1);
        let for_anon = Session::new(Viewer::Anonymous).view_rows(&app, &result);
        assert!(
            for_anon.is_empty(),
            "outsiders must not learn the location matched"
        );
    }

    #[test]
    fn policy_reads_state_at_output_time() {
        let app = calendar_app();
        let bob = app.create("userprofile", vec![Value::from("bob")]).unwrap();
        let party = app
            .create("event", vec![Value::from("secret"), Value::from("here")])
            .unwrap();
        let obj = app.get("event", party).unwrap();
        // Not yet a guest: public view.
        assert_eq!(
            shown(&app, Viewer::User(bob), &obj).unwrap()[0],
            Value::from("Private event")
        );
        // Added to the guest list after creation: secret view.
        app.create("eventguest", vec![Value::Int(party), Value::Int(bob)])
            .unwrap();
        assert_eq!(
            shown(&app, Viewer::User(bob), &obj).unwrap()[0],
            Value::from("secret")
        );
    }

    #[test]
    fn multiple_policies_compose() {
        let mut app = App::new();
        let m = ModelDef::public(
            "doc",
            vec![
                ColumnDef::new("title", ColumnType::Str),
                ColumnDef::new("body", ColumnType::Str),
            ],
        )
        .with_policy(simple_policy(
            "title_policy",
            vec![0],
            |_| vec![Value::from("[title hidden]")],
            |args| args.viewer.user_jid() == Some(1),
        ))
        .with_policy(simple_policy(
            "body_policy",
            vec![1],
            |_| vec![Value::from("[body hidden]")],
            |args| args.viewer.user_jid().is_some(),
        ));
        app.register_model(m).unwrap();
        let jid = app
            .create("doc", vec![Value::from("T"), Value::from("B")])
            .unwrap();
        assert_eq!(
            app.db.physical_rows("doc").unwrap(),
            4,
            "2 labels ⇒ up to 4 facet rows"
        );
        let obj = app.get("doc", jid).unwrap();
        let owner = shown(&app, Viewer::User(1), &obj).unwrap();
        assert_eq!(owner, vec![Value::from("T"), Value::from("B")]);
        let other = shown(&app, Viewer::User(2), &obj).unwrap();
        assert_eq!(other, vec![Value::from("[title hidden]"), Value::from("B")]);
        let anon = shown(&app, Viewer::Anonymous, &obj).unwrap();
        assert_eq!(
            anon,
            vec![Value::from("[title hidden]"), Value::from("[body hidden]")]
        );
    }

    #[test]
    fn unregistered_label_defaults_to_shown() {
        let app = App::new();
        let k = app.db.fresh_label();
        let v = Faceted::split(k, Faceted::leaf(1), Faceted::leaf(0));
        assert_eq!(Session::new(Viewer::Anonymous).view_value(&app, &v), 1);
    }

    #[test]
    fn binding_an_unallocated_label_is_rejected() {
        let app = calendar_app();
        let row = vec![Value::from("x"), Value::from("y")];
        let far = Label::from_index(4_000_000_000);
        let err = app.bind_policy(far, "event", 0, 1, &row).unwrap_err();
        assert!(
            matches!(&err, form::FormError::Db(microdb::DbError::Persist(m)) if m.contains("label")),
            "{err:?}"
        );
        assert!(app.policy(far).is_none());
        assert!(app.policies.read().unwrap().len() <= app.db.label_count());
    }
}
