//! Durable checkpoints for a whole application: its tables, policy
//! bindings included, with crash-safe restore.
//!
//! # What a checkpoint contains
//!
//! A persistence directory holds a small root manifest
//! (`checkpoint.snap`, written to a temp name, fsynced and renamed
//! into place), a content-addressed store of chunk files (`chunks/`,
//! see [`microdb::chunkstore`]) that the manifest names by hash, and
//! the write log (`wal.log`). The manifest and its chunks hold:
//!
//! 1. the FORM's per-table `jid` cursors ([`form::FormMeta`], a few
//!    lines in the manifest itself);
//! 2. the **tables**: per table the manifest records the schema,
//!    hash-index declarations, auto-increment cursor and generation
//!    stamp, plus the ordered list of row chunks. Besides each
//!    model's table of facet rows, a model with policies has a
//!    FORM-internal **binding table** `_bind_<model>`
//!    ([`form::FormDb::create_binding_table`]): one row per object
//!    with its `jid`, the creation-time row its policies close over
//!    (§2.1.2 — policies are evaluated against the creation-time row
//!    and the output-time database, so both halves must survive) and
//!    the index of each policy's label.
//!
//! Nothing else is stored. As in the paper's FORM (§3.1), the guarded
//! `jid`/`jvars` rows are the object, and a restored process rebuilds
//! each object's facet DAG from them on its first read. A label is its
//! index and has no name, so the binding rows are all there is to
//! know about an object's labels: restore moves the label counter
//! past the highest index they name and binds each one.
//!
//! Every checkpoint after the first into a directory is incremental:
//! chunks a table generation proves clean are carried over by hash,
//! not rewritten, so a checkpoint after one `create` encodes one
//! chunk of facet rows and one of binding rows, whatever the app's
//! size.
//!
//! # Between checkpoints
//!
//! [`App::enable_persistence`] attaches the storage engine's write
//! log (`wal.log`, see [`microdb::wal`]): the one change stream. Each
//! committed batch appends one record of its row deltas; a `create`'s
//! record has one section for its facet rows and one for its binding
//! row — so a create's policy bindings and its rows survive a crash
//! together or not at all. Restore loads the checkpoint, replays the
//! log physically, then rebinds every policy by scanning the binding
//! tables. Each checkpoint compacts the log down to the records newer
//! than the generations it captured.
//!
//! # Quiescence and garbage collection
//!
//! [`App::checkpoint_quiescent`] takes the executor's global request
//! lock shared plus **all** declared table locks shared — writers
//! drain, concurrent readers keep flowing — and snapshots at that
//! point, then runs the interner's [`faceted::collect_garbage`] while
//! the store is maximally quiet. The served variant is
//! [`add_checkpoint_route`]: `admin/checkpoint` registers as a
//! footprint-less **write** route, which the executor already
//! dispatches under the exclusive global lock — the same quiescent
//! point, reached through ordinary request scheduling.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use form::{binding_table, Binding, FormError, FormMeta, FormResult};
use microdb::chunkstore::{
    is_valid_hash, load_rows, write_dirty_row_chunks, write_row_chunks, ChunkRef, ChunkStore,
    ChunkWriteStats, DirtyRows,
};
use microdb::faults::{self, FaultKind, FaultPoint};
use microdb::snapshot::{encode_column, escape_token, parse_column, unescape_token};
use microdb::{Row, Snapshot, TableSnapshot, Value, WriteLog};

use crate::app::App;
use crate::http::{Response, Router};
use crate::model::Viewer;

/// The atomic checkpoint file inside a persistence directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.snap";
/// The storage engine's append-only write log.
pub const WAL_FILE: &str = "wal.log";
/// The first line of a checkpoint manifest. Version 2 also stored
/// every object's facet DAG, and version 3 label names and policy
/// bindings in an app-meta chunk; version 4 stores tables only.
const MANIFEST_HEADER: &str = "jacqueline-checkpoint v4";

/// Unbound label indices a bound label may sit past the bound label
/// below it. A failed create leaves one per model policy, and a
/// failed append puts a served app into read-only degraded mode until
/// a checkpoint, so an index further out is corruption — and must not
/// size the policy table.
const MAX_LABEL_GAP: usize = 1 << 16;

fn persist_err(what: impl fmt::Display) -> FormError {
    FormError::Db(microdb::DbError::Persist(what.to_string()))
}

/// Counters describing one completed checkpoint.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Tables captured.
    pub tables: usize,
    /// Physical rows captured.
    pub rows: usize,
    /// Logical objects (distinct `jid`s) across the model tables.
    pub objects: usize,
    /// Interner nodes (object-DAG store) before the quiescent GC.
    pub interner_nodes_before: usize,
    /// Interner nodes after the GC.
    pub interner_nodes_after: usize,
    /// Nodes reclaimed by [`faceted::collect_garbage`].
    pub gc_reclaimed: usize,
    /// Chunk files physically written by this checkpoint.
    pub chunks_written: usize,
    /// Chunks satisfied without writing bytes: carried over from the
    /// previous checkpoint, or re-encoded to content already stored.
    pub chunks_reused: usize,
    /// Chunks encoded and hashed by this checkpoint (written, or found
    /// already stored); clean chunks carried over are not encoded.
    pub chunks_encoded: usize,
    /// Bytes of the chunks this checkpoint encoded.
    pub bytes_encoded: usize,
    /// Whether this checkpoint ran the incremental (clean-chunk
    /// carry-over) path rather than a full re-export.
    pub incremental: bool,
}

impl fmt::Display for CheckpointStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint: tables={} rows={} objects={} \
             interner_nodes={}->{} gc_reclaimed={} chunks_written={} \
             chunks_reused={} mode={}",
            self.tables,
            self.rows,
            self.objects,
            self.interner_nodes_before,
            self.interner_nodes_after,
            self.gc_reclaimed,
            self.chunks_written,
            self.chunks_reused,
            if self.incremental {
                "incremental"
            } else {
                "full"
            }
        )
    }
}

/// Counters describing one completed restore.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Tables restored from the snapshot section.
    pub tables: usize,
    /// Physical rows restored from the snapshot section.
    pub rows: usize,
    /// Policy labels re-bound from the binding tables.
    pub policies: usize,
    /// Write-log records replayed on top of the snapshot.
    pub wal_applied: usize,
    /// Creates the log replay added: binding rows past the
    /// checkpoint's (a model without policies has none, so its
    /// creates are not counted).
    pub creates_applied: usize,
}

impl fmt::Display for RestoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restore: tables={} rows={} policies={} wal_applied={} \
             creates_applied={}",
            self.tables, self.rows, self.policies, self.wal_applied, self.creates_applied
        )
    }
}

// ---------------------------------------------------------------------
// The chunked manifest (`checkpoint.snap` v4).
// ---------------------------------------------------------------------

/// One table's entry in the manifest: everything `TableSnapshot`
/// carried except the rows themselves, which live in content-addressed
/// chunks.
pub(crate) struct TableManifest {
    pub(crate) name: String,
    pub(crate) generation: u64,
    pub(crate) next_auto: i64,
    pub(crate) rows: usize,
    pub(crate) columns: Vec<microdb::ColumnDef>,
    pub(crate) indexes: Vec<String>,
    pub(crate) chunks: Vec<ChunkRef>,
}

/// The root manifest: the one small file naming every chunk of a
/// checkpoint. Committed atomically via tmp + rename; everything
/// heavy lives in the `chunks/` store it points into.
pub(crate) struct Manifest {
    /// The FORM's `jid` cursors.
    pub(crate) form: FormMeta,
    pub(crate) tables: Vec<TableManifest>,
}

impl Manifest {
    fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{MANIFEST_HEADER}");
        out.push_str(&self.form.to_text());
        let _ = writeln!(out, "db-tables {}", self.tables.len());
        for t in &self.tables {
            let _ = writeln!(out, "table {}", escape_token(&t.name));
            let _ = writeln!(out, "meta {} {} {}", t.generation, t.next_auto, t.rows);
            let _ = writeln!(out, "columns {}", t.columns.len());
            for c in &t.columns {
                let _ = writeln!(out, "c {}", encode_column(c));
            }
            let _ = writeln!(out, "indexes {}", t.indexes.len());
            for x in &t.indexes {
                let _ = writeln!(out, "x {}", escape_token(x));
            }
            let _ = writeln!(out, "chunks {}", t.chunks.len());
            for c in &t.chunks {
                let _ = writeln!(out, "h {} {}", c.hash, c.rows);
            }
            let _ = writeln!(out, "end");
        }
        // The terminator proves the manifest was not truncated: every
        // prefix of the file fails to parse.
        let _ = writeln!(out, "manifest-end");
        out
    }

    /// Every chunk hash the manifest references — the keep-set for the
    /// post-checkpoint store sweep.
    fn referenced_hashes(&self) -> HashSet<String> {
        let mut keep = HashSet::new();
        for t in &self.tables {
            for c in &t.chunks {
                keep.insert(c.hash.clone());
            }
        }
        keep
    }

    fn from_lines<'a>(mut cursor: impl Iterator<Item = &'a str>) -> FormResult<Manifest> {
        let form = FormMeta::from_lines(&mut cursor)?;
        let mut next = |what: &str| -> FormResult<&str> {
            cursor
                .next()
                .ok_or_else(|| persist_err(format!("manifest truncated at {what}")))
        };
        let field = |line: &str, prefix: &str| -> FormResult<String> {
            line.strip_prefix(prefix)
                .map(str::to_owned)
                .ok_or_else(|| persist_err(format!("expected {prefix:?} line, got {line:?}")))
        };
        let count = |line: &str, prefix: &str| -> FormResult<usize> {
            field(line, prefix)?
                .parse()
                .map_err(|_| persist_err(format!("bad count line {line:?}")))
        };
        let hash_of = |tok: &str| -> FormResult<String> {
            if is_valid_hash(tok) {
                Ok(tok.to_owned())
            } else {
                Err(persist_err(format!("malformed chunk hash {tok:?}")))
            }
        };
        let n_tables = count(next("db-tables")?, "db-tables ")?;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = unescape_token(&field(next("table")?, "table ")?)?;
            let meta = field(next("meta")?, "meta ")?;
            let mut parts = meta.split(' ');
            let bad_meta = || persist_err(format!("bad meta line {meta:?}"));
            let generation: u64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(bad_meta)?;
            let next_auto: i64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(bad_meta)?;
            let rows: usize = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(bad_meta)?;
            if parts.next().is_some() {
                return Err(bad_meta());
            }
            let n_columns = count(next("columns")?, "columns ")?;
            let mut columns = Vec::with_capacity(n_columns);
            for _ in 0..n_columns {
                columns.push(parse_column(&field(next("column")?, "c ")?)?);
            }
            let n_indexes = count(next("indexes")?, "indexes ")?;
            let mut indexes = Vec::with_capacity(n_indexes);
            for _ in 0..n_indexes {
                indexes.push(unescape_token(&field(next("index")?, "x ")?)?);
            }
            let n_chunks = count(next("chunks")?, "chunks ")?;
            let mut chunks = Vec::with_capacity(n_chunks);
            for _ in 0..n_chunks {
                let spec = field(next("chunk")?, "h ")?;
                let (hash, rows) = spec
                    .split_once(' ')
                    .ok_or_else(|| persist_err(format!("bad chunk line {spec:?}")))?;
                chunks.push(ChunkRef {
                    hash: hash_of(hash)?,
                    rows: rows
                        .parse()
                        .map_err(|_| persist_err(format!("bad chunk rows {spec:?}")))?,
                });
            }
            if next("table end")? != "end" {
                return Err(persist_err(format!("unterminated table {name:?}")));
            }
            let chunk_rows: usize = chunks.iter().map(|c| c.rows).sum();
            if chunk_rows != rows {
                return Err(persist_err(format!(
                    "table {name:?} declares {rows} rows but its chunks hold {chunk_rows}"
                )));
            }
            tables.push(TableManifest {
                name,
                generation,
                next_auto,
                rows,
                columns,
                indexes,
                chunks,
            });
        }
        if next("manifest terminator")? != "manifest-end" {
            return Err(persist_err("manifest missing terminator"));
        }
        Ok(Manifest { form, tables })
    }
}

// ---------------------------------------------------------------------
// Clean-chunk memory and observability.
// ---------------------------------------------------------------------

/// What the last successful checkpoint wrote — held on the [`App`] so
/// the next checkpoint can prove chunks clean (by generation stamp)
/// and carry them over without re-serializing. Dropping it is always
/// safe: the next checkpoint simply runs the full path.
pub(crate) struct CheckpointMemory {
    /// The directory the memory describes; a checkpoint to any other
    /// directory ignores it.
    pub(crate) dir: PathBuf,
    pub(crate) tables: BTreeMap<String, TableMemory>,
    /// Chunk counters of the checkpoint that produced this memory.
    pub(crate) last_written: usize,
    pub(crate) last_reused: usize,
    pub(crate) last_incremental: bool,
}

pub(crate) struct TableMemory {
    pub(crate) generation: u64,
    pub(crate) rows: usize,
    pub(crate) chunks: Vec<ChunkRef>,
}

/// A snapshot of checkpoint observability for `admin/health` and
/// operator tooling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointObservability {
    /// The generation vector the last checkpoint captured, per table.
    pub generations: BTreeMap<String, u64>,
    /// Chunk files the last checkpoint physically wrote.
    pub chunks_written: usize,
    /// Chunks the last checkpoint reused without writing bytes.
    pub chunks_reused: usize,
    /// Whether the last checkpoint ran the incremental path.
    pub incremental: bool,
}

// ---------------------------------------------------------------------
// Manifest file I/O (tmp + rename discipline, fault points).
// ---------------------------------------------------------------------

pub(crate) fn write_manifest_file(path: &Path, text: &str) -> FormResult<()> {
    let dir = path
        .parent()
        .ok_or_else(|| persist_err("checkpoint path has no parent directory"))?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(CHECKPOINT_FILE),
        std::process::id()
    ));
    let io_err = |e: std::io::Error| persist_err(format!("checkpoint write: {e}"));
    {
        let mut out = BufWriter::new(File::create(&tmp).map_err(io_err)?);
        out.write_all(text.as_bytes()).map_err(io_err)?;
        out.flush().map_err(io_err)?;
        out.get_ref().sync_all().map_err(io_err)?;
    }
    // Injected crash point: die *before* the rename. The tmp file is
    // left behind as debris (exactly what a real crash leaves) and
    // the previous `checkpoint.snap` must remain the valid one.
    if faults::check(FaultPoint::CheckpointPreRename, path).is_some() {
        return Err(io_err(faults::injected_err("checkpoint pre-rename crash")));
    }
    // The atomic step: readers see either the old checkpoint or the
    // complete new one, never a torn file.
    std::fs::rename(&tmp, path).map_err(io_err)?;
    // Make the rename itself durable before the caller compacts the
    // log: without the directory fsync, a power loss could persist
    // the compaction but not the rename, leaving the *old* snapshot
    // next to an *empty* log — silently dropping every write since
    // the previous checkpoint.
    File::open(dir).and_then(|d| d.sync_all()).map_err(io_err)?;
    // Injected crash point: die *after* the rename but before the
    // caller compacts the log — the new snapshot and the old log
    // overlap, and replay idempotence (generation stamps) must absorb
    // every doubly-recorded write.
    if faults::check(FaultPoint::CheckpointPostRename, path).is_some() {
        return Err(io_err(faults::injected_err("checkpoint post-rename crash")));
    }
    Ok(())
}

pub(crate) fn read_manifest_file(path: &Path) -> FormResult<Manifest> {
    match faults::check(FaultPoint::RestoreRead, path) {
        Some(FaultKind::Error) => {
            return Err(persist_err(format!(
                "open {}: {}",
                path.display(),
                faults::injected_err("checkpoint read")
            )));
        }
        Some(FaultKind::ShortWrite) => {
            // Physically truncate the manifest to half its length so
            // the damage flows through the *real* parse paths below —
            // the injected analogue of a torn copy or a bad sector.
            let len = std::fs::metadata(path)
                .map_err(|e| persist_err(format!("checkpoint corrupt-inject: {e}")))?
                .len();
            std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(len / 2))
                .map_err(|e| persist_err(format!("checkpoint corrupt-inject: {e}")))?;
        }
        None => {}
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| persist_err(format!("open {}: {e}", path.display())))?;
    let mut cursor = text.lines();
    let header = cursor
        .next()
        .ok_or_else(|| persist_err("empty checkpoint manifest"))?;
    if header != MANIFEST_HEADER {
        return Err(persist_err(
            match header.strip_prefix("jacqueline-checkpoint ") {
                Some(version) => format!(
                "unsupported checkpoint format {version} (this build reads {MANIFEST_HEADER:?})"
            ),
                None => format!("bad checkpoint header {header:?}"),
            },
        ));
    }
    Manifest::from_lines(cursor)
}

// ---------------------------------------------------------------------
// App-level checkpoint / restore.
// ---------------------------------------------------------------------

impl App {
    /// Attaches the write log (`wal.log`) in `dir`, creating the
    /// directory if needed. From this point every committed write —
    /// a `create`'s metadata included — appends a durable record,
    /// superseded at each checkpoint.
    ///
    /// # Errors
    ///
    /// I/O errors opening the log.
    pub fn enable_persistence(&mut self, dir: impl AsRef<Path>) -> FormResult<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| persist_err(format!("create {}: {e}", dir.display())))?;
        let wal = WriteLog::open(dir.join(WAL_FILE))
            .map_err(|e| persist_err(format!("open write log: {e}")))?;
        self.db.attach_wal(Arc::new(wal));
        // Remember the durable home: the scheduler checkpoints here.
        *self.persist_dir.write().expect("persist dir") = Some(dir.to_path_buf());
        Ok(())
    }

    /// Observability snapshot of the last successful checkpoint (or
    /// restore) of this process: the captured generation vector and
    /// the chunk written/reused split. `None` before any checkpoint.
    #[must_use]
    pub fn checkpoint_observability(&self) -> Option<CheckpointObservability> {
        let guard = self.ckpt_memory.lock().expect("checkpoint memory");
        guard.as_ref().map(|m| CheckpointObservability {
            generations: m
                .tables
                .iter()
                .map(|(name, t)| (name.clone(), t.generation))
                .collect(),
            chunks_written: m.last_written,
            chunks_reused: m.last_reused,
            incremental: m.last_incremental,
        })
    }

    /// Takes a checkpoint **assuming the caller holds a quiescent
    /// point** (no concurrent writers): snapshots every table (binding
    /// tables included) and the FORM's `jid` cursors, atomically
    /// replaces `dir/checkpoint.snap`,
    /// compacts the attached log (the checkpoint supersedes it),
    /// and finally runs the interner's garbage collector — the
    /// quiescent point is exactly when dead nodes from completed
    /// requests are collectable.
    ///
    /// Use [`App::checkpoint_quiescent`] unless you are already
    /// inside a quiescent context (the `admin/checkpoint` route is:
    /// the executor dispatches footprint-less write routes under the
    /// exclusive global lock).
    ///
    /// # Errors
    ///
    /// Export or I/O failures; the previous checkpoint file is left
    /// intact on any error.
    pub fn checkpoint_to(&self, dir: impl AsRef<Path>) -> FormResult<CheckpointStats> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| persist_err(format!("create {}: {e}", dir.display())))?;
        let mut stats = CheckpointStats {
            interner_nodes_before: object_store_nodes(),
            ..CheckpointStats::default()
        };

        // Take the clean-chunk memory if it describes *this*
        // directory; its presence selects the incremental path. It is
        // held out of the app for the duration, so a failure part-way
        // leaves no memory behind and the next attempt runs full.
        let memory = {
            let mut guard = self.ckpt_memory.lock().expect("checkpoint memory");
            match guard.take() {
                Some(m) if m.dir == dir && self.incremental_checkpoints_enabled() => Some(m),
                _ => None,
            }
        };
        let incremental = memory.is_some();
        stats.incremental = incremental;

        let store =
            ChunkStore::open(dir).map_err(|e| persist_err(format!("open chunk store: {e}")))?;
        let mut chunk_stats = ChunkWriteStats::default();

        // Row chunks, table by table. Three tiers: an unchanged
        // generation reuses the previous chunk list without touching a
        // row; a changed table whose journal still reaches back folds
        // its deltas into per-chunk dirty bits and re-encodes only
        // those; a slid journal (or no memory) re-chunks the table —
        // where the content-addressed store still dedups untouched
        // spans by hash.
        let db = self.db.raw_ref();
        let mut tables = Vec::new();
        for name in db.table_names().iter().map(|s| (*s).to_owned()) {
            let t = db.table(&name)?;
            let generation = t.generation();
            stats.tables += 1;
            stats.rows += t.rows().len();
            let prev = memory.as_ref().and_then(|m| m.tables.get(&name));
            let chunks = match prev {
                Some(p) if p.generation == generation => {
                    chunk_stats.reused += p.chunks.len();
                    p.chunks.clone()
                }
                Some(p) => {
                    let dirty = t.deltas_since(p.generation).map(|deltas| {
                        let mut d = DirtyRows::new(p.rows);
                        for delta in deltas {
                            d.apply(delta);
                        }
                        d
                    });
                    let (chunks, s) = match dirty {
                        Some(d) => write_dirty_row_chunks(&store, t.rows(), &p.chunks, &d),
                        None => write_row_chunks(&store, t.rows()),
                    }
                    .map_err(|e| persist_err(format!("write chunks of {name:?}: {e}")))?;
                    chunk_stats.absorb(s);
                    chunks
                }
                None => {
                    let (chunks, s) = write_row_chunks(&store, t.rows())
                        .map_err(|e| persist_err(format!("write chunks of {name:?}: {e}")))?;
                    chunk_stats.absorb(s);
                    chunks
                }
            };
            tables.push(TableManifest {
                name: name.clone(),
                generation,
                next_auto: t.next_auto(),
                rows: t.rows().len(),
                columns: t.schema().columns().to_vec(),
                indexes: t
                    .indexed_columns()
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect(),
                chunks,
            });
        }

        for model in self.model_names() {
            stats.objects += self.db.object_count(&model)?;
        }

        let manifest = Manifest {
            form: self.db.export_meta(),
            tables,
        };
        stats.chunks_written = chunk_stats.written;
        stats.chunks_reused = chunk_stats.reused;
        stats.chunks_encoded = chunk_stats.encoded;
        stats.bytes_encoded = chunk_stats.bytes;
        write_manifest_file(&dir.join(CHECKPOINT_FILE), &manifest.to_text())?;

        // The durable manifest + chunks now cover everything the log
        // recorded up to the captured generation vector — compact it
        // down to records newer than that (at a quiescent point that
        // is all of them, so the file empties).
        let floor: BTreeMap<String, u64> = manifest
            .tables
            .iter()
            .map(|t| (t.name.clone(), t.generation))
            .collect();
        if let Some(wal) = db.wal() {
            wal.compact(&floor)
                .map_err(|e| persist_err(format!("compact write log: {e}")))?;
        }
        // Durability is re-established: the checkpoint holds every
        // acknowledged write and the log starts clean, so a read-only
        // degraded app (a failed append flipped the flag; the failed
        // write was rolled back) can take writes again.
        self.clear_degraded();

        // Drop chunks no manifest references any more. Best-effort:
        // the manifest never points at a missing file, so a failed
        // unlink only leaves garbage, and the next sweep retries.
        let _ = store.sweep(&manifest.referenced_hashes());

        // GC at the quiescent point: request-scoped temporaries are
        // dead, the caches keep what they hold pinned. The
        // incremental path skips it — a scheduled checkpoint after one
        // small write should not pay a full-store sweep.
        if !incremental {
            stats.gc_reclaimed = faceted::collect_garbage::<Option<Row>>()
                + faceted::collect_garbage::<Value>()
                + faceted::collect_garbage::<bool>()
                + faceted::collect_garbage::<i64>();
        }
        stats.interner_nodes_after = object_store_nodes();

        // Remember what this checkpoint wrote for the next one.
        *self.ckpt_memory.lock().expect("checkpoint memory") = Some(CheckpointMemory {
            dir: dir.to_path_buf(),
            tables: manifest
                .tables
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        TableMemory {
                            generation: t.generation,
                            rows: t.rows,
                            chunks: t.chunks.clone(),
                        },
                    )
                })
                .collect(),
            last_written: chunk_stats.written,
            last_reused: chunk_stats.reused,
            last_incremental: incremental,
        });
        Ok(stats)
    }

    /// [`App::checkpoint_to`] under a self-acquired quiescent point:
    /// the executor's global request lock shared plus every declared
    /// table lock shared — declared writers drain and block for the
    /// duration, concurrent readers keep flowing. Do **not** call
    /// from inside a dispatched request (the locks are not
    /// reentrant); routes should use [`add_checkpoint_route`].
    ///
    /// # Errors
    ///
    /// Same as [`App::checkpoint_to`].
    pub fn checkpoint_quiescent(&self, dir: impl AsRef<Path>) -> FormResult<CheckpointStats> {
        self.request_locks.quiesce(|| self.checkpoint_to(dir))
    }

    /// [`App::checkpoint_quiescent`], but skipped (returning
    /// `Ok(None)`) while the app is in read-only degraded mode — the
    /// entry point for the executor's *scheduled* checkpoints.
    /// Degraded mode wants operator attention; a background
    /// checkpoint silently clearing it would hide the fault. The
    /// degraded check runs **under** the quiescent locks, so it can
    /// never interleave wrongly with the failing write that sets the
    /// flag: either the write applied first (flag visible, checkpoint
    /// skipped) or the checkpoint ran to completion first (the write
    /// was still blocked, so there was nothing to clear).
    ///
    /// # Errors
    ///
    /// Same as [`App::checkpoint_to`].
    pub fn checkpoint_scheduled(
        &self,
        dir: impl AsRef<Path>,
    ) -> FormResult<Option<CheckpointStats>> {
        self.request_locks.quiesce(|| {
            if self.is_degraded() {
                return Ok(None);
            }
            self.checkpoint_to(dir).map(Some)
        })
    }

    /// Restores this application from `dir`'s checkpoint: the tables
    /// are loaded, the write log is replayed physically on top, and
    /// every policy re-binds to this app's registered models from the
    /// binding tables. Objects are not restored as such: each rebuilds
    /// from its rows on first read. The app must already have its
    /// models registered — the same application code that produced
    /// the checkpoint.
    ///
    /// # Errors
    ///
    /// Missing/corrupt checkpoint, unknown models or policy indices
    /// (the checkpoint came from different application code), or
    /// replay failures.
    pub fn restore_from(&mut self, dir: impl AsRef<Path>) -> FormResult<RestoreStats> {
        let dir = dir.as_ref();
        let manifest = read_manifest_file(&dir.join(CHECKPOINT_FILE))?;
        let store =
            ChunkStore::open(dir).map_err(|e| persist_err(format!("open chunk store: {e}")))?;

        // Materialize the chunked tables back into a snapshot. Every
        // chunk read re-hashes its bytes, so a flipped bit anywhere in
        // the store surfaces here as a clean persistence error.
        let mut snapshot = Snapshot { tables: Vec::new() };
        for t in &manifest.tables {
            let rows = load_rows(&store, &t.chunks)
                .map_err(|e| persist_err(format!("read chunks of {:?}: {e}", t.name)))?;
            snapshot.tables.push(TableSnapshot {
                name: t.name.clone(),
                columns: t.columns.clone(),
                indexes: t.indexes.clone(),
                generation: t.generation,
                next_auto: t.next_auto,
                rows,
            });
        }
        let mut stats = RestoreStats {
            tables: snapshot.tables.len(),
            rows: snapshot.total_rows(),
            ..RestoreStats::default()
        };

        // Structural cross-check before any mutation: every
        // registered model, and the binding table of every model with
        // policies, must appear in the snapshot under the schema this
        // application registered. Damage that still parses — a
        // case-flipped table or column name, say — must not replace
        // the app's tables with ones its models cannot reach.
        let bound_models: Vec<String> = self
            .model_names()
            .into_iter()
            .filter(|m| !self.model(m).policies.is_empty())
            .collect();
        let tables = self
            .model_names()
            .into_iter()
            .chain(bound_models.iter().map(|m| binding_table(m)));
        for table in tables {
            let restored = snapshot
                .tables
                .iter()
                .find(|t| t.name == table)
                .ok_or_else(|| persist_err(format!("checkpoint is missing table {table:?}")))?;
            let live = self.db.raw_ref().table(&table)?;
            let live_cols = live.schema().columns();
            let matches = restored.columns.len() == live_cols.len()
                && restored
                    .columns
                    .iter()
                    .zip(live_cols)
                    .all(|(a, b)| a.name() == b.name() && a.column_type() == b.column_type());
            if !matches {
                return Err(persist_err(format!(
                    "checkpointed schema of {table:?} does not match the registered model"
                )));
            }
        }

        // 1. The tables, and the jid cursors; the label counter
        //    restarts at 0 and moves past the bound labels in step 3.
        self.db.restore_meta(&manifest.form);
        self.db.restore_database(&snapshot)?;

        // 2. Write-log replay on the raw engine: sections the snapshot
        //    already contains skip by generation, the rest apply
        //    physically — a create's binding row with its facet rows.
        let replay = WriteLog::replay(dir.join(WAL_FILE), self.db.raw_ref())?;
        stats.wal_applied = replay.applied;

        // 3. Re-bind every policy from the binding tables.
        let mut bindings = Vec::with_capacity(bound_models.len());
        for model in bound_models {
            let rows = self.db.bindings(&model)?;
            let checkpointed = manifest
                .tables
                .iter()
                .find(|t| t.name == binding_table(&model))
                .map_or(0, |t| t.rows);
            stats.creates_applied += rows.len().saturating_sub(checkpointed);
            bindings.push((model, rows));
        }
        stats.policies = self.rebind(&bindings)?;

        // 4. Defensive jid floor: cursors never fall below what the
        //    restored rows prove was allocated.
        for model in self.model_names() {
            if let Some(max) = self.db.object_jids(&model)?.last() {
                self.db.bump_next_jid(&model, max + 1);
            }
        }

        // 5. Seed the clean-chunk memory from the *manifest* (not the
        //    live tables): the row journal restarts right after each
        //    table's restored generation, so the next checkpoint's
        //    delta walk covers everything the log replayed on top.
        *self.ckpt_memory.lock().expect("checkpoint memory") = Some(CheckpointMemory {
            dir: dir.to_path_buf(),
            tables: manifest
                .tables
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        TableMemory {
                            generation: t.generation,
                            rows: t.rows,
                            chunks: t.chunks.clone(),
                        },
                    )
                })
                .collect(),
            last_written: 0,
            last_reused: 0,
            last_incremental: false,
        });
        Ok(stats)
    }

    /// Replaces every policy binding with the binding rows of each
    /// model: the label counter moves past the highest bound label,
    /// each label is bound to its model policy, and the model's `jid`
    /// cursor moves past its bound objects. Checked before anything
    /// changes: a label bound twice, or one further than
    /// [`MAX_LABEL_GAP`] past the bound label below it, is corruption.
    /// Returns the number of labels bound.
    fn rebind(&self, bindings: &[(String, Vec<Binding>)]) -> FormResult<usize> {
        let mut labels: Vec<u32> = bindings
            .iter()
            .flat_map(|(_, rows)| rows.iter().flat_map(|b| b.labels.iter().map(|l| l.index())))
            .collect();
        labels.sort_unstable();
        let mut end = 0;
        for &ix in &labels {
            let ix = ix as usize;
            if ix < end {
                return Err(persist_err(format!("label {ix} is bound twice")));
            }
            if ix > end + MAX_LABEL_GAP {
                return Err(persist_err(format!(
                    "a binding row names label {ix}, far past the {end} labels below it"
                )));
            }
            end = ix + 1;
        }
        self.clear_policy_state();
        if let Some(&highest) = labels.last() {
            self.db
                .allocate_through(faceted::Label::from_index(highest));
        }
        for (model, rows) in bindings {
            if let Some(max) = rows.iter().map(|b| b.jid).max() {
                self.db.bump_next_jid(model, max + 1);
            }
            for b in rows {
                for (policy_ix, label) in b.labels.iter().enumerate() {
                    self.bind_policy(*label, model, policy_ix, b.jid, &b.row)?;
                }
            }
        }
        Ok(labels.len())
    }
}

/// Distinct nodes currently interned in the object-DAG store
/// (`Faceted<Option<Row>>` — the store the FORM's objects live in).
#[must_use]
pub fn object_store_nodes() -> usize {
    let stats = faceted::intern_stats::<Option<Row>>();
    stats.leaves + stats.splits
}

/// Registers the `admin/checkpoint` route: a **footprint-less write
/// route**, which the executor dispatches under the exclusive global
/// request lock — every declared route drains first, so the
/// checkpoint observes a quiescent application without any extra
/// locking. Any authenticated viewer may trigger it (a production
/// deployment would restrict this to an operator role; the
/// reproduction's auth model has no roles).
///
/// `POST /admin/checkpoint` answers `200` with the
/// [`CheckpointStats`] summary line, `403` for anonymous callers,
/// `500` with the error text on failure.
pub fn add_checkpoint_route(router: &mut Router, dir: impl Into<PathBuf>) {
    let dir = dir.into();
    router.route("admin/checkpoint", move |app: &App, req| {
        if req.viewer == Viewer::Anonymous {
            return Response::forbidden("checkpoint requires an authenticated session");
        }
        match app.checkpoint_to(&dir) {
            Ok(stats) => Response::ok(format!("{stats}\n")),
            Err(e) => Response::error(&format!("checkpoint failed: {e}")),
        }
    });
    // The checkpoint is the *recovery* action of read-only degraded
    // mode — it must keep dispatching while ordinary writes shed.
    router.exempt_from_degraded("admin/checkpoint");
}

/// Registers the `admin/health` route: a footprint-less **read**
/// route (dispatched under all-shared locks, never render-cached)
/// answering `200 ok` while the app is healthy and
/// `503 Retry-After: 1` with the degradation reason while a failed
/// durable write has it in read-only mode. Load balancers and the
/// chaos harness poll this to observe degradation and recovery.
///
/// The second body line publishes the live
/// [`RenderCacheStats`](crate::RenderCacheStats) counters; the third
/// and fourth cover checkpoint observability — the last checkpoint's
/// generation vector and chunk written/reused split, and the WAL
/// pressure (records/bytes appended since the last truncation) the
/// scheduler watches.
pub fn add_health_route(router: &mut Router) {
    router.route_read("admin/health", |app: &App, _req| {
        let s = app.render_cache_stats();
        let mut stats = format!(
            "render_cache hits={} misses={} repairs={} repaired_fragments={} \
             invalidated={} uncacheable={}\n",
            s.hits, s.misses, s.repairs, s.repaired_fragments, s.invalidated, s.uncacheable
        );
        match app.checkpoint_observability() {
            Some(o) => {
                let gens: Vec<String> = o
                    .generations
                    .iter()
                    .map(|(table, g)| format!("{table}:{g}"))
                    .collect();
                stats.push_str(&format!(
                    "checkpoint mode={} chunks_written={} chunks_reused={} generations={}\n",
                    if o.incremental { "incremental" } else { "full" },
                    o.chunks_written,
                    o.chunks_reused,
                    gens.join(",")
                ));
            }
            None => stats.push_str("checkpoint none\n"),
        }
        let (records, bytes) = app.wal_pressure();
        stats.push_str(&format!(
            "wal records={records} bytes={bytes} scheduled_checkpoints={}\n",
            app.scheduled_checkpoint_count()
        ));
        match app.degraded_reason() {
            None => Response::ok(format!("ok\n{stats}")),
            Some(reason) => {
                Response::unavailable(&format!("degraded (read-only): {reason}\n{stats}"))
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{simple_policy, ModelDef};
    use microdb::{ColumnDef, ColumnType};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jacq_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn note_model() -> ModelDef {
        ModelDef::public(
            "note",
            vec![
                ColumnDef::new("owner", ColumnType::Int),
                ColumnDef::new("text", ColumnType::Str),
            ],
        )
        .with_policy(simple_policy(
            "note_owner",
            vec![1],
            |_| vec![Value::from("[private]")],
            |args| args.viewer.user_jid() == args.row[0].as_int(),
        ))
    }

    fn note_app() -> App {
        let mut app = App::new();
        app.register_model(note_model()).unwrap();
        app
    }

    fn page(app: &App, viewer: &Viewer) -> String {
        let rows = app.all("note").unwrap();
        let mut session = crate::Session::new(viewer.clone());
        session
            .view_rows(app, &rows)
            .into_iter()
            .map(|r| format!("{}|{}\n", r[0], r[1]))
            .collect()
    }

    fn grid(app: &App, users: i64) -> Vec<String> {
        std::iter::once(Viewer::Anonymous)
            .chain((0..users).map(Viewer::User))
            .map(|v| page(app, &v))
            .collect()
    }

    #[test]
    fn checkpoint_restore_round_trips_the_differential_grid() {
        let dir = temp_dir("grid");
        let app = note_app();
        for i in 0..5 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        let before = grid(&app, 5);
        let stats = app.checkpoint_quiescent(&dir).unwrap();
        assert_eq!(stats.tables, 2, "the note table and its binding table");
        assert_eq!(stats.rows, 15, "5 notes × 2 facet rows + 5 binding rows");
        assert_eq!(stats.objects, 5);

        // "Kill" the process state: a brand-new app, models re-registered.
        let mut restored = note_app();
        let rstats = restored.restore_from(&dir).unwrap();
        assert_eq!(rstats.rows, 15);
        assert_eq!(rstats.policies, 5);
        assert_eq!(grid(&restored, 5), before, "byte-identical grid");

        // Policies still live: a *new* viewer-owned note behaves
        // identically in both worlds, with no label aliasing.
        let j1 = app
            .create("note", vec![Value::Int(99), Value::from("after")])
            .unwrap();
        let j2 = restored
            .create("note", vec![Value::Int(99), Value::from("after")])
            .unwrap();
        assert_eq!(j1, j2, "jid cursors restored");
        assert_eq!(grid(&restored, 5), grid(&app, 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn logs_replay_creates_and_writes_after_the_checkpoint() {
        let dir = temp_dir("logs");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        app.create("note", vec![Value::Int(0), Value::from("pre")])
            .unwrap();
        app.checkpoint_quiescent(&dir).unwrap();
        // Post-checkpoint state lives only in the log.
        app.create("note", vec![Value::Int(1), Value::from("post")])
            .unwrap();
        app.update_fields("note", 1, &[(1, Value::from("PRE"))], &Default::default())
            .unwrap();

        // The checkpoint compacted the log: it holds exactly the two
        // post-checkpoint records (the create's batch, the update's).
        assert_eq!(app.wal_pressure().0, 2, "only post-checkpoint records");

        let mut restored = note_app();
        let stats = restored.restore_from(&dir).unwrap();
        assert_eq!(stats.creates_applied, 1, "one post-checkpoint create");
        assert_eq!(stats.wal_applied, 2, "create record + update record");
        assert_eq!(grid(&restored, 3), grid(&app, 3));
        // The restored app allocates *fresh* labels/jids past both
        // the checkpoint and the log.
        let j = restored
            .create("note", vec![Value::Int(2), Value::from("fresh")])
            .unwrap();
        assert_eq!(j, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reconciliation between restored generation stamps and the
    /// change journals: restoring over a live app retains warm decode
    /// slots whose generation matches the snapshot, and the restored
    /// table's journal window restarts at `snapshot_generation + 1`,
    /// so WAL-replayed writes land as deltas. The first read after
    /// restore is then served by delta repair — not a full re-decode —
    /// and must equal what a cold restore decodes from scratch.
    #[test]
    fn restore_reconciles_journals_so_warm_slots_delta_repair() {
        let dir = temp_dir("delta_reconcile");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        for i in 0..4 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        app.checkpoint_quiescent(&dir).unwrap();
        // Warm the decode cache at exactly the snapshot generation.
        app.all("note").unwrap();
        // A post-checkpoint write lives only in the WAL.
        app.create("note", vec![Value::Int(9), Value::from("post")])
            .unwrap();

        // Crash-safe restore over the same app: the table rewinds to
        // the snapshot (the warm slot's generation matches and is
        // retained), then WAL replay rolls it forward again.
        app.restore_from(&dir).unwrap();
        let before = app.db.decode_cache_stats();
        let rows = app.all("note").unwrap();
        assert_eq!(rows.len(), 10, "5 notes × 2 facet rows, replay included");
        let stats = app.db.decode_cache_stats();
        assert_eq!(
            stats.misses, before.misses,
            "the retained slot must not pay a full re-decode"
        );
        assert_eq!(
            stats.delta_applies,
            before.delta_applies + 1,
            "the replayed write patches the snapshot as a delta"
        );

        // Byte-identity against the cold path: a fresh app restoring
        // the same directory decodes everything from scratch.
        let mut cold = note_app();
        cold.restore_from(&dir).unwrap();
        assert_eq!(grid(&app, 5), grid(&cold, 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The render-cache restore contract, same as the decode cache's:
    /// `restore_from` never flushes — it *revalidates*. An entry whose
    /// generation vector matches the restored table stamps stays warm,
    /// so the first read after a kill/restore round trip is a byte
    /// hit, not a re-render; and a post-restore write still
    /// invalidates it through the ordinary generation check.
    #[test]
    fn restore_keeps_matching_render_cache_entries_warm() {
        use crate::http::{Request, Response, Router};
        use crate::Executor;
        let dir = temp_dir("render_warm");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        for i in 0..4 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        app.checkpoint_quiescent(&dir).unwrap();

        let mut router = Router::new();
        router.route_read_tables("notes", &["note"], |app: &App, req| {
            Response::ok(page(app, &req.viewer))
        });
        let request = [Request::new("notes", Viewer::User(1))];
        let cold = Executor::run(&app, &router, &request).remove(0);
        let before = app.render_cache_stats();
        assert_eq!((before.hits, before.misses), (0, 1));

        // Kill/restore over the same live app: the table rewinds to
        // the snapshot and WAL replay rolls it forward to exactly the
        // generation the page was stamped under.
        app.restore_from(&dir).unwrap();
        let warm = Executor::run(&app, &router, &request).remove(0);
        assert_eq!(warm, cold, "the warm hit serves the pre-kill bytes");
        let stats = app.render_cache_stats();
        assert_eq!(stats.hits, before.hits + 1, "warm across the restore");
        assert_eq!(stats.misses, before.misses, "no re-render happened");
        assert_eq!(stats.invalidated, 0);

        // Revalidate, not blind trust: a post-restore write moves the
        // generation and the stale page is dropped, not served.
        app.create("note", vec![Value::Int(1), Value::from("post-restore")])
            .unwrap();
        let fresh = Executor::run(&app, &router, &request).remove(0);
        assert!(fresh.body.contains("post-restore"));
        assert_eq!(app.render_cache_stats().invalidated, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Concurrent creates must leave the write log replayable: their
    /// records can land out of label-index order, and replay imports
    /// each label at its recorded index instead of relying on order.
    #[test]
    fn concurrent_creates_keep_the_journal_replayable() {
        let dir = temp_dir("concurrent_creates");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        app.checkpoint_quiescent(&dir).unwrap();
        let threads = 4i64;
        let per_thread = 16;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let app = &app;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        app.create(
                            "note",
                            vec![Value::Int(t), Value::from(format!("c{t}-{i}"))],
                        )
                        .unwrap();
                    }
                });
            }
        });
        let mut restored = note_app();
        let stats = restored.restore_from(&dir).unwrap();
        assert_eq!(stats.creates_applied as i64, threads * per_thread);
        assert_eq!(grid(&restored, threads), grid(&app, threads));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_logs_and_is_atomic() {
        let dir = temp_dir("truncate");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        app.create("note", vec![Value::Int(0), Value::from("x")])
            .unwrap();
        assert!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() > 0);
        app.checkpoint_quiescent(&dir).unwrap();
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        // No stray tmp files: the write was renamed into place.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admin_route_checkpoints_under_the_executor() {
        let dir = temp_dir("route");
        let app = note_app();
        app.create("note", vec![Value::Int(1), Value::from("served")])
            .unwrap();
        let mut router = Router::new();
        add_checkpoint_route(&mut router, &dir);
        let requests = vec![
            crate::Request::new("admin/checkpoint", Viewer::Anonymous),
            crate::Request::new("admin/checkpoint", Viewer::User(1)),
        ];
        let responses = crate::Executor::run(&app, &router, &requests);
        assert_eq!(responses[0].status, 403, "anonymous may not checkpoint");
        assert_eq!(responses[1].status, 200, "{}", responses[1].body);
        assert!(responses[1].body.starts_with("checkpoint:"));
        assert!(dir.join(CHECKPOINT_FILE).exists());
        let mut restored = note_app();
        restored.restore_from(&dir).unwrap();
        assert_eq!(grid(&restored, 2), grid(&app, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tentpole scenario: an injected crash *before* the tmp→snap
    /// rename must leave the previous checkpoint file the valid one —
    /// restore still reproduces the full pre-crash state from the old
    /// snapshot plus the (uncompacted) log, and a retried checkpoint
    /// succeeds.
    #[test]
    fn pre_rename_crash_leaves_the_previous_checkpoint_valid() {
        let dir = temp_dir("prerename");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        app.create("note", vec![Value::Int(0), Value::from("base")])
            .unwrap();
        app.checkpoint_quiescent(&dir).unwrap();
        app.create("note", vec![Value::Int(1), Value::from("walled")])
            .unwrap();
        let before = grid(&app, 3);

        faults::arm_at(
            FaultPoint::CheckpointPreRename,
            0,
            FaultKind::Error,
            "jacq_ckpt_prerename",
        );
        let err = app.checkpoint_quiescent(&dir).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The old snapshot + the untouched log restore everything.
        let mut restored = note_app();
        restored.restore_from(&dir).unwrap();
        assert_eq!(grid(&restored, 3), before, "no acknowledged write lost");

        // The fault was one-shot: the retried checkpoint goes through
        // and compacts the log.
        app.checkpoint_quiescent(&dir).unwrap();
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let mut again = note_app();
        again.restore_from(&dir).unwrap();
        assert_eq!(grid(&again, 3), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tentpole scenario: an injected crash *after* the rename but
    /// before the log compaction leaves the new snapshot next to a log
    /// that double-records its writes — replay idempotence (generation
    /// stamps; a skipped create's metadata skips with its rows) must
    /// absorb the overlap so nothing applies twice.
    #[test]
    fn post_rename_crash_overlap_is_absorbed_by_replay() {
        let dir = temp_dir("postrename");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        for i in 0..3 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        faults::arm_at(
            FaultPoint::CheckpointPostRename,
            0,
            FaultKind::Error,
            "jacq_ckpt_postrename",
        );
        let err = app.checkpoint_quiescent(&dir).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The rename happened, the compaction did not: overlap.
        assert!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() > 0);

        let mut restored = note_app();
        restored.restore_from(&dir).unwrap();
        assert_eq!(grid(&restored, 4), grid(&app, 4));
        assert_eq!(
            restored.db.physical_rows("note").unwrap(),
            app.db.physical_rows("note").unwrap(),
            "no doubly-applied rows from the snapshot/log overlap"
        );
        // Exactly-once across the recovery: a fresh create allocates
        // the same next jid in both worlds.
        let j1 = app
            .create("note", vec![Value::Int(9), Value::from("after")])
            .unwrap();
        let j2 = restored
            .create("note", vec![Value::Int(9), Value::from("after")])
            .unwrap();
        assert_eq!(j1, j2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tentpole scenario: injected read faults on restore surface as
    /// clean errors (never a panic), and the app object stays usable.
    #[test]
    fn injected_restore_read_faults_error_cleanly() {
        let dir = temp_dir("restoreread");
        let app = note_app();
        app.create("note", vec![Value::Int(1), Value::from("kept")])
            .unwrap();
        app.checkpoint_quiescent(&dir).unwrap();

        // Error kind: the open itself fails.
        faults::arm_at(
            FaultPoint::RestoreRead,
            0,
            FaultKind::Error,
            "jacq_ckpt_restoreread",
        );
        let mut fresh = note_app();
        let err = fresh.restore_from(&dir).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        fresh
            .create("note", vec![Value::Int(2), Value::from("usable")])
            .unwrap();

        // ShortWrite kind: the snapshot is physically truncated, and
        // the damage flows through the real parsers.
        faults::arm_at(
            FaultPoint::RestoreRead,
            0,
            FaultKind::ShortWrite,
            "jacq_ckpt_restoreread",
        );
        let mut torn = note_app();
        assert!(torn.restore_from(&dir).is_err(), "truncated file rejected");
        torn.create("note", vec![Value::Int(3), Value::from("usable")])
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: hand-corrupted snapshots — header bit-flips,
    /// truncations, and a bit-flip sweep — must yield clean
    /// [`FormError`]s, never a panic, and leave the app usable.
    #[test]
    fn corrupted_or_truncated_snapshot_errors_without_panicking() {
        let dir = temp_dir("bitflip");
        let app = note_app();
        for i in 0..3 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        app.checkpoint_quiescent(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let pristine = std::fs::read(&path).unwrap();

        // A flipped header byte is always structural damage.
        let mut bytes = pristine.clone();
        bytes[3] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = note_app();
        let err = r.restore_from(&dir).unwrap_err();
        assert!(matches!(err, FormError::Db(microdb::DbError::Persist(_))));
        r.create("note", vec![Value::Int(9), Value::from("ok")])
            .unwrap();

        // Truncations that cut inside a sized section (a cut that
        // only drops the final newline is semantically complete and
        // may legitimately restore): empty, a third, half, two
        // thirds.
        for keep in [
            0,
            pristine.len() / 3,
            pristine.len() / 2,
            2 * pristine.len() / 3,
        ] {
            std::fs::write(&path, &pristine[..keep]).unwrap();
            let mut r = note_app();
            assert!(
                r.restore_from(&dir).is_err(),
                "truncation to {keep} bytes must be rejected"
            );
            r.create("note", vec![Value::Int(9), Value::from("ok")])
                .unwrap();
        }

        // Bit-flip sweep: a flip in a payload byte may legitimately
        // decode (the value merely differs), but no position may ever
        // panic the parser or poison the app.
        let stride = (pristine.len() / 40).max(1);
        for pos in (0..pristine.len()).step_by(stride) {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let mut r = note_app();
            let _ = r.restore_from(&dir); // Ok or clean Err — no panic
            r.create("note", vec![Value::Int(9), Value::from("ok")])
                .unwrap();
        }

        // The pristine bytes still restore (the sweep broke nothing
        // about the app-building path itself).
        std::fs::write(&path, &pristine).unwrap();
        let mut r = note_app();
        r.restore_from(&dir).unwrap();
        assert_eq!(grid(&r, 3), grid(&app, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The degraded-mode arc, end to end through served routes: a WAL
    /// append fault fails a write and flips the app read-only; writes
    /// answer `503 Retry-After` while reads and `admin/health` keep
    /// serving; the (exempt) `admin/checkpoint` route re-establishes
    /// durability and clears the mode; the retried write then lands
    /// exactly once.
    #[test]
    fn wal_fault_degrades_to_read_only_and_checkpoint_recovers() {
        use crate::http::Request;
        use crate::Executor;
        let dir = temp_dir("degrade");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        app.create("note", vec![Value::Int(1), Value::from("seed")])
            .unwrap();
        let mut router = Router::new();
        router.route_read_tables("notes", &["note"], |app: &App, req| {
            Response::ok(page(app, &req.viewer))
        });
        router.route_tables("note/add", &[], &["note"], |app: &App, req| {
            let owner = req.viewer.user_jid().unwrap_or(-1);
            let text = req.params.get("text").cloned().unwrap_or_default();
            match app.create("note", vec![Value::Int(owner), Value::from(text)]) {
                Ok(jid) => Response::ok(jid.to_string()),
                Err(e) => Response::error(&e.to_string()),
            }
        });
        add_checkpoint_route(&mut router, &dir);
        add_health_route(&mut router);
        let run = |app: &App, req: Request| Executor::run(app, &router, &[req]).remove(0);

        let healthy = run(&app, Request::new("admin/health", Viewer::Anonymous));
        assert_eq!(healthy.status, 200);
        assert!(healthy.body.starts_with("ok\n"), "{}", healthy.body);
        assert!(
            healthy.body.contains("render_cache hits="),
            "health publishes the render-cache counters: {}",
            healthy.body
        );

        // The fault: this write's WAL append fails; the rows roll
        // back and the app degrades.
        faults::arm_at(
            FaultPoint::WalAppend,
            0,
            FaultKind::Error,
            "jacq_ckpt_degrade",
        );
        let failed = run(
            &app,
            Request::new("note/add", Viewer::User(1)).with_param("text", "marker-lost"),
        );
        assert_eq!(failed.status, 500, "{}", failed.body);
        assert!(app.is_degraded());

        // Degraded: writes shed, reads and health keep serving.
        let shed = run(
            &app,
            Request::new("note/add", Viewer::User(1)).with_param("text", "marker-shed"),
        );
        assert_eq!(shed.status, 503);
        assert_eq!(shed.header("Retry-After"), Some("1"));
        let health = run(&app, Request::new("admin/health", Viewer::Anonymous));
        assert_eq!(health.status, 503);
        assert!(
            health.body.contains("degraded (read-only)"),
            "{}",
            health.body
        );
        let read = run(&app, Request::new("notes", Viewer::User(1)));
        assert_eq!(read.status, 200);
        assert!(
            !read.body.contains("marker"),
            "neither failed nor shed write is visible"
        );

        // Recovery: the exempt checkpoint route runs, re-establishes
        // durability, and clears the mode.
        let ckpt = run(&app, Request::new("admin/checkpoint", Viewer::User(1)));
        assert_eq!(ckpt.status, 200, "{}", ckpt.body);
        assert!(!app.is_degraded());
        assert_eq!(
            run(&app, Request::new("admin/health", Viewer::Anonymous)).status,
            200
        );

        // The retried write lands exactly once, durably.
        let retry = run(
            &app,
            Request::new("note/add", Viewer::User(1)).with_param("text", "marker-kept"),
        );
        assert_eq!(retry.status, 200, "{}", retry.body);
        let page_now = run(&app, Request::new("notes", Viewer::User(1))).body;
        assert_eq!(page_now.matches("marker-kept").count(), 1);
        assert_eq!(page_now.matches("marker-lost").count(), 0);

        let mut restored = note_app();
        restored.restore_from(&dir).unwrap();
        assert_eq!(grid(&restored, 3), grid(&app, 3), "durable across restore");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_from_missing_or_corrupt_checkpoint_errors() {
        let dir = temp_dir("corrupt");
        let mut app = note_app();
        assert!(app.restore_from(&dir).is_err(), "missing dir");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CHECKPOINT_FILE), "not a checkpoint\n").unwrap();
        assert!(app.restore_from(&dir).is_err(), "corrupt file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The filenames in `dir/chunks/` (content hashes) plus the
    /// manifest bytes.
    fn chunk_files(dir: &Path) -> std::collections::BTreeSet<String> {
        std::fs::read_dir(dir.join("chunks"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }

    /// Satellite: the chunked export is a fixpoint — checkpoint,
    /// restore into a fresh app, checkpoint again to a fresh
    /// directory, and both the manifest bytes and the chunk-file sets
    /// are identical.
    #[test]
    fn checkpoint_restore_checkpoint_is_a_byte_fixpoint() {
        let dir_a = temp_dir("fix_a");
        let dir_b = temp_dir("fix_b");
        let app = note_app();
        for i in 0..70 {
            app.create(
                "note",
                vec![Value::Int(i % 3), Value::from(format!("n{i}"))],
            )
            .unwrap();
        }
        app.checkpoint_quiescent(&dir_a).unwrap();

        let mut restored = note_app();
        restored.restore_from(&dir_a).unwrap();
        restored.checkpoint_quiescent(&dir_b).unwrap();

        assert_eq!(
            std::fs::read(dir_a.join(CHECKPOINT_FILE)).unwrap(),
            std::fs::read(dir_b.join(CHECKPOINT_FILE)).unwrap(),
            "manifest bytes are a fixpoint across restore"
        );
        assert_eq!(
            chunk_files(&dir_a),
            chunk_files(&dir_b),
            "chunk stores hold identical content-addressed sets"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// Satellite: consecutive checkpoints of a barely-changed app
    /// share almost all chunks — the second writes O(one chunk)
    /// after a single-row write and reuses the rest by hash.
    #[test]
    fn incremental_checkpoint_writes_only_dirty_chunks() {
        let dir = temp_dir("incr");
        let app = note_app();
        for i in 0..200 {
            app.create(
                "note",
                vec![Value::Int(i % 5), Value::from(format!("n{i}"))],
            )
            .unwrap();
        }
        let first = app.checkpoint_quiescent(&dir).unwrap();
        assert!(!first.incremental, "first checkpoint runs the full path");
        assert!(first.chunks_written > 4, "enough rows for several chunks");
        let before = chunk_files(&dir);

        // One-row write, then checkpoint again.
        app.update_fields(
            "note",
            7,
            &[(1, Value::from("edited"))],
            &Default::default(),
        )
        .unwrap();
        let second = app.checkpoint_quiescent(&dir).unwrap();
        assert!(second.incremental);
        assert_eq!(
            (second.chunks_encoded, second.chunks_written),
            (1, 1),
            "a single-row write re-encodes exactly one row chunk"
        );
        assert!(
            second.chunks_reused > first.chunks_written / 2,
            "clean chunks carried over: reused {} of {}",
            second.chunks_reused,
            first.chunks_written
        );
        let after = chunk_files(&dir);
        let shared = before.intersection(&after).count();
        assert!(
            shared >= before.len() - 4,
            "consecutive checkpoints byte-share clean chunks: {shared}/{}",
            before.len()
        );

        // Observability reflects the incremental pass.
        let obs = app.checkpoint_observability().unwrap();
        assert!(obs.incremental);
        assert_eq!(obs.chunks_written, second.chunks_written);
        assert_eq!(obs.chunks_reused, second.chunks_reused);
        assert!(!obs.generations.is_empty());

        // A restored app answers the same grid the live one does.
        let mut restored = note_app();
        restored.restore_from(&dir).unwrap();
        assert_eq!(grid(&restored, 5), grid(&app, 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A model whose objects carry `labels` policy labels: one string
    /// column per label (at least one column), each hidden from
    /// everyone but user 1.
    fn labelled_model(name: &str, labels: usize) -> ModelDef {
        let mut def = ModelDef::public(
            name,
            (0..labels.max(1))
                .map(|i| ColumnDef::new(&format!("c{i}"), ColumnType::Str))
                .collect(),
        );
        for i in 0..labels {
            def = def.with_policy(simple_policy(
                &format!("doc_c{i}"),
                vec![i],
                |_| vec![Value::from("[private]")],
                |args| args.viewer.user_jid() == Some(1),
            ));
        }
        def
    }

    fn labelled_app(labels: usize) -> App {
        let mut app = App::new();
        app.register_model(labelled_model("doc", labels)).unwrap();
        app
    }

    /// The rows are the whole durable state of an object: after one
    /// `create`, a checkpoint encodes exactly the model's dirty row
    /// chunk plus its binding table's dirty chunk, whatever the label
    /// count.
    #[test]
    fn checkpoint_after_one_create_encodes_one_row_chunk_and_one_binding_chunk() {
        for labels in 1..=3 {
            let dir = temp_dir(&format!("one_create_{labels}"));
            let app = labelled_app(labels);
            let doc = || (0..labels).map(|i| Value::from(format!("v{i}"))).collect();
            for _ in 0..3 {
                app.create("doc", doc()).unwrap();
            }
            app.checkpoint_quiescent(&dir).unwrap();
            app.create("doc", doc()).unwrap();
            let stats = app.checkpoint_quiescent(&dir).unwrap();
            assert!(stats.incremental);
            assert_eq!(
                (stats.chunks_encoded, stats.chunks_written),
                (2, 2),
                "{labels} label(s): one row chunk + one binding chunk"
            );
            assert_eq!(stats.objects, 4);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// What a checkpoint after one `create` encodes does not grow with
    /// the app: at 64 and at 4096 objects it is one chunk of facet
    /// rows plus one chunk of binding rows, and the encoded bytes
    /// differ by less than one chunk's worth. (A chunk holding every
    /// binding would grow with the object count.)
    #[test]
    fn checkpoint_after_one_create_encodes_bytes_independent_of_app_size() {
        let after_one_create = |objects: i64| {
            let dir = temp_dir(&format!("size_{objects}"));
            let app = note_app();
            for i in 0..objects {
                app.create(
                    "note",
                    vec![Value::Int(i % 7), Value::from(format!("n{i}"))],
                )
                .unwrap();
            }
            app.checkpoint_quiescent(&dir).unwrap();
            app.create("note", vec![Value::Int(3), Value::from("one more")])
                .unwrap();
            let stats = app.checkpoint_quiescent(&dir).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(stats.incremental);
            stats
        };
        let (small, large) = (after_one_create(64), after_one_create(4096));
        assert_eq!(small.chunks_encoded, 2, "one row chunk + one binding chunk");
        assert_eq!(large.chunks_encoded, small.chunks_encoded);
        let chunk = small.bytes_encoded / small.chunks_encoded;
        assert!(
            large.bytes_encoded.abs_diff(small.bytes_encoded) < chunk,
            "encoded {} B at 4096 objects vs {} B at 64 (one chunk ≈ {chunk} B)",
            large.bytes_encoded,
            small.bytes_encoded
        );
    }

    /// Satellite: the ablation knob — with incremental checkpoints
    /// off, every checkpoint runs the full path, and the chunk store
    /// still dedups identical content by hash.
    #[test]
    fn incremental_ablation_falls_back_to_full_checkpoints() {
        let dir = temp_dir("ablate");
        let app = note_app();
        assert!(app.incremental_checkpoints_enabled());
        app.set_incremental_checkpoints(false);
        for i in 0..40 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        app.checkpoint_quiescent(&dir).unwrap();
        let second = app.checkpoint_quiescent(&dir).unwrap();
        assert!(!second.incremental, "ablated: full path every time");
        assert_eq!(
            second.chunks_written, 0,
            "identical content dedups by hash even on the full path"
        );
        assert!(second.chunks_reused > 0);
        app.set_incremental_checkpoints(true);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a bit-flipped chunk *file* (the manifest is intact)
    /// fails restore with a clean persistence error — the read-back
    /// hash verification catches it — and the app stays usable.
    #[test]
    fn bit_flipped_chunk_file_yields_clean_error() {
        let dir = temp_dir("chunkflip");
        let app = note_app();
        for i in 0..80 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        app.checkpoint_quiescent(&dir).unwrap();
        for name in chunk_files(&dir) {
            let path = dir.join("chunks").join(&name);
            let pristine = std::fs::read(&path).unwrap();
            let mut bytes = pristine.clone();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();

            let mut r = note_app();
            let err = r.restore_from(&dir).unwrap_err();
            assert!(
                matches!(err, FormError::Db(microdb::DbError::Persist(_))),
                "flip in {name} must surface as a Persist error, got {err:?}"
            );
            r.create("note", vec![Value::Int(9), Value::from("ok")])
                .unwrap();
            std::fs::write(&path, &pristine).unwrap();
        }
        // Pristine bytes restore again.
        let mut r = note_app();
        r.restore_from(&dir).unwrap();
        assert_eq!(grid(&r, 3), grid(&app, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: WAL compaction — the row log is truncated to
    /// records newer than the manifest's generation vector after
    /// every checkpoint, and the pressure counters the scheduler
    /// watches reset with it.
    #[test]
    fn checkpoint_compacts_the_wal_and_resets_pressure() {
        let dir = temp_dir("compact");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        assert_eq!(app.persist_dir().as_deref(), Some(dir.as_path()));
        for i in 0..10 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        let (records, bytes) = app.wal_pressure();
        assert!(records > 0 && bytes > 0, "writes build WAL pressure");
        app.checkpoint_quiescent(&dir).unwrap();
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            0,
            "a quiescent checkpoint covers every record: the WAL empties"
        );
        assert_eq!(app.wal_pressure(), (0, 0), "pressure counters reset");

        // Writes after the checkpoint rebuild pressure; the next
        // (incremental) checkpoint compacts again.
        app.update_fields("note", 3, &[(1, Value::from("x"))], &Default::default())
            .unwrap();
        assert!(app.wal_pressure().0 > 0);
        let stats = app.checkpoint_quiescent(&dir).unwrap();
        assert!(stats.incremental);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The live policy bindings, in label order: `(label index, model,
    /// policy index, jid, creation-time row)`, read from the binding
    /// tables — the durable record. Asserts that every label a binding
    /// row names is bound to an entry matching that row (its jid, its
    /// creation-time row, the model policy at its index), and that no
    /// label is bound without a binding row.
    fn live_bindings(app: &App) -> Vec<(u32, String, usize, i64, Row)> {
        let policies = app.policies.read().unwrap();
        let mut out = Vec::new();
        for model in app.model_names() {
            let fps = &app.model(&model).policies;
            if fps.is_empty() {
                continue;
            }
            for b in app.db.bindings(&model).unwrap() {
                for (policy_ix, l) in b.labels.iter().enumerate() {
                    let entry = policies
                        .get(l.index() as usize)
                        .and_then(Option::as_ref)
                        .unwrap_or_else(|| panic!("{model} {}: label {l} is unbound", b.jid));
                    assert_eq!((entry.jid, &entry.row), (b.jid, &b.row), "{model}: {l}");
                    assert!(
                        Arc::ptr_eq(&entry.check, &fps[policy_ix].check),
                        "{model}: {l} runs policy #{policy_ix}"
                    );
                    out.push((l.index(), model.clone(), policy_ix, b.jid, b.row.clone()));
                }
            }
        }
        out.sort_by_key(|b| b.0);
        let bound = policies.iter().filter(|p| p.is_some()).count();
        assert_eq!(bound, out.len(), "every bound label has a binding row");
        out
    }

    /// Regression: a create whose WAL append fails allocates labels
    /// that never become durable. The next, acknowledged create's
    /// labels sit past that gap; restore must accept the gap, not
    /// refuse the whole directory, and show the acknowledged object.
    #[test]
    fn failed_create_leaves_a_label_gap_that_restore_accepts() {
        let dir = temp_dir("label_gap");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        for i in 0..2 {
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
        }
        app.checkpoint_quiescent(&dir).unwrap();
        let checkpointed_labels = app.db.label_count();

        faults::arm_at(
            FaultPoint::WalAppend,
            0,
            FaultKind::Error,
            "jacq_ckpt_label_gap",
        );
        let err = app
            .create("note", vec![Value::Int(7), Value::from("lost")])
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        let acked = app
            .create("note", vec![Value::Int(8), Value::from("acked")])
            .unwrap();
        let acked_label = app.get("note", acked).unwrap().labels()[0];
        assert!(
            acked_label.index() as usize > checkpointed_labels,
            "the acknowledged create's label sits past the failed one's"
        );

        let mut restored = note_app();
        let stats = restored.restore_from(&dir).unwrap();
        assert_eq!(stats.creates_applied, 1);
        assert_eq!(grid(&restored, 9), grid(&app, 9));
        let mine = page(&restored, &Viewer::User(8));
        assert!(mine.contains("acked") && !mine.contains("lost"), "{mine}");
        // The acknowledged label kept its index; the failed create's
        // index stays unbound and spent, and allocation continues past
        // both.
        assert_eq!(
            restored.get("note", acked).unwrap().labels(),
            vec![acked_label]
        );
        assert!(restored.policy(acked_label).is_some());
        let skipped = faceted::Label::from_index(acked_label.index() - 1);
        assert!(restored.policy(skipped).is_none());
        assert_eq!(restored.db.label_count(), acked_label.index() as usize + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A create whose record fails to append leaves nothing behind
    /// after a restore: no rows, no labels, no policy bindings — and
    /// none in the live app either, apart from its spent label index.
    #[test]
    fn failed_create_record_leaves_no_rows_labels_or_bindings() {
        let dir = temp_dir("create_fault");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        app.create("note", vec![Value::Int(1), Value::from("kept")])
            .unwrap();
        app.checkpoint_quiescent(&dir).unwrap();
        let bindings = live_bindings(&app);
        let labels = app.db.label_count();

        faults::arm_at(
            FaultPoint::WalAppend,
            0,
            FaultKind::Error,
            "jacq_ckpt_create_fault",
        );
        assert!(app
            .create("note", vec![Value::Int(1), Value::from("lost")])
            .is_err());
        assert_eq!(live_bindings(&app), bindings, "no phantom binding");
        assert_eq!(app.db.object_jids("note").unwrap(), vec![1]);
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);

        let mut restored = note_app();
        let stats = restored.restore_from(&dir).unwrap();
        assert_eq!((stats.wal_applied, stats.creates_applied), (0, 0));
        assert_eq!(restored.db.object_jids("note").unwrap(), vec![1]);
        assert_eq!(restored.db.label_count(), labels);
        assert_eq!(live_bindings(&restored), bindings);
        assert!(!page(&restored, &Viewer::User(1)).contains("lost"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Restore rebuilds exactly the live binding set — label index,
    /// model, policy, jid and creation-time row — from
    /// the binding tables, over checkpointed creates, creates only in
    /// the log, a failed create (its labels stay unbound) and a torn
    /// log tail; allocation then continues identically in both apps.
    #[test]
    fn restore_rebuilds_the_live_binding_set_from_binding_tables() {
        let dir = temp_dir("binding_set");
        let register = |app: &mut App| {
            for labels in 0..=3 {
                app.register_model(labelled_model(&format!("m{labels}"), labels))
                    .unwrap();
            }
        };
        let mut app = App::new();
        register(&mut app);
        app.enable_persistence(&dir).unwrap();
        let create = |app: &App, i: usize| {
            let m = i % 4;
            let row = (0..m.max(1))
                .map(|c| Value::from(format!("o{i}c{c}")))
                .collect();
            app.create(&format!("m{m}"), row)
        };
        for i in 0..10 {
            create(&app, i).unwrap();
        }
        app.checkpoint_quiescent(&dir).unwrap();
        for i in 10..13 {
            create(&app, i).unwrap();
        }
        faults::arm_at(
            FaultPoint::WalAppend,
            0,
            FaultKind::Error,
            "jacq_ckpt_binding_set",
        );
        assert!(create(&app, 14).is_err(), "an m2 create whose append fails");
        for i in 15..19 {
            create(&app, i).unwrap();
        }
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        wal.write_all(b"m3 9 10 a 5 sx").unwrap();
        drop(wal);

        let mut restored = App::new();
        register(&mut restored);
        let stats = restored.restore_from(&dir).unwrap();
        let live = live_bindings(&app);
        assert_eq!(live_bindings(&restored), live);
        assert_eq!(stats.policies, live.len());
        assert_eq!(stats.creates_applied, 5, "the log's m1–m3 creates");
        assert!(
            live.iter()
                .any(|(_, model, policy, jid, _)| (model.as_str(), *policy, *jid) == ("m3", 2, 2)),
            "{live:?}"
        );
        for i in [21, 22] {
            let (a, b) = (create(&app, i).unwrap(), create(&restored, i).unwrap());
            assert_eq!(a, b, "object {i}: the same next jid");
        }
        assert_eq!(live_bindings(&restored), live_bindings(&app));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupted label index in a create's binding row fails the
    /// restore cleanly instead of sizing a huge policy table.
    #[test]
    fn far_out_label_index_in_the_log_is_rejected() {
        let dir = temp_dir("far_label");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        app.checkpoint_quiescent(&dir).unwrap();
        app.create("note", vec![Value::Int(1), Value::from("x")])
            .unwrap();
        let text = std::fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        // Object 1's only label sits at index 0, the last value of its
        // binding row: move it far out.
        let corrupt = text.replacen(" i0 .", " i4000000000 .", 1);
        assert_ne!(corrupt, text);
        std::fs::write(dir.join(WAL_FILE), corrupt).unwrap();
        let mut restored = note_app();
        let err = restored.restore_from(&dir).unwrap_err();
        assert!(
            matches!(&err, FormError::Db(microdb::DbError::Persist(m)) if m.contains("label")),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every create — facet rows and binding row — is exactly one WAL
    /// record.
    #[test]
    fn each_create_appends_exactly_one_wal_record() {
        let dir = temp_dir("one_record");
        let mut app = note_app();
        app.enable_persistence(&dir).unwrap();
        for i in 0..5 {
            let (records, _) = app.wal_pressure();
            app.create("note", vec![Value::Int(i), Value::from(format!("n{i}"))])
                .unwrap();
            assert_eq!(app.wal_pressure().0, records + 1);
        }
        let text = std::fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        for line in text.lines() {
            let record = microdb::BatchRecord::parse(line).unwrap();
            let tables: Vec<&str> = record.sections.iter().map(|s| s.table.as_str()).collect();
            assert_eq!(tables, ["note", "_bind_note"], "{line}");
            let microdb::LoggedDelta::Append(binding) = &record.sections[1].deltas[0] else {
                panic!("a create appends its binding row: {line}");
            };
            assert_eq!(
                binding.len(),
                4,
                "jid, owner, text, one label per note policy"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
