//! Property tests for the content-addressed chunk store: round-trip
//! fixpoints, clean-chunk byte sharing across consecutive
//! checkpoints, clean errors on corrupted chunk files, and policy
//! bindings that survive a full and an incremental chunked checkpoint
//! plus log replay.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{Creator, MODELS};
use microdb::chunkstore::{
    load_rows, write_dirty_row_chunks, write_row_chunks, ChunkRef, ChunkStore, DirtyRows,
    CHUNK_ROWS,
};
use microdb::faults::{self, FaultKind, FaultPoint};
use microdb::{ColumnDef, Database, Row, RowDelta, Snapshot, TableSnapshot, Value, WriteLog};
use proptest::prelude::*;

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "microdb_chunk_props_{tag}_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn arb_row() -> impl Strategy<Value = Row> {
    proptest::collection::vec(
        prop_oneof![
            (-50i64..50).prop_map(Value::Int),
            "[a-d]{0,4}".prop_map(Value::from),
            Just(Value::Null),
        ],
        1..4,
    )
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(arb_row(), 0..(CHUNK_ROWS * 3 + 7))
}

/// The on-disk chunk file names under `dir/chunks/`.
fn chunk_files(dir: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    if let Ok(entries) = std::fs::read_dir(dir.join("chunks")) {
        for entry in entries.flatten() {
            names.insert(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names
}

/// One table as a checkpoint captured it.
struct Captured {
    generation: u64,
    next_auto: i64,
    columns: Vec<ColumnDef>,
    rows: usize,
    chunks: Vec<ChunkRef>,
}

/// Chunks every table of `db` into `store`, the way the application
/// checkpointer does: a table unchanged since `prev` keeps its chunk
/// list, a changed one re-encodes only the chunks its journal proves
/// dirty, and a table `prev` lacks is chunked whole.
fn checkpoint(
    db: &Database,
    store: &ChunkStore,
    prev: &BTreeMap<String, Captured>,
) -> BTreeMap<String, Captured> {
    let mut out = BTreeMap::new();
    for name in db.table_names() {
        let t = db.table(name).unwrap();
        let chunks = match prev.get(name) {
            Some(p) if p.generation == t.generation() => p.chunks.clone(),
            Some(p) => {
                let mut dirty = DirtyRows::new(p.rows);
                for delta in t.deltas_since(p.generation).unwrap() {
                    dirty.apply(delta);
                }
                write_dirty_row_chunks(store, t.rows(), &p.chunks, &dirty)
                    .unwrap()
                    .0
            }
            None => write_row_chunks(store, t.rows()).unwrap().0,
        };
        let captured = Captured {
            generation: t.generation(),
            next_auto: t.next_auto(),
            columns: t.schema().columns().to_vec(),
            rows: t.len(),
            chunks,
        };
        out.insert(name.to_owned(), captured);
    }
    out
}

/// The log compaction floor of a checkpoint.
fn floor(ckpt: &BTreeMap<String, Captured>) -> BTreeMap<String, u64> {
    ckpt.iter()
        .map(|(n, c)| (n.clone(), c.generation))
        .collect()
}

/// Loads a checkpoint's chunks into a fresh database.
fn load(store: &ChunkStore, ckpt: &BTreeMap<String, Captured>) -> Database {
    let tables = ckpt
        .iter()
        .map(|(name, c)| TableSnapshot {
            name: name.clone(),
            columns: c.columns.clone(),
            indexes: Vec::new(),
            generation: c.generation,
            next_auto: c.next_auto,
            rows: load_rows(store, &c.chunks).unwrap(),
        })
        .collect();
    let mut db = Database::new();
    db.restore(&Snapshot { tables }).unwrap();
    db
}

/// Runs `creates`, failing the append of those marked to fail.
fn run(db: &Database, creator: &mut Creator, creates: &[(usize, i64, bool)], fragment: &str) {
    for &(n, x, fail) in creates {
        if fail {
            faults::arm_at(FaultPoint::WalAppend, 0, FaultKind::Error, fragment);
        }
        assert_eq!(creator.create(db, n, x), !fail);
    }
}

proptest! {
    /// Export → import → export is a fixpoint: the second export
    /// produces byte-identical chunk refs and writes zero new files.
    #[test]
    fn chunk_round_trip_is_a_fixpoint(rows in arb_rows(), case in 0u64..u64::MAX) {
        let dir = temp_dir("fixpoint", case);
        let store = ChunkStore::open(&dir).unwrap();
        let (refs, _) = write_row_chunks(&store, &rows).unwrap();
        let loaded = load_rows(&store, &refs).unwrap();
        prop_assert_eq!(&loaded, &rows);
        let files_before = chunk_files(&dir);
        let (again, stats) = write_row_chunks(&store, &loaded).unwrap();
        prop_assert_eq!(&again, &refs, "re-export must produce identical chunk refs");
        prop_assert_eq!(stats.written, 0, "re-export of identical rows writes nothing");
        prop_assert_eq!(chunk_files(&dir), files_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After rewriting a handful of rows, the incremental writer
    /// shares every clean chunk by hash with the previous checkpoint
    /// (non-empty hash-set intersection, dirty count bounded) and
    /// still loads back the mutated rows exactly.
    #[test]
    fn clean_chunks_are_byte_shared_across_checkpoints(
        rows in arb_rows(),
        touch in proptest::collection::vec(0usize..1024, 1..4),
        case in 0u64..u64::MAX,
    ) {
        prop_assume!(!rows.is_empty());
        let mut rows = rows;
        let dir = temp_dir("shared", case);
        let store = ChunkStore::open(&dir).unwrap();
        let (prev, _) = write_row_chunks(&store, &rows).unwrap();

        let mut dirty = DirtyRows::new(rows.len());
        let mut touched_chunks = BTreeSet::new();
        for t in &touch {
            let ix = t % rows.len();
            let old = rows[ix].clone();
            rows[ix] = vec![Value::Int(-999 - i64::try_from(*t).unwrap())];
            dirty.apply(&RowDelta::Rewrite(vec![(ix, old, rows[ix].clone())]));
            touched_chunks.insert(ix / CHUNK_ROWS);
        }
        let (next, stats) = write_dirty_row_chunks(&store, &rows, &prev, &dirty).unwrap();
        prop_assert!(
            stats.written <= touched_chunks.len(),
            "wrote {} chunks for {} touched",
            stats.written,
            touched_chunks.len()
        );
        let prev_hashes: BTreeSet<_> = prev.iter().map(|r| r.hash.clone()).collect();
        let next_hashes: BTreeSet<_> = next.iter().map(|r| r.hash.clone()).collect();
        prop_assert_eq!(
            prev_hashes.intersection(&next_hashes).count(),
            prev.len() - touched_chunks.len(),
            "every untouched chunk is carried over by content hash"
        );
        prop_assert_eq!(load_rows(&store, &next).unwrap(), rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bit flip anywhere in any chunk file yields a clean error
    /// from the verifying read — never a panic, never silent
    /// acceptance — and leaves the store usable for intact chunks.
    #[test]
    fn bit_flipped_chunk_reads_error_cleanly(
        rows in arb_rows(),
        byte_seed in 0usize..4096,
        bit in 0u8..8,
        case in 0u64..u64::MAX,
    ) {
        prop_assume!(!rows.is_empty());
        let dir = temp_dir("bitflip", case);
        let store = ChunkStore::open(&dir).unwrap();
        let (refs, _) = write_row_chunks(&store, &rows).unwrap();
        let victim = &refs[byte_seed % refs.len()];
        let path = store.path(&victim.hash);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = byte_seed % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(
            store.read(&victim.hash).is_err(),
            "hash verification must reject the flipped chunk"
        );
        prop_assert!(load_rows(&store, &refs).is_err());
        // Intact chunks still read fine after the failure.
        for r in refs.iter().filter(|r| r.hash != victim.hash) {
            prop_assert!(store.read(&r.hash).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two-table creates (facet rows plus a binding row, 0–3 labels)
    /// checkpointed through the chunk store — a full checkpoint, more
    /// creates, an incremental one — then more creates in the log
    /// only, some failing, maybe ending in a torn tail: loading the
    /// chunks and replaying the compacted log rebuilds exactly the
    /// live binding set and rows, and a failed create leaves neither
    /// rows nor a binding.
    #[test]
    fn checkpointed_bindings_restore_to_the_live_set(
        creates in proptest::collection::vec(
            (0..MODELS, 0i64..50, (0u8..20).prop_map(|d| d < 3)),
            0..48,
        ),
        cuts in (0usize..49, 0usize..49),
        torn in any::<bool>(),
        case in 0u64..u64::MAX,
    ) {
        let dir = temp_dir("bindings", case);
        let store = ChunkStore::open(&dir).unwrap();
        let fragment = format!("{}/", dir.display());
        let wal_path = dir.join("wal.log");
        let log = Arc::new(WriteLog::open(&wal_path).unwrap());
        let mut db = common::fresh_db();
        db.attach_wal(log.clone());
        let first = cuts.0.min(cuts.1).min(creates.len());
        let second = cuts.0.max(cuts.1).min(creates.len());
        let mut creator = Creator::default();

        run(&db, &mut creator, &creates[..first], &fragment);
        let full = checkpoint(&db, &store, &BTreeMap::new());
        log.compact(&floor(&full)).unwrap();
        run(&db, &mut creator, &creates[first..second], &fragment);
        let incremental = checkpoint(&db, &store, &full);
        log.compact(&floor(&incremental)).unwrap();
        run(&db, &mut creator, &creates[second..], &fragment);
        if torn {
            faults::arm_at(FaultPoint::WalAppend, 0, FaultKind::ShortWrite, &fragment);
            prop_assert!(!creator.create(&db, MODELS - 1, 99));
        }

        let restored = load(&store, &incremental);
        let stats = WriteLog::replay(&wal_path, &restored).unwrap();
        prop_assert_eq!(stats.torn_tail, torn);
        prop_assert_eq!(&common::restored_bindings(&restored), &creator.live);
        for table in db.table_names() {
            let (live, back) = (db.table(table).unwrap(), restored.table(table).unwrap());
            prop_assert_eq!(back.rows(), live.rows());
        }
        for &(n, jid) in &creator.failed {
            prop_assert!(!common::has_rows_of(&db, n, jid));
            prop_assert!(!common::has_rows_of(&restored, n, jid));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
