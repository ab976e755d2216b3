//! Content-addressed chunk store for incremental checkpoints.
//!
//! A checkpoint is split into *chunks* — blobs of canonical text —
//! each stored under a hash of its bytes in a `chunks/` directory next
//! to the root manifest. Because the file name *is* the content hash,
//! an unchanged chunk from the previous checkpoint is "written" by
//! simply noticing the file already exists: incremental checkpoint
//! cost is proportional to what changed, not to database size.
//!
//! Row data is chunked in fixed ranges of [`CHUNK_ROWS`] physical rows
//! per table. [`DirtyRows`] folds a table's [`RowDelta`] journal into
//! the set of dirty chunk indices so a single-row write re-encodes a
//! single chunk.
//!
//! Chunk reads verify the content hash and feed the
//! [`faults::RestoreRead`](crate::faults::FaultPoint::RestoreRead)
//! injection point, so corruption and I/O failure surface as clean
//! [`DbError::Persist`] errors through the same paths the whole-file
//! snapshot used.

use std::collections::BTreeSet;
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{DbError, DbResult};
use crate::faults::{self, FaultKind, FaultPoint};
use crate::snapshot::{decode_value, encode_value};
use crate::table::{Row, RowDelta};

/// Physical rows per row-range chunk. Small enough that a single-row
/// write dirties a small constant amount of bytes, large enough that
/// chunk-count overhead (one file + one manifest line each) stays
/// negligible at bench scale.
pub const CHUNK_ROWS: usize = 64;

/// Disambiguates concurrent tmp files from the same process: two
/// threads inserting the same content into the same store must not
/// collide on a pid-only tmp name.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Content hash of a chunk: two independent FNV-1a 64-bit passes
/// (different offset bases) rendered as 32 lowercase hex characters.
/// Not cryptographic — this guards against corruption and provides
/// content addressing, not against an adversary crafting collisions.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x9e37_79b9_7f4a_7c15;
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    // Mix the length in so prefix-preserving truncations shift both
    // words even when the dropped suffix hashed to a fixpoint.
    a ^= bytes.len() as u64;
    b = (b ^ bytes.len() as u64).wrapping_mul(PRIME);
    format!("{a:016x}{b:016x}")
}

/// Whether `s` is a well-formed chunk hash (32 lowercase hex chars).
/// Manifest-supplied hashes must pass this before being turned into
/// file paths.
#[must_use]
pub fn is_valid_hash(s: &str) -> bool {
    s.len() == 32
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// One chunk of a table's row range as recorded in a manifest: the
/// content hash naming the chunk file, and how many rows it holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkRef {
    /// Content hash; also the file name under `chunks/`.
    pub hash: String,
    /// Physical rows encoded in the chunk.
    pub rows: usize,
}

/// Counters for one chunked write pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkWriteStats {
    /// Chunk files physically written (content not already present).
    pub written: usize,
    /// Chunks satisfied by an existing file — either carried over from
    /// the previous manifest without re-encoding, or re-encoded to
    /// bytes already in the store.
    pub reused: usize,
    /// Chunks encoded and hashed (then written, or found present); a
    /// chunk carried over by reference is not encoded.
    pub encoded: usize,
}

impl ChunkWriteStats {
    /// Accumulates another pass's counters into this one.
    pub fn absorb(&mut self, other: ChunkWriteStats) {
        self.written += other.written;
        self.reused += other.reused;
        self.encoded += other.encoded;
    }

    /// Counts one encoded chunk handed to [`ChunkStore::insert`], which
    /// reported whether a file was `written`.
    pub fn note_insert(&mut self, written: bool) {
        self.encoded += 1;
        if written {
            self.written += 1;
        } else {
            self.reused += 1;
        }
    }
}

/// A directory of content-addressed chunk files.
#[derive(Clone, Debug)]
pub struct ChunkStore {
    dir: PathBuf,
}

impl ChunkStore {
    /// Opens (creating if necessary) the `chunks/` store under a
    /// checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] if the directory cannot be created.
    pub fn open(checkpoint_dir: &Path) -> DbResult<ChunkStore> {
        let dir = checkpoint_dir.join("chunks");
        fs::create_dir_all(&dir)
            .map_err(|e| DbError::Persist(format!("create {}: {e}", dir.display())))?;
        Ok(ChunkStore { dir })
    }

    /// The file path a hash maps to.
    #[must_use]
    pub fn path(&self, hash: &str) -> PathBuf {
        self.dir.join(hash)
    }

    /// Whether the store already holds content with this hash.
    #[must_use]
    pub fn contains(&self, hash: &str) -> bool {
        self.path(hash).is_file()
    }

    /// Inserts a chunk, returning its hash and whether a file was
    /// physically written. Content already present is skipped — that
    /// skip *is* the incremental win. New content goes through the
    /// tmp + `sync_all` + rename discipline so a crash never leaves a
    /// half-written file under a valid hash name.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] on I/O failure.
    pub fn insert(&self, bytes: &[u8]) -> DbResult<(String, bool)> {
        let hash = content_hash(bytes);
        let path = self.path(&hash);
        if path.is_file() {
            return Ok((hash, false));
        }
        let tmp = self.dir.join(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> std::io::Result<()> {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        };
        write().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            DbError::Persist(format!("write chunk {hash}: {e}"))
        })?;
        Ok((hash, true))
    }

    /// Reads and verifies a chunk. The read passes through the
    /// [`RestoreRead`](FaultPoint::RestoreRead) fault point:
    /// [`FaultKind::Error`] fails the read outright, while
    /// [`FaultKind::ShortWrite`] physically truncates the file first so
    /// the corruption flows through the real verify path.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] on a malformed hash, I/O failure, or a
    /// content-hash mismatch (bit rot, truncation, wrong file).
    pub fn read(&self, hash: &str) -> DbResult<Vec<u8>> {
        if !is_valid_hash(hash) {
            return Err(DbError::Persist(format!("malformed chunk hash {hash:?}")));
        }
        let path = self.path(hash);
        match faults::check(FaultPoint::RestoreRead, &path) {
            Some(FaultKind::Error) => {
                return Err(DbError::Persist(format!(
                    "read chunk {hash}: {}",
                    faults::injected_err("chunk read")
                )));
            }
            Some(FaultKind::ShortWrite) => {
                if let Ok(f) = File::options().write(true).open(&path) {
                    let len = f.metadata().map(|m| m.len()).unwrap_or(0);
                    let _ = f.set_len(len / 2);
                }
            }
            None => {}
        }
        let bytes =
            fs::read(&path).map_err(|e| DbError::Persist(format!("read chunk {hash}: {e}")))?;
        let actual = content_hash(&bytes);
        if actual != hash {
            return Err(DbError::Persist(format!(
                "chunk {hash} fails verification (content hashes to {actual})"
            )));
        }
        Ok(bytes)
    }

    /// Deletes every chunk file not named in `keep`, plus any stale
    /// tmp debris. Called after a new manifest has been renamed into
    /// place, so a crash mid-sweep only leaves unreferenced garbage —
    /// never dangling references.
    ///
    /// # Errors
    ///
    /// [`DbError::Persist`] if the directory cannot be listed; unlink
    /// failures on individual files are ignored (they will be retried
    /// by the next sweep).
    pub fn sweep(&self, keep: &HashSet<String>) -> DbResult<usize> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| DbError::Persist(format!("list {}: {e}", self.dir.display())))?;
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if keep.contains(name) {
                continue;
            }
            if fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Encodes a run of rows into the canonical chunk text: one
/// `r <v>\t<v>...` line per row, using the snapshot value codec.
#[must_use]
pub fn encode_row_chunk(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        let encoded: Vec<String> = row.iter().map(encode_value).collect();
        out.extend_from_slice(b"r ");
        out.extend_from_slice(encoded.join("\t").as_bytes());
        out.push(b'\n');
    }
    out
}

/// Decodes a row chunk produced by [`encode_row_chunk`].
///
/// # Errors
///
/// [`DbError::Persist`] on framing or value-codec violations.
pub fn decode_row_chunk(bytes: &[u8]) -> DbResult<Vec<Row>> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| DbError::Persist("row chunk is not UTF-8".into()))?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let payload = line
            .strip_prefix("r ")
            .ok_or_else(|| DbError::Persist(format!("bad row chunk line {line:?}")))?;
        let row: DbResult<Row> = payload.split('\t').map(decode_value).collect();
        rows.push(row?);
    }
    Ok(rows)
}

/// Number of row-range chunks covering `rows` physical rows.
#[must_use]
pub fn chunk_count(rows: usize) -> usize {
    rows.div_ceil(CHUNK_ROWS)
}

/// Folds a table's [`RowDelta`] journal into the set of dirty chunk
/// indices, starting from the row count recorded in the previous
/// manifest.
///
/// Appends and rewrites dirty the specific chunks they touch; a
/// removal shifts every later row down one slot, so everything from
/// the smallest removal index onward is dirty wholesale.
#[derive(Clone, Debug)]
pub struct DirtyRows {
    touched: BTreeSet<usize>,
    /// Everything at or after this physical index is dirty (set by
    /// removals, which shift the tail).
    dirty_from: Option<usize>,
    /// Running row count while folding deltas.
    len: usize,
}

impl DirtyRows {
    /// Starts folding from the previous checkpoint's row count.
    #[must_use]
    pub fn new(prev_rows: usize) -> DirtyRows {
        DirtyRows {
            touched: BTreeSet::new(),
            dirty_from: None,
            len: prev_rows,
        }
    }

    /// Folds one journal entry.
    pub fn apply(&mut self, delta: &RowDelta) {
        match delta {
            RowDelta::Append(_) => {
                self.touched.insert(self.len);
                self.len += 1;
            }
            RowDelta::Rewrite(edits) => {
                for (ix, _, _) in edits {
                    self.touched.insert(*ix);
                }
            }
            RowDelta::Remove(removals) => {
                if let Some((first, _)) = removals.first() {
                    let from = self.dirty_from.map_or(*first, |f| f.min(*first));
                    self.dirty_from = Some(from);
                }
                self.len = self.len.saturating_sub(removals.len());
            }
        }
    }

    /// Whether chunk `ix` (over the *current* row grid) must be
    /// re-encoded. `prev_chunks` is the previous manifest's chunk
    /// count: chunks past it did not exist before and are always
    /// dirty.
    #[must_use]
    pub fn chunk_is_dirty(&self, ix: usize, prev_chunks: usize) -> bool {
        if ix >= prev_chunks {
            return true;
        }
        let start = ix * CHUNK_ROWS;
        let end = start + CHUNK_ROWS;
        if self.dirty_from.is_some_and(|f| end > f) {
            return true;
        }
        self.touched.range(start..end).next().is_some()
    }
}

/// Chunks a full row slice into the store, reusing any chunk whose
/// content is already present. Used for the first checkpoint of a
/// table and whenever the delta journal cannot prove cleanliness.
///
/// # Errors
///
/// [`DbError::Persist`] on I/O failure.
pub fn write_row_chunks(
    store: &ChunkStore,
    rows: &[Row],
) -> DbResult<(Vec<ChunkRef>, ChunkWriteStats)> {
    let mut refs = Vec::with_capacity(chunk_count(rows.len()));
    let mut stats = ChunkWriteStats::default();
    for chunk in rows.chunks(CHUNK_ROWS) {
        let bytes = encode_row_chunk(chunk);
        let (hash, written) = store.insert(&bytes)?;
        stats.note_insert(written);
        refs.push(ChunkRef {
            hash,
            rows: chunk.len(),
        });
    }
    Ok((refs, stats))
}

/// Re-chunks only the dirty row ranges, carrying clean [`ChunkRef`]s
/// over from the previous manifest without touching their bytes. The
/// caller must have verified the delta journal actually covers the
/// window since `prev` was captured.
///
/// # Errors
///
/// [`DbError::Persist`] on I/O failure.
pub fn write_dirty_row_chunks(
    store: &ChunkStore,
    rows: &[Row],
    prev: &[ChunkRef],
    dirty: &DirtyRows,
) -> DbResult<(Vec<ChunkRef>, ChunkWriteStats)> {
    let n = chunk_count(rows.len());
    let mut refs = Vec::with_capacity(n);
    let mut stats = ChunkWriteStats::default();
    for ix in 0..n {
        let start = ix * CHUNK_ROWS;
        let end = (start + CHUNK_ROWS).min(rows.len());
        if dirty.chunk_is_dirty(ix, prev.len()) {
            let bytes = encode_row_chunk(&rows[start..end]);
            let (hash, written) = store.insert(&bytes)?;
            stats.note_insert(written);
            refs.push(ChunkRef {
                hash,
                rows: end - start,
            });
        } else {
            debug_assert_eq!(prev[ix].rows, end - start, "clean chunk changed size");
            stats.reused += 1;
            refs.push(prev[ix].clone());
        }
    }
    Ok((refs, stats))
}

/// Loads and concatenates a table's row chunks, verifying each chunk's
/// content hash and declared row count.
///
/// # Errors
///
/// [`DbError::Persist`] on read/verify failure or a row-count
/// mismatch between a chunk and its manifest entry.
pub fn load_rows(store: &ChunkStore, refs: &[ChunkRef]) -> DbResult<Vec<Row>> {
    let mut rows = Vec::with_capacity(refs.iter().map(|r| r.rows).sum());
    for r in refs {
        let bytes = store.read(&r.hash)?;
        let chunk = decode_row_chunk(&bytes)?;
        if chunk.len() != r.rows {
            return Err(DbError::Persist(format!(
                "chunk {} holds {} rows, manifest says {}",
                r.hash,
                chunk.len(),
                r.rows
            )));
        }
        rows.extend(chunk);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Str(format!("name-{i}"))]
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n as i64).map(row).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "microdb_chunk_{tag}_{}_{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = content_hash(b"hello");
        assert_eq!(a, content_hash(b"hello"));
        assert_ne!(a, content_hash(b"hellp"));
        assert_ne!(a, content_hash(b"hell"));
        assert!(is_valid_hash(&a));
        assert!(!is_valid_hash("xyz"));
        assert!(!is_valid_hash(&a[..31]));
        assert!(!is_valid_hash(&a.to_uppercase()));
        assert!(!is_valid_hash("../../../../etc/passwd_aaaaaaaaaa"));
    }

    #[test]
    fn insert_read_round_trip_and_dedup() {
        let dir = temp_dir("roundtrip");
        let store = ChunkStore::open(&dir).unwrap();
        let (hash, written) = store.insert(b"payload").unwrap();
        assert!(written);
        let (hash2, written2) = store.insert(b"payload").unwrap();
        assert_eq!(hash, hash2);
        assert!(!written2, "second insert of same content must be a no-op");
        assert_eq!(store.read(&hash).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_detects_bit_flip() {
        let dir = temp_dir("bitflip");
        let store = ChunkStore::open(&dir).unwrap();
        let (hash, _) = store.insert(b"precious bytes").unwrap();
        let mut bytes = fs::read(store.path(&hash)).unwrap();
        bytes[3] ^= 0x40;
        fs::write(store.path(&hash), &bytes).unwrap();
        let err = store.read(&hash).unwrap_err();
        assert!(matches!(err, DbError::Persist(_)), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_only_unreferenced() {
        let dir = temp_dir("sweep");
        let store = ChunkStore::open(&dir).unwrap();
        let (keep_hash, _) = store.insert(b"keep me").unwrap();
        let (drop_hash, _) = store.insert(b"drop me").unwrap();
        fs::write(store.path("tmp.999.0"), b"debris").unwrap();
        let keep: HashSet<String> = [keep_hash.clone()].into_iter().collect();
        let removed = store.sweep(&keep).unwrap();
        assert_eq!(removed, 2);
        assert!(store.contains(&keep_hash));
        assert!(!store.contains(&drop_hash));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn row_chunk_codec_round_trips() {
        let data = rows(5);
        let bytes = encode_row_chunk(&data);
        assert_eq!(decode_row_chunk(&bytes).unwrap(), data);
        assert!(decode_row_chunk(b"bogus line\n").is_err());
    }

    #[test]
    fn single_append_dirties_one_chunk() {
        let mut dirty = DirtyRows::new(CHUNK_ROWS * 3); // 3 full chunks
        dirty.apply(&RowDelta::Append(row(999)));
        let prev_chunks = 3;
        assert!(!dirty.chunk_is_dirty(0, prev_chunks));
        assert!(!dirty.chunk_is_dirty(1, prev_chunks));
        assert!(!dirty.chunk_is_dirty(2, prev_chunks));
        assert!(dirty.chunk_is_dirty(3, prev_chunks), "new tail chunk");
    }

    #[test]
    fn rewrite_dirties_containing_chunk_only() {
        let mut dirty = DirtyRows::new(CHUNK_ROWS * 4);
        dirty.apply(&RowDelta::Rewrite(vec![(CHUNK_ROWS + 1, row(1), row(2))]));
        assert!(!dirty.chunk_is_dirty(0, 4));
        assert!(dirty.chunk_is_dirty(1, 4));
        assert!(!dirty.chunk_is_dirty(2, 4));
        assert!(!dirty.chunk_is_dirty(3, 4));
    }

    #[test]
    fn remove_dirties_tail_wholesale() {
        let mut dirty = DirtyRows::new(CHUNK_ROWS * 4);
        dirty.apply(&RowDelta::Remove(vec![(CHUNK_ROWS * 2 + 5, row(0))]));
        assert!(!dirty.chunk_is_dirty(0, 4));
        assert!(!dirty.chunk_is_dirty(1, 4));
        assert!(dirty.chunk_is_dirty(2, 4));
        assert!(dirty.chunk_is_dirty(3, 4));
    }

    #[test]
    fn incremental_write_reuses_clean_chunks() {
        let dir = temp_dir("incremental");
        let store = ChunkStore::open(&dir).unwrap();
        let mut data = rows(CHUNK_ROWS * 3 + 10);
        let (prev, first_stats) = write_row_chunks(&store, &data).unwrap();
        assert_eq!(first_stats.written, 4);

        // Rewrite one row in chunk 1, then re-chunk incrementally.
        let mut dirty = DirtyRows::new(data.len());
        let old = data[CHUNK_ROWS + 2].clone();
        data[CHUNK_ROWS + 2] = row(-7);
        dirty.apply(&RowDelta::Rewrite(vec![(CHUNK_ROWS + 2, old, row(-7))]));
        let (next, stats) = write_dirty_row_chunks(&store, &data, &prev, &dirty).unwrap();
        assert_eq!(stats.written, 1, "only the dirty chunk is written");
        assert_eq!(stats.reused, 3);
        assert_eq!(next[0], prev[0]);
        assert_ne!(next[1], prev[1]);
        assert_eq!(next[2], prev[2]);
        assert_eq!(next[3], prev[3]);
        assert_eq!(load_rows(&store, &next).unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rows_rejects_row_count_mismatch() {
        let dir = temp_dir("count");
        let store = ChunkStore::open(&dir).unwrap();
        let (refs, _) = write_row_chunks(&store, &rows(3)).unwrap();
        let mut lying = refs.clone();
        lying[0].rows = 2;
        assert!(load_rows(&store, &lying).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
