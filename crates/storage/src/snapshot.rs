//! Snapshot persistence: a versioned, checksummed binary image of a
//! [`Database`] with lazily-pageable column data.
//!
//! Generating (or ingesting) the IMDB-scale database dominates the start-up
//! cost of every one-shot run, so the serve path (and `qob --snapshot`)
//! persists the database once and reloads it in milliseconds.  Format v2
//! stores column data as the **encoded pages** of
//! [`crate::column::EncodedColumn`] behind a per-column page directory.
//! There is one reader: [`open_lazy`] reads only the header and the
//! metadata section up front, and each page faults in on first touch —
//! open cost is O(touched data), not O(database).  [`load`] is that open
//! with every page read and checked before it returns.
//!
//! ```text
//! offset       size   field
//! 0            8      magic  b"QOBSNAP1"
//! 8            4      format version (u32 LE, currently 2)
//! 12           8      metadata length n (u64 LE)
//! 20           n      metadata section
//! 20+n         8      FNV-1a 64 checksum of the metadata section (u64 LE)
//! 28+n         ...    pages blob: concatenated encoded pages
//! ```
//!
//! The metadata section serialises, in order: the caller metadata pairs, the
//! index configuration, every table (schema, row count, then per column its
//! validity bitmap, dictionary strings for string columns, and the **page
//! directory** — `(offset, length, checksum)` of each encoded page relative
//! to the pages blob), and the key declarations.  Pages are written
//! contiguously and each carries its own checksum, because a lazily-opened
//! snapshot can never verify a whole-file checksum without defeating the
//! point of lazy loading.  Indexes are *not* stored — loading declares them
//! from the recorded [`IndexConfig`], and each is built on first use.
//!
//! Integers are fixed-width little-endian; strings are a `u64` byte length
//! followed by UTF-8 bytes.  Every read validates lengths against the
//! remaining input, and every page read, lazily or by [`load`], passes one
//! check — its checksum, its decode, its type, its row count and its
//! dictionary codes against the column it belongs to — so a truncated or
//! bit-flipped file fails with [`StorageError::SnapshotCorrupt`] instead of
//! producing a silently wrong database.
//!
//! A version-1 snapshot (the pre-encoding eager format) is rejected with an
//! actionable [`StorageError::SnapshotVersion`] telling the user to
//! regenerate or re-ingest.
//!
//! # Examples
//!
//! ```no_run
//! use qob_storage::{snapshot, Database};
//!
//! let db = Database::new();
//! snapshot::save(&db, &[], "db.qob").unwrap();
//! let (reloaded, _meta) = snapshot::load("db.qob").unwrap();
//! assert_eq!(reloaded.table_count(), db.table_count());
//! ```

use std::path::Path;
use std::sync::Arc;

use crate::catalog::{Database, IndexConfig};
use crate::column::{EncodedColumn, PageFetch};
use crate::encoding::{fnv1a64, PageStore, PAGE_ROWS};
use crate::error::StorageError;
use crate::table::{ColumnMeta, Table};
use crate::value::DataType;
use crate::{Bitmap, Result, StringDict};

/// The 8-byte magic at offset 0 of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"QOBSNAP1";

/// The newest snapshot format version this build writes and reads.
/// Version 2 introduced encoded pages and the lazy page directory.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Caller-defined metadata persisted alongside the database — small
/// key/value pairs such as the generation scale, so higher layers can
/// reconstruct their context without re-deriving it from the data.
pub type SnapshotMeta = Vec<(String, i64)>;

const HEADER_LEN: usize = 8 + 4 + 8;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// One page directory entry: where a page's bytes live in the pages blob.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    offset: u64,
    len: u32,
    checksum: u64,
}

/// Serialises `db` (plus caller metadata) into the snapshot byte format.
pub fn encode(db: &Database, meta: &[(String, i64)]) -> Vec<u8> {
    // Pass 1: serialise every page into the blob, recording the directory.
    let mut blob = Vec::new();
    let mut dirs: Vec<Vec<Vec<DirEntry>>> = Vec::with_capacity(db.table_count());
    for (_, table) in db.tables() {
        let mut table_dirs = Vec::with_capacity(table.column_count());
        for idx in 0..table.column_count() {
            let col = table.column(crate::ColumnId(idx as u32));
            let mut dir = Vec::with_capacity(col.page_count());
            for p in 0..col.page_count() {
                let bytes = col.page(p).to_bytes();
                dir.push(DirEntry {
                    offset: blob.len() as u64,
                    len: bytes.len() as u32,
                    checksum: fnv1a64(&bytes),
                });
                blob.extend_from_slice(&bytes);
            }
            table_dirs.push(dir);
        }
        dirs.push(table_dirs);
    }

    // Pass 2: the metadata section.
    let mut payload = Vec::with_capacity(64 * 1024);
    put_u32(&mut payload, meta.len() as u32);
    for (key, value) in meta {
        put_str(&mut payload, key);
        put_i64(&mut payload, *value);
    }
    payload.push(index_config_tag(db.index_config()));
    put_u32(&mut payload, db.table_count() as u32);
    for ((_, table), table_dirs) in db.tables().zip(&dirs) {
        encode_table_meta(&mut payload, table, table_dirs);
    }
    for (tid, table) in db.tables() {
        let keys = db.keys(tid);
        match keys.primary_key {
            Some(col) => {
                payload.push(1);
                put_str(&mut payload, &table.column_meta(col).name);
            }
            None => payload.push(0),
        }
        put_u32(&mut payload, keys.foreign_keys.len() as u32);
        for fk in &keys.foreign_keys {
            put_str(&mut payload, &table.column_meta(fk.column).name);
            put_u32(&mut payload, fk.references.0);
        }
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8 + blob.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&blob);
    out
}

fn encode_table_meta(out: &mut Vec<u8>, table: &Table, table_dirs: &[Vec<DirEntry>]) {
    put_str(out, table.name());
    put_u32(out, table.column_count() as u32);
    for meta in table.schema() {
        put_str(out, &meta.name);
        out.push(match meta.dtype {
            DataType::Int => 0,
            DataType::Str => 1,
        });
    }
    put_u64(out, table.row_count() as u64);
    for (idx, dir) in table_dirs.iter().enumerate() {
        let col = table.column(crate::ColumnId(idx as u32));
        put_bitmap(out, col.validity());
        if let Some(dict) = col.dict() {
            put_u32(out, dict.len() as u32);
            for (_, s) in dict.iter() {
                put_str(out, s);
            }
        }
        put_u32(out, dir.len() as u32);
        for entry in dir {
            put_u64(out, entry.offset);
            put_u32(out, entry.len);
            put_u64(out, entry.checksum);
        }
    }
}

/// Writes `db` and `meta` to `path` in the snapshot format.
///
/// The write goes to a sibling temporary file first and is renamed into
/// place, so a crash mid-save can never leave a half-written snapshot at
/// `path` (which would hard-fail every later `--snapshot` run).
pub fn save(db: &Database, meta: &[(String, i64)], path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, encode(db, meta))
        .map_err(|e| StorageError::Io(format!("writing `{}`: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        StorageError::Io(format!("renaming `{}` into place: {e}", path.display()))
    })
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

struct ParsedColumn {
    validity: Bitmap,
    dict: Option<StringDict>,
    directory: Vec<DirEntry>,
}

struct ParsedTable {
    name: String,
    metas: Vec<ColumnMeta>,
    row_count: usize,
    columns: Vec<ParsedColumn>,
}

/// One table's key declarations:
/// `(pk_column_name?, [(fk_column_name, referenced_table)])`.
type ParsedKeys = (Option<String>, Vec<(String, u32)>);

struct ParsedSnapshot {
    meta: SnapshotMeta,
    index_config: IndexConfig,
    tables: Vec<ParsedTable>,
    /// Per-table key declarations, in table order.
    keys: Vec<ParsedKeys>,
    /// Total bytes of the pages blob implied by the directories.
    blob_len: u64,
}

fn parse_meta(payload: &[u8]) -> Result<ParsedSnapshot> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    let meta_len = cur.u32()? as usize;
    let mut meta = Vec::with_capacity(meta_len.min(1024));
    for _ in 0..meta_len {
        let key = cur.str()?;
        let value = cur.i64()?;
        meta.push((key, value));
    }
    let index_config = index_config_from_tag(cur.u8()?)?;
    let table_count = cur.u32()? as usize;
    let mut tables = Vec::with_capacity(table_count.min(4096));
    // Pages are written contiguously: every directory entry must start
    // exactly where the previous one ended, so the directories cover the
    // whole blob with no gaps or overlaps.
    let mut next_offset = 0u64;
    for _ in 0..table_count {
        tables.push(parse_table_meta(&mut cur, &mut next_offset)?);
    }
    let mut keys = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let pk = if cur.u8()? == 1 { Some(cur.str()?) } else { None };
        let fk_count = cur.u32()? as usize;
        let mut fks = Vec::with_capacity(fk_count.min(64));
        for _ in 0..fk_count {
            let column = cur.str()?;
            let references = cur.u32()?;
            if references as usize >= table_count {
                return Err(StorageError::SnapshotCorrupt(format!(
                    "foreign key references table {references} of {table_count}"
                )));
            }
            fks.push((column, references));
        }
        keys.push((pk, fks));
    }
    if cur.pos != payload.len() {
        return Err(StorageError::SnapshotCorrupt(format!(
            "{} trailing metadata bytes after the key declarations",
            payload.len() - cur.pos
        )));
    }
    Ok(ParsedSnapshot { meta, index_config, tables, keys, blob_len: next_offset })
}

fn parse_table_meta(cur: &mut Cursor<'_>, next_offset: &mut u64) -> Result<ParsedTable> {
    let name = cur.str()?;
    let column_count = cur.u32()? as usize;
    let mut metas = Vec::with_capacity(column_count.min(4096));
    for _ in 0..column_count {
        let col_name = cur.str()?;
        let dtype = match cur.u8()? {
            0 => DataType::Int,
            1 => DataType::Str,
            tag => {
                return Err(StorageError::SnapshotCorrupt(format!(
                    "unknown column type tag {tag} in table `{name}`"
                )))
            }
        };
        metas.push(ColumnMeta::new(col_name, dtype));
    }
    let claimed_rows = cur.u64()?;
    // A validity bitmap of `row_count` bits must fit in the remaining
    // metadata, which bounds a corrupt "4 billion rows" claim before any
    // allocation happens.
    let bitmap_bytes = claimed_rows.div_ceil(64).saturating_mul(8);
    if bitmap_bytes > (cur.bytes.len() - cur.pos) as u64 {
        return Err(StorageError::SnapshotCorrupt(format!(
            "row count {claimed_rows} exceeds the metadata remaining for its bitmap"
        )));
    }
    let row_count = claimed_rows as usize;
    let expected_pages = row_count.div_ceil(PAGE_ROWS);
    let mut columns = Vec::with_capacity(column_count);
    for meta in &metas {
        let validity = cur.bitmap(row_count)?;
        let dict = match meta.dtype {
            DataType::Int => None,
            DataType::Str => {
                let dict_len = cur.u32()? as usize;
                let mut strings = Vec::with_capacity(dict_len.min(row_count.max(16)));
                for _ in 0..dict_len {
                    strings.push(cur.str()?);
                }
                Some(StringDict::from_strings(strings).ok_or_else(|| {
                    StorageError::SnapshotCorrupt(format!(
                        "duplicate dictionary string in column `{}` of `{name}`",
                        meta.name
                    ))
                })?)
            }
        };
        let page_count = cur.u32()? as usize;
        if page_count != expected_pages {
            return Err(StorageError::SnapshotCorrupt(format!(
                "column `{}` of `{name}` has {page_count} pages, expected {expected_pages} \
                 for {row_count} rows",
                meta.name
            )));
        }
        let mut directory = Vec::with_capacity(page_count);
        for _ in 0..page_count {
            let offset = cur.u64()?;
            let len = cur.u32()?;
            let checksum = cur.u64()?;
            if offset != *next_offset {
                return Err(StorageError::SnapshotCorrupt(format!(
                    "page directory of `{}` in `{name}` is not contiguous \
                     (offset {offset}, expected {next_offset})",
                    meta.name
                )));
            }
            *next_offset = offset
                .checked_add(len as u64)
                .ok_or_else(|| StorageError::SnapshotCorrupt("page offset overflow".into()))?;
            directory.push(DirEntry { offset, len, checksum });
        }
        columns.push(ParsedColumn { validity, dict, directory });
    }
    Ok(ParsedTable { name, metas, row_count, columns })
}

/// Opens a snapshot **lazily**: only the header and the metadata section
/// are read up front; each column page faults in through the returned
/// [`PageStore`] on first access.  Index building touches the key columns
/// it scans, nothing else — so opening plus a point query reads O(touched
/// pages), not the whole file.  The store's [`PageStore::bytes_read`]
/// counter exposes exactly how much was touched.
///
/// A fault passes the same per-page check as [`load`]; a page that later
/// fails it panics (the mmap-SIGBUS analogue).  Use [`load`] when a bad
/// page must be an error.
pub fn open_lazy(path: impl AsRef<Path>) -> Result<(Database, SnapshotMeta, Arc<PageStore>)> {
    open(path.as_ref(), false)
}

/// Loads a database (and its caller metadata) from a snapshot file: the
/// open of [`open_lazy`] with every page read and passed through the lazy
/// fault's check before it returns, so a damaged page is a
/// [`StorageError`] here rather than a panic later, and the loaded database
/// no longer refers to the file.
pub fn load(path: impl AsRef<Path>) -> Result<(Database, SnapshotMeta)> {
    open(path.as_ref(), true).map(|(db, meta, _)| (db, meta))
}

/// The one reader of the header, the metadata and the pages.  Columns are
/// built lazy; `resident` makes every page of each resident as it is built.
fn open(path: &Path, resident: bool) -> Result<(Database, SnapshotMeta, Arc<PageStore>)> {
    use std::os::unix::fs::FileExt;
    let io = |what: &str, e: std::io::Error| {
        StorageError::Io(format!("{what} `{}`: {e}", path.display()))
    };
    let file = std::fs::File::open(path).map_err(|e| io("opening", e))?;
    let file_len = file.metadata().map_err(|e| io("stat", e))?.len();
    // Bytes left for the metadata section once the header and the
    // metadata checksum are accounted for.
    let Some(rest) = file_len.checked_sub(HEADER_LEN as u64 + 8) else {
        return Err(StorageError::SnapshotCorrupt(format!(
            "file too short ({file_len} bytes) to hold a snapshot header"
        )));
    };
    let mut header = [0u8; HEADER_LEN];
    file.read_exact_at(&mut header, 0).map_err(|e| io("reading", e))?;
    if header[..8] != SNAPSHOT_MAGIC {
        return Err(StorageError::SnapshotCorrupt("bad magic (not a qob snapshot)".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(StorageError::SnapshotVersion { found: version, supported: SNAPSHOT_VERSION });
    }
    let meta_len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if meta_len > rest {
        return Err(StorageError::SnapshotCorrupt(format!(
            "metadata section claims {meta_len} bytes, {rest} available"
        )));
    }
    // The lazy open reads the metadata section and its checksum; `load`
    // reads the pages blob in the same read, checks every page against that
    // buffer and frees it.  (Freeing one buffer the size of the file also
    // raises glibc's dynamic mmap threshold, which the executor's
    // per-statement buffers lean on: with one read per page instead,
    // `job_exec` took 5.8x the minor page faults and ran ~9 % slower.)
    let read_len = if resident { rest } else { meta_len } + 8;
    let mut bytes = vec![0u8; read_len as usize];
    file.read_exact_at(&mut bytes, HEADER_LEN as u64).map_err(|e| io("reading", e))?;
    let (payload, tail) = bytes.split_at(meta_len as usize);
    let (stored, blob) = tail.split_at(8);
    let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
    let actual = fnv1a64(payload);
    if stored != actual {
        return Err(StorageError::SnapshotCorrupt(format!(
            "metadata checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    let parsed = parse_meta(payload)?;
    // At most `file_len`, so neither this sum nor any page's file offset
    // below can overflow.
    let pages_start = HEADER_LEN as u64 + meta_len + 8;
    if parsed.blob_len != file_len - pages_start {
        return Err(StorageError::SnapshotCorrupt(format!(
            "pages blob is {} bytes, directory expects {}",
            file_len - pages_start,
            parsed.blob_len
        )));
    }
    let store = Arc::new(PageStore::new(file));
    let mut db = Database::new();
    for t in parsed.tables {
        let mut columns = Vec::with_capacity(t.columns.len());
        for (meta, col) in t.metas.iter().zip(t.columns) {
            let encoded_bytes = col.directory.iter().map(|e| e.len as usize).sum();
            let fetches = col
                .directory
                .into_iter()
                .map(|e| PageFetch {
                    store: Arc::clone(&store),
                    offset: pages_start + e.offset,
                    len: e.len,
                    checksum: e.checksum,
                })
                .collect();
            let mut column = EncodedColumn::from_lazy_parts(
                meta.dtype,
                t.row_count,
                col.validity,
                col.dict,
                fetches,
                encoded_bytes,
            );
            if resident {
                column.make_resident(blob, pages_start)?;
            }
            columns.push(column);
        }
        db.add_table(Table::from_parts(t.name, t.metas, columns)?)?;
    }
    for (tid, (pk, fks)) in parsed.keys.into_iter().enumerate() {
        let tid = crate::TableId(tid as u32);
        if let Some(pk) = pk {
            db.declare_primary_key(tid, &pk)?;
        }
        for (column, references) in fks {
            db.declare_foreign_key(tid, &column, crate::TableId(references))?;
        }
    }
    db.build_indexes(parsed.index_config)?;
    Ok((db, parsed.meta, store))
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

fn index_config_tag(config: IndexConfig) -> u8 {
    match config {
        IndexConfig::NoIndexes => 0,
        IndexConfig::PrimaryKeyOnly => 1,
        IndexConfig::PrimaryAndForeignKey => 2,
    }
}

fn index_config_from_tag(tag: u8) -> Result<IndexConfig> {
    match tag {
        0 => Ok(IndexConfig::NoIndexes),
        1 => Ok(IndexConfig::PrimaryKeyOnly),
        2 => Ok(IndexConfig::PrimaryAndForeignKey),
        other => Err(StorageError::SnapshotCorrupt(format!("unknown index config tag {other}"))),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bitmap(out: &mut Vec<u8>, bm: &Bitmap) {
    for w in bm.words() {
        put_u64(out, *w);
    }
}

/// A bounds-checked reader over the metadata section: every primitive read
/// fails with a descriptive [`StorageError::SnapshotCorrupt`] instead of
/// panicking when the input is shorter than its own length fields claim.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(StorageError::SnapshotCorrupt(format!(
                "metadata truncated: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Validates a length field against the bytes actually remaining, so a
    /// corrupt "4 billion rows" claim fails fast instead of allocating.
    fn checked_len(&self, claimed: u64, what: &str) -> Result<usize> {
        let remaining = (self.bytes.len() - self.pos) as u64;
        if claimed > remaining {
            return Err(StorageError::SnapshotCorrupt(format!(
                "{what} {claimed} exceeds the {remaining} metadata bytes remaining"
            )));
        }
        Ok(claimed as usize)
    }

    fn str(&mut self) -> Result<String> {
        let claimed = self.u64()?;
        let len = self.checked_len(claimed, "string length")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::SnapshotCorrupt("non-UTF-8 string in metadata".into()))
    }

    fn bitmap(&mut self, len: usize) -> Result<Bitmap> {
        let word_count = len.div_ceil(64);
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(self.u64()?);
        }
        Bitmap::from_words(words, len)
            .ok_or_else(|| StorageError::SnapshotCorrupt("bitmap word count mismatch".into()))
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::column::ColumnBuilder;
    use crate::predicate::{CmpOp, Predicate};
    use crate::table::TableBuilder;
    use crate::value::Value;
    use crate::{ColumnId, EncodingPolicy, ScanFilter};

    fn sample_db(config: IndexConfig) -> Database {
        let mut db = Database::new();
        let mut title = TableBuilder::new(
            "title",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("title", DataType::Str),
                ColumnMeta::new("production_year", DataType::Int),
            ],
        );
        for i in 0..100 {
            let year = if i % 7 == 0 { Value::Null } else { Value::Int(1990 + i % 30) };
            title
                .push_row(vec![Value::Int(i), Value::Str(format!("movie {}", i % 40)), year])
                .unwrap();
        }
        let title_id = db.add_table(title.finish()).unwrap();

        let mut mc = TableBuilder::new(
            "movie_companies",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("movie_id", DataType::Int)],
        );
        for i in 0..250 {
            mc.push_row(vec![Value::Int(i), Value::Int(i % 100)]).unwrap();
        }
        let mc_id = db.add_table(mc.finish()).unwrap();

        db.declare_primary_key(title_id, "id").unwrap();
        db.declare_primary_key(mc_id, "id").unwrap();
        db.declare_foreign_key(mc_id, "movie_id", title_id).unwrap();
        db.build_indexes(config).unwrap();
        db
    }

    fn assert_databases_identical(a: &Database, b: &Database) {
        assert_eq!(a.table_count(), b.table_count());
        assert_eq!(a.index_config(), b.index_config());
        assert_eq!(a.index_count(), b.index_count());
        for (tid, ta) in a.tables() {
            let tb = b.table(tid);
            assert_eq!(ta.name(), tb.name());
            assert_eq!(ta.schema(), tb.schema());
            assert_eq!(ta.row_count(), tb.row_count());
            for col in 0..ta.column_count() as u32 {
                let (ca, cb) = (ta.column(ColumnId(col)), tb.column(ColumnId(col)));
                assert_eq!(ca.validity(), cb.validity());
                for row in 0..ta.row_count() {
                    assert_eq!(ca.value_at(row), cb.value_at(row), "row {row} col {col}");
                    // Dictionary codes must survive exactly, not just strings.
                    assert_eq!(ca.code_at(row), cb.code_at(row), "row {row} col {col}");
                }
                if let (Some(da), Some(db_)) = (ca.dict(), cb.dict()) {
                    assert!(da.iter().eq(db_.iter()));
                }
            }
            assert_eq!(a.keys(tid).primary_key, b.keys(tid).primary_key);
            assert_eq!(a.keys(tid).foreign_keys, b.keys(tid).foreign_keys);
        }
    }

    /// A snapshot path in the temp directory that no other test uses.
    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qob-snapshot-{tag}-{}-{n}.qob", std::process::id()))
    }

    /// Writes `bytes` to a fresh file, runs `f` on its path and removes it.
    fn with_file<T>(bytes: &[u8], f: impl FnOnce(&Path) -> T) -> T {
        let path = temp_path("bytes");
        std::fs::write(&path, bytes).unwrap();
        let out = f(&path);
        std::fs::remove_file(&path).ok();
        out
    }

    fn load_bytes(bytes: &[u8]) -> Result<(Database, SnapshotMeta)> {
        with_file(bytes, |path| load(path))
    }

    /// Opens `bytes` lazily and faults every page in through the fallible
    /// fault, returning the first error.
    fn fault_every_page_lazily(bytes: &[u8]) -> Result<()> {
        with_file(bytes, |path| {
            let (db, _, _) = open_lazy(path)?;
            for (_, table) in db.tables() {
                for col in 0..table.column_count() as u32 {
                    let column = table.column(ColumnId(col));
                    for p in 0..column.page_count() {
                        column.fault(p)?;
                    }
                }
            }
            Ok(())
        })
    }

    fn assert_corrupt_on_both_paths(bytes: &[u8], what: &str) {
        let loaded = load_bytes(bytes).map(|_| ());
        assert!(matches!(loaded, Err(StorageError::SnapshotCorrupt(_))), "{what}: load {loaded:?}");
        let faulted = fault_every_page_lazily(bytes);
        assert!(
            matches!(faulted, Err(StorageError::SnapshotCorrupt(_))),
            "{what}: lazy fault {faulted:?}"
        );
    }

    fn dir_entry_bytes(entry: &DirEntry) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        put_u64(&mut out, entry.offset);
        put_u32(&mut out, entry.len);
        put_u64(&mut out, entry.checksum);
        out
    }

    /// Passes every page of a snapshot through `damage` (given the page's
    /// position in the file and its bytes), then rewrites each page
    /// directory entry and the metadata checksum to match — so what
    /// `damage` did can only be caught by the per-page check.
    fn rewrite_pages(bytes: &[u8], mut damage: impl FnMut(usize, &[u8]) -> Vec<u8>) -> Vec<u8> {
        let meta_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let mut payload = bytes[HEADER_LEN..HEADER_LEN + meta_len].to_vec();
        let blob = &bytes[HEADER_LEN + meta_len + 8..];
        let parsed = parse_meta(&payload).unwrap();
        let entries = parsed.tables.iter().flat_map(|t| &t.columns).flat_map(|c| &c.directory);
        let (mut pages, mut searched) = (Vec::new(), 0);
        for (i, entry) in entries.enumerate() {
            let page = damage(i, &blob[entry.offset as usize..][..entry.len as usize]);
            let old = dir_entry_bytes(entry);
            let at = searched
                + payload[searched..].windows(old.len()).position(|w| w == old).expect("entry");
            let new = dir_entry_bytes(&DirEntry {
                offset: pages.len() as u64,
                len: page.len() as u32,
                checksum: fnv1a64(&page),
            });
            payload[at..at + new.len()].copy_from_slice(&new);
            searched = at + new.len();
            pages.extend_from_slice(&page);
        }
        let mut out = bytes[..HEADER_LEN].to_vec();
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&pages);
        out
    }

    /// `bytes` with page `target` replaced by `replacement`.
    fn with_page(bytes: &[u8], target: usize, replacement: &[u8]) -> Vec<u8> {
        assert_eq!(rewrite_pages(bytes, |_, page| page.to_vec()), bytes, "rewrite is faithful");
        rewrite_pages(bytes, |i, page| if i == target { replacement } else { page }.to_vec())
    }

    /// The bytes of the single page of a column built from `values`.
    fn one_page(dtype: DataType, values: impl IntoIterator<Item = Value>) -> Vec<u8> {
        let mut builder = ColumnBuilder::new(dtype);
        for value in values {
            assert!(builder.push(&value));
        }
        let column = builder.finish();
        assert_eq!(column.page_count(), 1);
        column.page(0).to_bytes()
    }

    #[test]
    fn roundtrip_preserves_tables_keys_indexes_and_meta() {
        for config in IndexConfig::all() {
            let db = sample_db(config);
            let meta = vec![("scale.movies".to_owned(), 200i64), ("scale.seed".to_owned(), 42)];
            let (reloaded, meta2) = load_bytes(&encode(&db, &meta)).unwrap();
            assert_eq!(meta, meta2);
            assert_databases_identical(&db, &reloaded);
        }
    }

    #[test]
    fn save_and_load_through_a_file() {
        let db = sample_db(IndexConfig::PrimaryAndForeignKey);
        let path = temp_path("save");
        save(&db, &[], &path).unwrap();
        // The atomic-rename dance leaves no temporary file behind.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with(&stem) && name != stem
            })
            .count();
        assert_eq!(leftovers, 0, "temporary save files must not survive");
        let (reloaded, _) = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_databases_identical(&db, &reloaded);
    }

    #[test]
    fn lazy_open_reads_only_touched_pages() {
        let db = sample_db(IndexConfig::NoIndexes);
        let path = temp_path("lazy");
        save(&db, &[], &path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len();

        let (lazy, _meta, store) = open_lazy(&path).unwrap();
        assert_eq!(store.bytes_read(), 0, "open faults no pages");

        // A single-table point query touches only the pages it scans.
        let title = lazy.table_by_name("title").unwrap();
        let id = title.column_id("id").unwrap();
        let p = [Predicate::IntCmp { column: id, op: CmpOp::Eq, value: 17 }];
        let mut rows = Vec::new();
        ScanFilter::compile(title, &p).select(0..title.row_count(), &mut rows);
        assert_eq!(rows, vec![17]);
        let touched = store.bytes_read();
        assert!(touched > 0, "the point query must fault at least one page");
        assert!(
            touched < file_len,
            "lazy load touched {touched} of {file_len} bytes — not O(touched data)"
        );

        // Faulting everything converges to the full load.
        let (loaded, _) = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_databases_identical(&loaded, &lazy);
    }

    #[test]
    fn load_leaves_no_page_behind_the_file() {
        let db = sample_db(IndexConfig::PrimaryKeyOnly);
        let path = temp_path("resident");
        save(&db, &[], &path).unwrap();
        let (loaded, _) = load(&path).unwrap();
        // Every page is resident, so emptying the file in place (its inode,
        // unlike an unlink) before the first read changes nothing.
        std::fs::write(&path, b"").unwrap();
        std::fs::remove_file(&path).ok();
        assert_databases_identical(&db, &loaded);
        for ((_, a), (_, b)) in db.tables().zip(loaded.tables()) {
            assert_eq!(a.encoded_data_bytes(), b.encoded_data_bytes());
        }
    }

    #[test]
    fn concurrent_first_readers_fault_a_page_once() {
        let db = sample_db(IndexConfig::NoIndexes);
        let path = temp_path("once");
        save(&db, &[], &path).unwrap();
        let (lazy, _, store) = open_lazy(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let column = lazy.table_by_name("title").unwrap().column(ColumnId(1));
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    column.page(0);
                });
            }
        });
        let page_len = column.page(0).to_bytes().len() as u64;
        assert_eq!(store.bytes_read(), page_len, "four first readers, one read");
    }

    #[test]
    fn lazy_open_rebuilds_indexes() {
        let db = sample_db(IndexConfig::PrimaryAndForeignKey);
        let path = temp_path("lazyidx");
        save(&db, &[], &path).unwrap();
        let (lazy, _, _store) = open_lazy(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(lazy.index_count(), db.index_count());
        let mc = lazy.table_id("movie_companies").unwrap();
        let movie_id = lazy.table(mc).column_id("movie_id").unwrap();
        assert_eq!(lazy.key_index(mc, movie_id).unwrap().lookup(3).len(), 3);
    }

    #[test]
    fn auto_encoding_shrinks_the_snapshot() {
        let db = sample_db(IndexConfig::NoIndexes);
        let encoded_len = encode(&db, &[]).len();

        let mut plain_db = Database::new();
        for (_, table) in db.tables() {
            plain_db.add_table(table.reencoded(EncodingPolicy::Plain)).unwrap();
        }
        plain_db.build_indexes(IndexConfig::NoIndexes).unwrap();
        let plain_len = encode(&plain_db, &[]).len();
        assert!(
            encoded_len < plain_len,
            "auto-encoded snapshot ({encoded_len} B) is not smaller than plain ({plain_len} B)"
        );
    }

    #[test]
    fn io_errors_are_reported_not_panicked() {
        let err = load("/nonexistent/dir/db.qob").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        let db = sample_db(IndexConfig::NoIndexes);
        let err = save(&db, &[], "/nonexistent/dir/db.qob").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        let err = open_lazy("/nonexistent/dir/db.qob").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let db = sample_db(IndexConfig::PrimaryKeyOnly);
        let mut bytes = encode(&db, &[]);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(load_bytes(&wrong_magic), Err(StorageError::SnapshotCorrupt(_))));

        // A future version is rejected with a version error, not a parse error.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            load_bytes(&bytes),
            Err(StorageError::SnapshotVersion { found: 99, supported: SNAPSHOT_VERSION })
        ));

        assert!(matches!(load_bytes(b"short"), Err(StorageError::SnapshotCorrupt(_))));
        let lazy = with_file(b"short", |path| open_lazy(path).map(|_| ()));
        assert!(matches!(lazy, Err(StorageError::SnapshotCorrupt(_))));
    }

    /// A metadata length near `u64::MAX` must fail the bounds check, not
    /// overflow the arithmetic that locates the pages blob.
    #[test]
    fn a_huge_metadata_length_is_corrupt_on_both_paths() {
        let bytes = encode(&sample_db(IndexConfig::NoIndexes), &[]);
        for meta_len in [u64::MAX, u64::MAX - 20] {
            let mut damaged = bytes.clone();
            damaged[12..20].copy_from_slice(&meta_len.to_le_bytes());
            let loaded = load_bytes(&damaged).map(|_| ());
            let opened = with_file(&damaged, |path| open_lazy(path).map(|_| ()));
            for (how, result) in [("load", loaded), ("open_lazy", opened)] {
                assert!(
                    matches!(result, Err(StorageError::SnapshotCorrupt(_))),
                    "{how} with metadata length {meta_len}: {result:?}"
                );
            }
        }
    }

    /// A stale v1 snapshot must produce the actionable version error
    /// (naming found vs. supported and telling the user to
    /// regenerate/re-ingest), from both `load` and the lazy open.
    #[test]
    fn stale_v1_snapshot_gets_an_actionable_error() {
        let db = sample_db(IndexConfig::PrimaryKeyOnly);
        let mut bytes = encode(&db, &[]);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());

        let err = load_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            StorageError::SnapshotVersion { found: 1, supported: SNAPSHOT_VERSION }
        ));
        let message = err.to_string();
        assert!(message.contains('1') && message.contains('2'), "names both versions: {message}");
        assert!(
            message.contains("regenerate") || message.contains("re-ingest"),
            "tells the user what to do: {message}"
        );

        let lazy_err = with_file(&bytes, |path| open_lazy(path).map(|_| ())).unwrap_err();
        assert!(matches!(
            lazy_err,
            StorageError::SnapshotVersion { found: 1, supported: SNAPSHOT_VERSION }
        ));
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let db = sample_db(IndexConfig::PrimaryKeyOnly);
        let bytes = encode(&db, &[("k".to_owned(), 7)]);
        // Flip one byte at a sample of offsets: the metadata checksum, a
        // page checksum, or a structural validation must reject each one.
        for pos in (12..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            assert!(load_bytes(&corrupt).is_err(), "flip at {pos} went undetected");
            assert!(fault_every_page_lazily(&corrupt).is_err(), "lazy: flip at {pos} undetected");
        }
        // Truncation anywhere is also rejected.
        for cut in [bytes.len() - 1, bytes.len() / 2, 13] {
            assert!(load_bytes(&bytes[..cut]).is_err(), "truncation to {cut} went undetected");
        }
    }

    #[test]
    fn a_page_of_the_wrong_type_is_corrupt() {
        let bytes = encode(&sample_db(IndexConfig::NoIndexes), &[]);
        // Page 0 holds `title.id`'s 100 ints; put 100 in-range codes there.
        let codes = one_page(DataType::Str, (0..100).map(|i| Value::Str(format!("movie {i}"))));
        assert_corrupt_on_both_paths(&with_page(&bytes, 0, &codes), "wrong type");
    }

    /// The column's row total still matches — a short page followed by a
    /// long one — so only a per-page row count catches it.
    #[test]
    fn a_page_one_row_short_is_corrupt() {
        let rows = PAGE_ROWS + 10;
        let mut table = TableBuilder::new("t", vec![ColumnMeta::new("n", DataType::Int)]);
        for n in 0..rows {
            table.push_row(vec![Value::Int(n as i64)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(table.finish()).unwrap();
        db.build_indexes(IndexConfig::NoIndexes).unwrap();
        let bytes = encode(&db, &[]);

        let ints = |range: std::ops::Range<usize>| {
            one_page(DataType::Int, range.map(|n| Value::Int(n as i64)))
        };
        let short = with_page(&bytes, 0, &ints(0..PAGE_ROWS - 1));
        let damaged = with_page(&short, 1, &ints(PAGE_ROWS - 1..rows));
        assert_corrupt_on_both_paths(&damaged, "short page");
    }

    #[test]
    fn a_code_beyond_the_dictionary_is_corrupt() {
        let bytes = encode(&sample_db(IndexConfig::NoIndexes), &[]);
        // Page 1 holds `title.title`: 100 rows over a 40-string dictionary.
        // A page of 100 distinct strings holds the codes 0..100.
        let codes = one_page(DataType::Str, (0..100).map(|i| Value::Str(i.to_string())));
        assert_corrupt_on_both_paths(&with_page(&bytes, 1, &codes), "code beyond dictionary");
    }
}
