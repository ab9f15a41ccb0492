//! Snapshot persistence: a versioned, checksummed binary image of a
//! [`Database`] with lazily-pageable column data.
//!
//! Generating (or ingesting) the IMDB-scale database dominates the start-up
//! cost of every one-shot run, so the serve path (and `qob --snapshot`)
//! persists the database once and reloads it in milliseconds.  Format v2
//! stores column data as the **encoded pages** of
//! [`crate::column::EncodedColumn`] behind a per-column page directory, so a
//! snapshot can be opened *lazily* ([`open_lazy`]): only the metadata section
//! is read up front and each page is faulted in on first touch — load cost is
//! O(touched data), not O(database).
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
//! remaining input, so a truncated or bit-flipped file fails with
//! [`StorageError::SnapshotCorrupt`] (or a checksum mismatch) instead of
//! producing a silently wrong database.
//!
//! A version-1 snapshot (the pre-encoding eager format) is rejected with an
//! actionable [`StorageError::SnapshotVersion`] telling the user to
//! regenerate or re-ingest.
//!
//! # Examples
//!
//! ```no_run
//! use qob_storage::Database;
//!
//! let db = Database::new();
//! db.save_snapshot("db.qob").unwrap();
//! let reloaded = Database::load_snapshot("db.qob").unwrap();
//! assert_eq!(reloaded.table_count(), db.table_count());
//! ```

use std::path::Path;
use std::sync::Arc;

use crate::catalog::{Database, IndexConfig};
use crate::column::{EncodedColumn, PageFetch};
use crate::encoding::{fnv1a64, PageData, PageStore, PAGE_ROWS};
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

// ---------------------------------------------------------------------------
// Metadata parsing (shared by eager decode and lazy open)
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

/// Validates the header and returns `(version-checked metadata section,
/// pages blob)` for eager decoding.
fn split_file(bytes: &[u8]) -> Result<(&[u8], &[u8])> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(StorageError::SnapshotCorrupt(format!(
            "file too short ({} bytes) to hold a snapshot header",
            bytes.len()
        )));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StorageError::SnapshotCorrupt("bad magic (not a qob snapshot)".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(StorageError::SnapshotVersion { found: version, supported: SNAPSHOT_VERSION });
    }
    let meta_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let rest = (bytes.len() - HEADER_LEN - 8) as u64;
    if meta_len > rest {
        return Err(StorageError::SnapshotCorrupt(format!(
            "metadata section claims {meta_len} bytes, {rest} available"
        )));
    }
    let meta_end = HEADER_LEN + meta_len as usize;
    let payload = &bytes[HEADER_LEN..meta_end];
    let stored = u64::from_le_bytes(bytes[meta_end..meta_end + 8].try_into().expect("8 bytes"));
    let actual = fnv1a64(payload);
    if stored != actual {
        return Err(StorageError::SnapshotCorrupt(format!(
            "metadata checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok((payload, &bytes[meta_end + 8..]))
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

fn assemble_database(
    parsed: ParsedSnapshot,
    mut make_column: impl FnMut(
        DataType,
        usize,
        Bitmap,
        Option<StringDict>,
        Vec<DirEntry>,
    ) -> Result<EncodedColumn>,
) -> Result<(Database, SnapshotMeta)> {
    let mut db = Database::new();
    let table_count = parsed.tables.len();
    for t in parsed.tables {
        let mut columns = Vec::with_capacity(t.columns.len());
        for (meta, col) in t.metas.iter().zip(t.columns) {
            columns.push(make_column(
                meta.dtype,
                t.row_count,
                col.validity,
                col.dict,
                col.directory,
            )?);
        }
        db.add_table(Table::from_parts(t.name, t.metas, columns)?)?;
    }
    for (tid, (pk, fks)) in parsed.keys.into_iter().enumerate() {
        let tid = crate::TableId(tid as u32);
        if let Some(pk) = pk {
            db.declare_primary_key(tid, &pk)?;
        }
        for (column, references) in fks {
            if references as usize >= table_count {
                return Err(StorageError::SnapshotCorrupt(format!(
                    "foreign key references table {references} of {table_count}"
                )));
            }
            db.declare_foreign_key(tid, &column, crate::TableId(references))?;
        }
    }
    db.build_indexes(parsed.index_config)?;
    Ok((db, parsed.meta))
}

// ---------------------------------------------------------------------------
// Eager decode
// ---------------------------------------------------------------------------

/// Parses snapshot bytes back into a database (indexes declared) and the
/// caller metadata stored with it.  Every page is decoded and
/// checksum-verified up front — the fully-validated path used by
/// [`Database::load_snapshot`].
pub fn decode(bytes: &[u8]) -> Result<(Database, SnapshotMeta)> {
    let (payload, blob) = split_file(bytes)?;
    let parsed = parse_meta(payload)?;
    if parsed.blob_len != blob.len() as u64 {
        return Err(StorageError::SnapshotCorrupt(format!(
            "pages blob is {} bytes, directory expects {}",
            blob.len(),
            parsed.blob_len
        )));
    }
    assemble_database(parsed, |dtype, row_count, validity, dict, directory| {
        let mut pages = Vec::with_capacity(directory.len());
        let mut encoded_bytes = 0usize;
        let mut rows_seen = 0usize;
        for entry in &directory {
            let start = entry.offset as usize;
            let end = start + entry.len as usize;
            // Contiguity was already validated, so the range is in bounds.
            let page_bytes = &blob[start..end];
            if fnv1a64(page_bytes) != entry.checksum {
                return Err(StorageError::SnapshotCorrupt(format!(
                    "page at blob offset {start} failed its checksum"
                )));
            }
            let page = PageData::from_bytes(page_bytes)?;
            match (&page, dtype) {
                (PageData::Int(_), DataType::Int) | (PageData::Code(_), DataType::Str) => {}
                _ => {
                    return Err(StorageError::SnapshotCorrupt(format!(
                        "page at blob offset {start} has the wrong column type"
                    )))
                }
            }
            rows_seen += page.len();
            encoded_bytes += page.encoded_bytes();
            pages.push(page);
        }
        if rows_seen != row_count {
            return Err(StorageError::SnapshotCorrupt(format!(
                "column pages hold {rows_seen} rows, expected {row_count}"
            )));
        }
        // Non-null rows of a string column must dereference into the dict.
        if let (Some(d), DataType::Str) = (&dict, dtype) {
            let dict_len = d.len() as u32;
            let mut scratch = Vec::new();
            for (p, page) in pages.iter().enumerate() {
                if let PageData::Code(cp) = page {
                    scratch.clear();
                    cp.decode_into(&mut scratch);
                    let base = p * PAGE_ROWS;
                    for (i, &code) in scratch.iter().enumerate() {
                        if validity.get(base + i) && code >= dict_len {
                            return Err(StorageError::SnapshotCorrupt(format!(
                                "dictionary code {code} out of range (dict has {dict_len} strings)"
                            )));
                        }
                    }
                }
            }
        }
        Ok(EncodedColumn::from_encoded_parts(
            dtype,
            row_count,
            validity,
            dict,
            pages,
            encoded_bytes,
        ))
    })
}

// ---------------------------------------------------------------------------
// Lazy open
// ---------------------------------------------------------------------------

/// Opens a snapshot **lazily**: only the metadata section is read up front;
/// each column page faults in through the returned [`PageStore`] on first
/// access (checksum-verified per page).  Index building touches the key
/// columns it scans, nothing else — so opening plus a point query reads
/// O(touched pages), not the whole file.  The store's
/// [`PageStore::bytes_read`] counter exposes exactly how much was touched.
///
/// A page that later fails to read or verify panics (the mmap-SIGBUS
/// analogue); use [`load`] when full up-front validation is wanted.
pub fn open_lazy(path: impl AsRef<Path>) -> Result<(Database, SnapshotMeta, Arc<PageStore>)> {
    use std::os::unix::fs::FileExt;
    let path = path.as_ref();
    let file = std::fs::File::open(path)
        .map_err(|e| StorageError::Io(format!("opening `{}`: {e}", path.display())))?;
    let file_len = file
        .metadata()
        .map_err(|e| StorageError::Io(format!("stat `{}`: {e}", path.display())))?
        .len();
    let mut header = [0u8; HEADER_LEN];
    file.read_exact_at(&mut header, 0)
        .map_err(|e| StorageError::Io(format!("reading `{}`: {e}", path.display())))?;
    if header[..8] != SNAPSHOT_MAGIC {
        return Err(StorageError::SnapshotCorrupt("bad magic (not a qob snapshot)".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(StorageError::SnapshotVersion { found: version, supported: SNAPSHOT_VERSION });
    }
    let meta_len = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if HEADER_LEN as u64 + meta_len + 8 > file_len {
        return Err(StorageError::SnapshotCorrupt(format!(
            "metadata section claims {meta_len} bytes, file is {file_len}"
        )));
    }
    let mut payload = vec![0u8; meta_len as usize + 8];
    file.read_exact_at(&mut payload, HEADER_LEN as u64)
        .map_err(|e| StorageError::Io(format!("reading `{}`: {e}", path.display())))?;
    let stored = u64::from_le_bytes(payload[meta_len as usize..].try_into().expect("8 bytes"));
    let payload = &payload[..meta_len as usize];
    let actual = fnv1a64(payload);
    if stored != actual {
        return Err(StorageError::SnapshotCorrupt(format!(
            "metadata checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    let parsed = parse_meta(payload)?;
    let pages_start = HEADER_LEN as u64 + meta_len + 8;
    if pages_start + parsed.blob_len != file_len {
        return Err(StorageError::SnapshotCorrupt(format!(
            "file is {file_len} bytes, directory expects {}",
            pages_start + parsed.blob_len
        )));
    }
    let store = Arc::new(PageStore::new(file));
    let store_for_cols = Arc::clone(&store);
    let (db, meta) =
        assemble_database(parsed, move |dtype, row_count, validity, dict, directory| {
            let encoded_bytes: usize = directory.iter().map(|e| e.len as usize).sum();
            let fetches = directory
                .into_iter()
                .map(|e| PageFetch {
                    store: Arc::clone(&store_for_cols),
                    offset: pages_start + e.offset,
                    len: e.len,
                    checksum: e.checksum,
                })
                .collect();
            Ok(EncodedColumn::from_lazy_parts(
                dtype,
                row_count,
                validity,
                dict,
                fetches,
                encoded_bytes,
            ))
        })?;
    Ok((db, meta, store))
}

// ---------------------------------------------------------------------------
// File convenience API
// ---------------------------------------------------------------------------

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

/// Loads a database (and its caller metadata) from a snapshot file, decoding
/// and verifying every page eagerly.
pub fn load(path: impl AsRef<Path>) -> Result<(Database, SnapshotMeta)> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| StorageError::Io(format!("reading `{}`: {e}", path.display())))?;
    decode(&bytes)
}

impl Database {
    /// Persists this database to `path` in the snapshot format (no caller
    /// metadata; use [`save`] to attach metadata).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<()> {
        save(self, &[], path)
    }

    /// Loads a database from a snapshot file, rebuilding its indexes.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Database> {
        load(path).map(|(db, _)| db)
    }
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
    use super::*;
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

    #[test]
    fn roundtrip_preserves_tables_keys_indexes_and_meta() {
        for config in IndexConfig::all() {
            let db = sample_db(config);
            let meta = vec![("scale.movies".to_owned(), 200i64), ("scale.seed".to_owned(), 42)];
            let bytes = encode(&db, &meta);
            let (reloaded, meta2) = decode(&bytes).unwrap();
            assert_eq!(meta, meta2);
            assert_databases_identical(&db, &reloaded);
        }
    }

    #[test]
    fn save_and_load_through_a_file() {
        let db = sample_db(IndexConfig::PrimaryAndForeignKey);
        let path =
            std::env::temp_dir().join(format!("qob-snapshot-test-{}.qob", std::process::id()));
        db.save_snapshot(&path).unwrap();
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
        let reloaded = Database::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_databases_identical(&db, &reloaded);
    }

    #[test]
    fn lazy_open_reads_only_touched_pages() {
        let db = sample_db(IndexConfig::NoIndexes);
        let path =
            std::env::temp_dir().join(format!("qob-snapshot-lazy-{}.qob", std::process::id()));
        db.save_snapshot(&path).unwrap();
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

        // Faulting everything converges to the eager load.
        let eager = Database::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_databases_identical(&eager, &lazy);
    }

    #[test]
    fn lazy_open_rebuilds_indexes() {
        let db = sample_db(IndexConfig::PrimaryAndForeignKey);
        let path =
            std::env::temp_dir().join(format!("qob-snapshot-lazyidx-{}.qob", std::process::id()));
        db.save_snapshot(&path).unwrap();
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
        let err = Database::load_snapshot("/nonexistent/dir/db.qob").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        let db = sample_db(IndexConfig::NoIndexes);
        let err = db.save_snapshot("/nonexistent/dir/db.qob").unwrap_err();
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
        assert!(matches!(decode(&wrong_magic), Err(StorageError::SnapshotCorrupt(_))));

        // A future version is rejected with a version error, not a parse error.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(StorageError::SnapshotVersion { found: 99, supported: SNAPSHOT_VERSION })
        ));

        assert!(matches!(decode(b"short"), Err(StorageError::SnapshotCorrupt(_))));
    }

    /// Satellite regression: a stale v1 snapshot must produce the actionable
    /// version error (naming found vs. supported and telling the user to
    /// regenerate/re-ingest), from both the eager and the lazy path.
    #[test]
    fn stale_v1_snapshot_gets_an_actionable_error() {
        let db = sample_db(IndexConfig::PrimaryKeyOnly);
        let mut bytes = encode(&db, &[]);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());

        let err = decode(&bytes).unwrap_err();
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

        let path = std::env::temp_dir().join(format!("qob-snapshot-v1-{}.qob", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let lazy_err = open_lazy(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
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
            assert!(decode(&corrupt).is_err(), "flip at {pos} went undetected");
        }
        // Truncation anywhere is also rejected.
        for cut in [bytes.len() - 1, bytes.len() / 2, 13] {
            assert!(decode(&bytes[..cut]).is_err(), "truncation to {cut} went undetected");
        }
    }
}
