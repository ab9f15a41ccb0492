//! Columnar storage: encoded columns, the column builder, and string
//! dictionaries.
//!
//! A column is a sequence of fixed-capacity encoded pages
//! ([`crate::encoding`]) plus a validity bitmap; string columns add a
//! dictionary mapping `u32` codes to distinct strings.  Columns are built
//! through [`ColumnBuilder`], which buffers at most one page of raw values
//! at a time — ingestion never holds a full-table `Vec<i64>` — and encodes
//! each page as it fills.  Pages opened from a snapshot start **lazy**: the
//! first access faults the page in through a [`PageStore`] and checks it
//! against its column, so open cost is O(touched data).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::bitmap::Bitmap;
use crate::encoding::{fnv1a64, CodePage, EncodingPolicy, IntPage, PageData, PageStore, PAGE_ROWS};
use crate::value::{DataType, Value};
use crate::{Result, StorageError};

/// A per-column string dictionary.
///
/// String columns store a `u32` code per row; the dictionary maps codes to
/// the distinct strings that occur in the column.  Equality, `IN` and `LIKE`
/// predicates are evaluated once against the dictionary and then reduced to
/// integer comparisons on codes, which keeps string-heavy workloads fast.
///
/// Interning is O(1) amortized and stores each distinct string **once**:
/// the reverse lookup is a hash→codes bucket map probed against the forward
/// `strings` vector, not a second `HashMap<String, u32>` copy.  At
/// ingestion scale (millions of rows, hundreds of thousands of distinct
/// strings) this halves dictionary memory and keeps builds linear.
#[derive(Debug, Clone, Default)]
pub struct StringDict {
    strings: Vec<String>,
    /// FNV-1a hash of a string → codes of strings with that hash (almost
    /// always one entry; collisions chain).
    buckets: HashMap<u64, Vec<u32>>,
    /// Total bytes of interned string content, maintained incrementally.
    content_bytes: usize,
}

impl StringDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a dictionary from its strings in code order (string `i` gets
    /// code `i`), the inverse of collecting [`StringDict::iter`].  Codes must
    /// be preserved exactly when a column is deserialised, because row data
    /// stores codes, not strings.  Returns `None` if the strings are not
    /// distinct (duplicate strings cannot round-trip to unique codes).
    pub fn from_strings(strings: Vec<String>) -> Option<Self> {
        let mut dict = StringDict {
            strings: Vec::with_capacity(strings.len()),
            buckets: HashMap::with_capacity(strings.len()),
            content_bytes: 0,
        };
        for s in strings {
            let before = dict.strings.len();
            dict.intern(&s);
            if dict.strings.len() == before {
                return None;
            }
        }
        Some(dict)
    }

    /// Interns `s`, returning its code.  O(1) amortized.
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = fnv1a64(s.as_bytes());
        if let Some(codes) = self.buckets.get(&hash) {
            for &code in codes {
                if self.strings[code as usize] == s {
                    return code;
                }
            }
        }
        let code = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.buckets.entry(hash).or_default().push(code);
        self.content_bytes += s.len();
        code
    }

    /// Returns the code of `s` if it is present, without interning.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        let hash = fnv1a64(s.as_bytes());
        let codes = self.buckets.get(&hash)?;
        codes.iter().copied().find(|&code| self.strings[code as usize] == s)
    }

    /// The string for `code`.
    ///
    /// # Panics
    /// Panics if `code` is not a valid dictionary code.
    pub fn string(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(code, string)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (i as u32, s.as_str()))
    }

    /// Approximate heap bytes held by the dictionary (string content plus
    /// per-entry bookkeeping).
    pub fn heap_bytes(&self) -> usize {
        // 24 bytes String header + ~16 bytes bucket entry per string.
        self.content_bytes + self.strings.len() * 40
    }
}

// ---------------------------------------------------------------------------
// Page slots (ready or lazily faulted)
// ---------------------------------------------------------------------------

/// Where a lazy page's bytes live in the snapshot file.
#[derive(Debug, Clone)]
pub(crate) struct PageFetch {
    pub(crate) store: Arc<PageStore>,
    pub(crate) offset: u64,
    pub(crate) len: u32,
    pub(crate) checksum: u64,
}

/// One page of a column: either decoded in memory or a fetch recipe plus a
/// once-cell the first reader fills.
#[derive(Debug, Clone, Default)]
struct PageSlot {
    cell: OnceLock<PageData>,
    fetch: Option<PageFetch>,
}

impl PageSlot {
    fn ready(page: PageData) -> Self {
        let cell = OnceLock::new();
        cell.set(page).expect("fresh cell");
        PageSlot { cell, fetch: None }
    }

    fn lazy(fetch: PageFetch) -> Self {
        PageSlot { cell: OnceLock::new(), fetch: Some(fetch) }
    }

    fn fetch(&self) -> &PageFetch {
        self.fetch.as_ref().expect("a page that is not resident has a fetch")
    }

    /// The page if it is already resident (never faults).
    #[inline]
    fn resident(&self) -> Option<&PageData> {
        self.cell.get()
    }
}

// ---------------------------------------------------------------------------
// EncodedColumn
// ---------------------------------------------------------------------------

/// The physical representation of one column: a validity bitmap, an
/// optional string dictionary, and a sequence of encoded pages of
/// [`PAGE_ROWS`] rows each.
///
/// Null rows occupy a slot in the page (holding a copy of the last non-null
/// value, so they never widen a frame or break a run) and are masked by the
/// validity bitmap; the slot value must never be read directly.
#[derive(Debug, Clone)]
pub struct EncodedColumn {
    dtype: DataType,
    len: usize,
    validity: Bitmap,
    dict: Option<StringDict>,
    pages: Vec<PageSlot>,
    /// Sum of encoded page byte sizes, tracked so metrics never fault lazy
    /// pages in.
    encoded_data_bytes: usize,
}

impl EncodedColumn {
    /// Creates an empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        ColumnBuilder::new(dtype).finish()
    }

    /// Assembles a column whose pages fault in lazily from a snapshot file.
    pub(crate) fn from_lazy_parts(
        dtype: DataType,
        len: usize,
        validity: Bitmap,
        dict: Option<StringDict>,
        fetches: Vec<PageFetch>,
        encoded_data_bytes: usize,
    ) -> Self {
        EncodedColumn {
            dtype,
            len,
            validity,
            dict,
            pages: fetches.into_iter().map(PageSlot::lazy).collect(),
            encoded_data_bytes,
        }
    }

    /// The data type of this column.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The row range covered by page `p`.
    pub fn page_rows(&self, p: usize) -> std::ops::Range<usize> {
        let start = p * PAGE_ROWS;
        start..(start + PAGE_ROWS).min(self.len)
    }

    /// The decoded page `p` (faulting it in if lazy).
    #[inline]
    pub fn page(&self, p: usize) -> &PageData {
        match self.pages[p].resident() {
            Some(page) => page,
            None => self.fault_in(p),
        }
    }

    /// Faults lazy page `p` in; concurrent first readers wait for one fault.
    ///
    /// # Panics
    /// A page that fails [`EncodedColumn::fault`] panics with its error:
    /// once a snapshot is opened lazily, a vanishing or corrupted backing
    /// file mid-query is unrecoverable, exactly like a SIGBUS on an mmap'ed
    /// region.  [`crate::snapshot::load`] checks every page up front,
    /// returns the same error instead, and never takes this path.
    #[cold]
    #[inline(never)]
    fn fault_in(&self, p: usize) -> &PageData {
        self.pages[p].cell.get_or_init(|| {
            self.fault(p).unwrap_or_else(|e| panic!("lazy snapshot page fault failed: {e}"))
        })
    }

    /// Reads lazy page `p` from the snapshot file and passes it through
    /// [`EncodedColumn::check_page`]: the fallible fault behind
    /// [`EncodedColumn::page`].
    pub(crate) fn fault(&self, p: usize) -> Result<PageData> {
        let fetch = self.pages[p].fetch();
        let bytes = fetch.store.read_at(fetch.offset, fetch.len as usize).map_err(|e| {
            StorageError::Io(format!(
                "reading the {}-byte page at offset {}: {e}",
                fetch.len, fetch.offset
            ))
        })?;
        self.check_page(p, &bytes)
    }

    /// Makes every lazy page resident from `blob`, the snapshot file's bytes
    /// from offset `blob_start` on, each passing
    /// [`EncodedColumn::check_page`].  The column then no longer refers to
    /// its file, and its encoded bytes count decoded pages, as a built
    /// column's do.
    pub(crate) fn make_resident(&mut self, blob: &[u8], blob_start: u64) -> Result<()> {
        let mut encoded_data_bytes = 0;
        for p in 0..self.pages.len() {
            let fetch = self.pages[p].fetch();
            let start = (fetch.offset - blob_start) as usize;
            let page = self.check_page(p, &blob[start..][..fetch.len as usize])?;
            encoded_data_bytes += page.encoded_bytes();
            self.pages[p] = PageSlot::ready(page);
        }
        self.encoded_data_bytes = encoded_data_bytes;
        Ok(())
    }

    /// Decodes `bytes` as lazy page `p` — the one check every page read from
    /// a snapshot passes: its checksum, its decode, a page type that matches
    /// the column, the row count of [`EncodedColumn::page_rows`], and every
    /// non-NULL dictionary code inside the dictionary.
    fn check_page(&self, p: usize, bytes: &[u8]) -> Result<PageData> {
        let fetch = self.pages[p].fetch();
        let corrupt = |what: String| {
            StorageError::SnapshotCorrupt(format!("page at offset {} {what}", fetch.offset))
        };
        if fnv1a64(bytes) != fetch.checksum {
            return Err(corrupt("failed its checksum".into()));
        }
        let page = PageData::from_bytes(bytes)?;
        match (&page, self.dtype) {
            (PageData::Int(_), DataType::Int) | (PageData::Code(_), DataType::Str) => {}
            _ => return Err(corrupt("has the wrong column type".into())),
        }
        let rows = self.page_rows(p);
        if page.len() != rows.len() {
            return Err(corrupt(format!("holds {} rows, expected {}", page.len(), rows.len())));
        }
        if let (PageData::Code(codes), Some(dict)) = (&page, &self.dict) {
            let mut slots = Vec::with_capacity(rows.len());
            codes.decode_into(&mut slots);
            let beyond = rows
                .zip(slots)
                .find(|&(row, code)| code as usize >= dict.len() && self.validity.get(row));
            if let Some((row, code)) = beyond {
                return Err(corrupt(format!(
                    "holds code {code} at row {row}, beyond the {}-string dictionary",
                    dict.len()
                )));
            }
        }
        Ok(page)
    }

    /// Page `p` as an integer page.
    ///
    /// # Panics
    /// Panics if this is not an integer column.
    #[inline]
    pub fn int_page(&self, p: usize) -> &IntPage {
        match self.page(p) {
            PageData::Int(page) => page,
            PageData::Code(_) => panic!("int_page on a string column"),
        }
    }

    /// Page `p` as a dictionary-code page.
    ///
    /// # Panics
    /// Panics if this is not a string column.
    #[inline]
    pub fn code_page(&self, p: usize) -> &CodePage {
        match self.page(p) {
            PageData::Code(page) => page,
            PageData::Int(_) => panic!("code_page on an int column"),
        }
    }

    /// True if the row at `row` is NULL.
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        !self.validity.get(row)
    }

    /// The integer value at `row`, or `None` if the row is NULL or the column
    /// is not an integer column.
    #[inline]
    pub fn int_at(&self, row: usize) -> Option<i64> {
        if self.dtype != DataType::Int {
            return None;
        }
        assert!(row < self.len, "row {row} out of bounds ({} rows)", self.len);
        if !self.validity.get(row) {
            return None;
        }
        Some(self.int_page(row / PAGE_ROWS).get(row % PAGE_ROWS))
    }

    /// Appends [`EncodedColumn::int_at`] of every `stride`-th row id of
    /// `rows` (starting with the first) to `out` — the batched key fetch of
    /// the join operators.  The type check runs once per call, the page
    /// lookup once per page change, and RLE runs are walked forward; a dense
    /// ascending run of rows (a scan morsel) is decoded a page at a time.
    ///
    /// # Panics
    /// Panics if a row id is out of bounds, like `int_at`.
    pub fn gather_ints(&self, rows: &[u32], stride: usize, out: &mut Vec<Option<i64>>) {
        if self.dtype != DataType::Int {
            out.extend(std::iter::repeat_n(None, rows.len().div_ceil(stride)));
            return;
        }
        let dense = stride == 1 && rows.windows(2).all(|w| w[0].wrapping_add(1) == w[1]);
        if let (true, Some(&first), Some(&last)) = (dense, rows.first(), rows.last()) {
            let (mut row, end) = (first as usize, last as usize + 1);
            assert!(end <= self.len, "row {} out of bounds ({} rows)", end - 1, self.len);
            while row < end {
                let p = row / PAGE_ROWS;
                let in_page = row - p * PAGE_ROWS..end.min((p + 1) * PAGE_ROWS) - p * PAGE_ROWS;
                self.int_page(p).for_each_in(in_page, |v| {
                    out.push(self.validity.get(row).then_some(v));
                    row += 1;
                });
            }
            return;
        }
        let mut current: Option<(usize, &IntPage)> = None;
        let mut run = 0;
        for &row in rows.iter().step_by(stride) {
            let row = row as usize;
            if !self.validity.get(row) {
                out.push(None);
                continue;
            }
            let p = row / PAGE_ROWS;
            let page = match current {
                Some((q, page)) if q == p => page,
                _ => {
                    run = 0;
                    let page = self.int_page(p);
                    current = Some((p, page));
                    page
                }
            };
            out.push(Some(page.get_near(row % PAGE_ROWS, &mut run)));
        }
    }

    /// The string value at `row`, or `None` if the row is NULL or the column
    /// is not a string column.
    #[inline]
    pub fn str_at(&self, row: usize) -> Option<&str> {
        let code = self.code_at(row)?;
        Some(self.dict.as_ref().expect("str column has dict").string(code))
    }

    /// The dictionary code at `row` for string columns (`None` if null or not
    /// a string column).
    #[inline]
    pub fn code_at(&self, row: usize) -> Option<u32> {
        if self.dtype != DataType::Str {
            return None;
        }
        assert!(row < self.len, "row {row} out of bounds ({} rows)", self.len);
        if !self.validity.get(row) {
            return None;
        }
        Some(self.code_page(row / PAGE_ROWS).get(row % PAGE_ROWS))
    }

    /// The value at `row` as an owned [`Value`].
    pub fn value_at(&self, row: usize) -> Value {
        match self.dtype {
            DataType::Int => self.int_at(row).map(Value::Int).unwrap_or(Value::Null),
            DataType::Str => {
                self.str_at(row).map(|s| Value::Str(s.to_owned())).unwrap_or(Value::Null)
            }
        }
    }

    /// Number of non-null rows.
    pub fn non_null_count(&self) -> usize {
        self.validity.count_ones()
    }

    /// Exact number of distinct non-null values, computed in one decode pass
    /// over the pages without hashing: integers are sorted and deduplicated,
    /// dictionary codes are marked in a bitmap over the dense code space.
    pub fn distinct_count_exact(&self) -> usize {
        match self.dtype {
            DataType::Int => {
                let mut values = Vec::with_capacity(self.non_null_count());
                let mut scratch = Vec::with_capacity(PAGE_ROWS.min(self.len));
                for p in 0..self.page_count() {
                    scratch.clear();
                    self.int_page(p).decode_into(&mut scratch);
                    let base = p * PAGE_ROWS;
                    for (i, &v) in scratch.iter().enumerate() {
                        if self.validity.get(base + i) {
                            values.push(v);
                        }
                    }
                }
                values.sort_unstable();
                values.dedup();
                values.len()
            }
            DataType::Str => {
                let mut seen =
                    Bitmap::with_value(self.dict.as_ref().map_or(0, StringDict::len), false);
                let mut scratch = Vec::with_capacity(PAGE_ROWS.min(self.len));
                for p in 0..self.page_count() {
                    scratch.clear();
                    self.code_page(p).decode_into(&mut scratch);
                    let base = p * PAGE_ROWS;
                    for (i, &c) in scratch.iter().enumerate() {
                        if self.validity.get(base + i) {
                            seen.set(c as usize, true);
                        }
                    }
                }
                seen.count_ones()
            }
        }
    }

    /// Column-wide min/max over non-null rows for integer columns, folded
    /// from per-page metadata without decoding (`None` for string columns,
    /// all-null or unresolved-lazy columns).
    pub fn int_min_max(&self) -> Option<(i64, i64)> {
        if self.dtype != DataType::Int {
            return None;
        }
        let mut acc: Option<(i64, i64)> = None;
        for slot in &self.pages {
            let page = slot.resident()?;
            if let PageData::Int(p) = page {
                if let Some((lo, hi)) = p.min_max() {
                    acc = Some(match acc {
                        Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                        None => (lo, hi),
                    });
                }
            }
        }
        acc
    }

    /// The string dictionary for string columns.
    pub fn dict(&self) -> Option<&StringDict> {
        self.dict.as_ref()
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Encoded bytes of the page data (excluding dictionary and validity).
    /// Never faults lazy pages.
    pub fn encoded_data_bytes(&self) -> usize {
        self.encoded_data_bytes
    }

    /// Bytes the same rows would occupy un-encoded (8 per int row, 4 per
    /// dictionary-code row) — the denominator of the compression ratio.
    pub fn plain_data_bytes(&self) -> usize {
        match self.dtype {
            DataType::Int => self.len * 8,
            DataType::Str => self.len * 4,
        }
    }

    /// Approximate heap bytes of the dictionary (0 for int columns).
    pub fn dict_bytes(&self) -> usize {
        self.dict.as_ref().map(StringDict::heap_bytes).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// ColumnBuilder
// ---------------------------------------------------------------------------

/// Builds an [`EncodedColumn`] value by value with bounded memory: at most
/// one page of raw values is buffered; full pages are encoded and the raw
/// buffer recycled.  This is the single write path shared by datagen, CSV
/// ingestion, and tests.
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DataType,
    policy: EncodingPolicy,
    validity: Bitmap,
    dict: Option<StringDict>,
    pending_ints: Vec<i64>,
    pending_codes: Vec<u32>,
    pending_valid: Vec<bool>,
    /// Last non-null value, copied into null slots so they never widen a
    /// frame or break a run.
    last_int: i64,
    last_code: u32,
    pages: Vec<PageSlot>,
    len: usize,
    encoded_data_bytes: usize,
}

impl ColumnBuilder {
    /// Creates a builder with the default (auto) encoding policy.
    pub fn new(dtype: DataType) -> Self {
        Self::with_policy(dtype, EncodingPolicy::Auto)
    }

    /// Creates a builder with an explicit encoding policy.
    pub fn with_policy(dtype: DataType, policy: EncodingPolicy) -> Self {
        ColumnBuilder {
            dtype,
            policy,
            validity: Bitmap::new(),
            dict: (dtype == DataType::Str).then(StringDict::new),
            pending_ints: Vec::new(),
            pending_codes: Vec::new(),
            pending_valid: Vec::new(),
            last_int: 0,
            last_code: 0,
            pages: Vec::new(),
            len: 0,
            encoded_data_bytes: 0,
        }
    }

    /// The column type being built.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one value.  Returns `false` on a type mismatch.
    pub fn push(&mut self, value: &Value) -> bool {
        match (self.dtype, value) {
            (DataType::Int, Value::Int(v)) => {
                self.last_int = *v;
                self.pending_ints.push(*v);
                self.pending_valid.push(true);
                self.validity.push(true);
            }
            (DataType::Int, Value::Null) => {
                self.pending_ints.push(self.last_int);
                self.pending_valid.push(false);
                self.validity.push(false);
            }
            (DataType::Str, Value::Str(s)) => {
                let code = self.dict.as_mut().expect("str builder has dict").intern(s);
                self.last_code = code;
                self.pending_codes.push(code);
                self.pending_valid.push(true);
                self.validity.push(true);
            }
            (DataType::Str, Value::Null) => {
                self.pending_codes.push(self.last_code);
                self.pending_valid.push(false);
                self.validity.push(false);
            }
            _ => return false,
        }
        self.len += 1;
        if self.pending_valid.len() == PAGE_ROWS {
            self.flush_page();
        }
        true
    }

    fn flush_page(&mut self) {
        // Null slots copy the *last* non-null value so they never widen the
        // page's frame — but nulls at the start of a page carry a value from
        // the previous page (or the initial 0), which can lie far outside
        // this page's range.  Backfill them from the first non-null value of
        // the page instead; all-null pages keep their placeholder runs,
        // which encode compactly regardless.
        if let Some(first) = self.pending_valid.iter().position(|&v| v) {
            if first > 0 {
                match self.dtype {
                    DataType::Int => {
                        let fill = self.pending_ints[first];
                        self.pending_ints[..first].fill(fill);
                    }
                    DataType::Str => {
                        let fill = self.pending_codes[first];
                        self.pending_codes[..first].fill(fill);
                    }
                }
            }
        }
        let page = match self.dtype {
            DataType::Int => {
                PageData::Int(IntPage::encode(&self.pending_ints, &self.pending_valid, self.policy))
            }
            DataType::Str => PageData::Code(CodePage::encode(
                &self.pending_codes,
                &self.pending_valid,
                self.policy,
            )),
        };
        self.encoded_data_bytes += page.encoded_bytes();
        self.pages.push(PageSlot::ready(page));
        self.pending_ints.clear();
        self.pending_codes.clear();
        self.pending_valid.clear();
    }

    /// Finalises the column, encoding any partial trailing page.
    pub fn finish(mut self) -> EncodedColumn {
        if !self.pending_valid.is_empty() {
            self.flush_page();
        }
        EncodedColumn {
            dtype: self.dtype,
            len: self.len,
            validity: self.validity,
            dict: self.dict,
            pages: self.pages,
            encoded_data_bytes: self.encoded_data_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::IntEncoding;

    #[test]
    fn string_dict_rebuilds_from_code_ordered_strings() {
        let mut original = StringDict::new();
        original.intern("us");
        original.intern("de");
        original.intern("fr");
        let strings: Vec<String> = original.iter().map(|(_, s)| s.to_owned()).collect();
        let rebuilt = StringDict::from_strings(strings).unwrap();
        assert_eq!(rebuilt.len(), 3);
        for (code, s) in original.iter() {
            assert_eq!(rebuilt.code_of(s), Some(code));
            assert_eq!(rebuilt.string(code), s);
        }
        assert!(StringDict::from_strings(vec!["a".into(), "a".into()]).is_none());
    }

    #[test]
    fn string_dict_interning_is_idempotent() {
        let mut d = StringDict::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        let a2 = d.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.string(a), "alpha");
        assert_eq!(d.code_of("beta"), Some(b));
        assert_eq!(d.code_of("missing"), None);
        let all: Vec<_> = d.iter().map(|(_, s)| s.to_owned()).collect();
        assert_eq!(all, vec!["alpha", "beta"]);
        assert!(d.heap_bytes() > 0);
    }

    /// The satellite bench guard: interning must stay O(1) amortized at
    /// ingestion scale.  200k distinct strings take well under a second
    /// with hash lookups; an accidental O(n) probe per intern would be
    /// ~2·10^10 comparisons and blow far past the generous bound.
    #[test]
    fn string_dict_interning_scales_linearly() {
        let n = 200_000u32;
        let started = std::time::Instant::now();
        let mut d = StringDict::new();
        for i in 0..n {
            d.intern(&format!("distinct-string-{i}"));
        }
        // Re-intern everything: the hot (hit) path must be O(1) too.
        for i in 0..n {
            assert_eq!(d.intern(&format!("distinct-string-{i}")), i);
        }
        assert_eq!(d.len(), n as usize);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(20),
            "interning 200k strings took {elapsed:?} — lookup has regressed from O(1)"
        );
    }

    fn int_col(values: &[Option<i64>]) -> EncodedColumn {
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in values {
            assert!(b.push(&v.map(Value::Int).unwrap_or(Value::Null)));
        }
        b.finish()
    }

    #[test]
    fn int_column_roundtrip_with_nulls() {
        let col = int_col(&[Some(10), None, Some(-5)]);
        assert_eq!(col.len(), 3);
        assert_eq!(col.int_at(0), Some(10));
        assert_eq!(col.int_at(1), None);
        assert_eq!(col.int_at(2), Some(-5));
        assert!(col.is_null(1));
        assert!(!col.is_null(0));
        assert_eq!(col.non_null_count(), 2);
        assert_eq!(col.value_at(1), Value::Null);
        assert_eq!(col.value_at(2), Value::Int(-5));
        assert_eq!(col.data_type(), DataType::Int);
        assert_eq!(col.int_min_max(), Some((-5, 10)));
    }

    #[test]
    fn str_column_roundtrip_with_nulls() {
        let mut b = ColumnBuilder::new(DataType::Str);
        assert!(b.push(&Value::Str("us".into())));
        assert!(b.push(&Value::Str("de".into())));
        assert!(b.push(&Value::Null));
        assert!(b.push(&Value::Str("us".into())));
        let col = b.finish();
        assert_eq!(col.len(), 4);
        assert_eq!(col.str_at(0), Some("us"));
        assert_eq!(col.str_at(2), None);
        assert_eq!(col.str_at(3), Some("us"));
        assert_eq!(col.code_at(0), col.code_at(3));
        assert_ne!(col.code_at(0), col.code_at(1));
        assert_eq!(col.distinct_count_exact(), 2);
        assert_eq!(col.dict().unwrap().len(), 2);
        assert_eq!(col.value_at(0), Value::Str("us".into()));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut b = ColumnBuilder::new(DataType::Int);
        assert!(!b.push(&Value::Str("oops".into())));
        let mut b = ColumnBuilder::new(DataType::Str);
        assert!(!b.push(&Value::Int(1)));
    }

    #[test]
    fn distinct_count_ignores_nulls() {
        let col = int_col(&[Some(1), Some(2), Some(2), Some(3), Some(3), Some(3), None, None]);
        assert_eq!(col.distinct_count_exact(), 3);
        assert_eq!(col.non_null_count(), 6);
    }

    #[test]
    fn cross_type_accessors_return_none() {
        let int_col = int_col(&[Some(1)]);
        assert_eq!(int_col.str_at(0), None);
        assert_eq!(int_col.code_at(0), None);
        assert!(int_col.dict().is_none());

        let mut b = ColumnBuilder::new(DataType::Str);
        b.push(&Value::Str("x".into()));
        let str_col = b.finish();
        assert_eq!(str_col.int_at(0), None);
    }

    #[test]
    fn columns_span_multiple_pages() {
        let n = PAGE_ROWS + PAGE_ROWS / 2;
        let mut b = ColumnBuilder::new(DataType::Int);
        for i in 0..n {
            let v = if i % 97 == 0 { Value::Null } else { Value::Int(i as i64) };
            assert!(b.push(&v));
        }
        let col = b.finish();
        assert_eq!(col.len(), n);
        assert_eq!(col.page_count(), 2);
        assert_eq!(col.page_rows(0), 0..PAGE_ROWS);
        assert_eq!(col.page_rows(1), PAGE_ROWS..n);
        for i in 0..n {
            let expected = if i % 97 == 0 { None } else { Some(i as i64) };
            assert_eq!(col.int_at(i), expected, "row {i}");
        }
        assert!(col.encoded_data_bytes() < col.plain_data_bytes());
    }

    #[test]
    fn gather_matches_int_at_on_every_encoding() {
        // Page 0 bit-packed, page 1 RLE (long runs), page 2 plain (full
        // 64-bit range); every 7th row NULL.
        let n = 2 * PAGE_ROWS + 5_000;
        let value = |i: usize| match i / PAGE_ROWS {
            0 => (i % 1000) as i64,
            1 => (i / 300) as i64,
            _ => (i as i64).wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64),
        };
        let col = int_col(&(0..n).map(|i| (i % 7 != 0).then(|| value(i))).collect::<Vec<_>>());
        let kinds: Vec<_> =
            (0..3).map(|p| std::mem::discriminant(col.int_page(p).encoding())).collect();
        assert!(kinds[0] != kinds[1] && kinds[1] != kinds[2] && kinds[0] != kinds[2]);

        let dense: Vec<u32> = (PAGE_ROWS as u32 - 100..2 * PAGE_ROWS as u32 + 100).collect();
        let sparse: Vec<u32> = (0..n as u32).step_by(13).collect();
        let scrambled: Vec<u32> = (0..5_000u64).map(|i| (i * 48_271 % n as u64) as u32).collect();
        for rows in [&dense, &sparse, &scrambled, &vec![], &vec![3]] {
            for stride in [1, 2, 3] {
                let mut got = Vec::new();
                col.gather_ints(rows, stride, &mut got);
                let want: Vec<Option<i64>> =
                    rows.iter().step_by(stride).map(|&r| col.int_at(r as usize)).collect();
                assert_eq!(got, want, "{} rows, stride {stride}", rows.len());
            }
        }
        let mut strs = Vec::new();
        let mut b = ColumnBuilder::new(DataType::Str);
        b.push(&Value::Str("x".into()));
        b.finish().gather_ints(&[0, 0, 0], 2, &mut strs);
        assert_eq!(strs, vec![None, None], "string columns gather as NULL, like int_at");
    }

    #[test]
    fn null_slots_do_not_widen_the_frame() {
        // Nulls between large values copy the last value: the page stays a
        // narrow FOR frame instead of spanning down to zero.
        let mut b = ColumnBuilder::new(DataType::Int);
        for i in 0..1000 {
            if i % 3 == 0 {
                b.push(&Value::Null);
            } else {
                b.push(&Value::Int(1_000_000 + (i % 50) as i64));
            }
        }
        let col = b.finish();
        match col.int_page(0).encoding() {
            IntEncoding::For { width, .. } => {
                assert!(*width <= 6, "nulls widened the frame to {width} bits")
            }
            other => panic!("expected FOR encoding, got {other:?}"),
        }
        // i = 50 is non-null (50 % 3 != 0) and contributes 1_000_000.
        assert_eq!(col.int_min_max(), Some((1_000_000, 1_000_049)));
    }

    #[test]
    fn empty_column_works() {
        let col = EncodedColumn::empty(DataType::Int);
        assert!(col.is_empty());
        assert_eq!(col.page_count(), 0);
        assert_eq!(col.distinct_count_exact(), 0);
        assert_eq!(col.int_min_max(), None);
        let col = EncodedColumn::empty(DataType::Str);
        assert!(col.dict().unwrap().is_empty());
    }
}
