//! Compressed page encodings for column data.
//!
//! Columns are stored as a sequence of fixed-capacity **pages** of
//! [`PAGE_ROWS`] rows.  Each page is encoded independently with the cheapest
//! encoding its values admit:
//!
//! * **RLE** — run-length encoding, chosen when the average run length is at
//!   least [`RLE_MIN_AVG_RUN`] (sorted keys, low-cardinality attributes,
//!   long NULL stretches);
//! * **FOR + bit-packing** — frame-of-reference: values are stored as
//!   `value - min` in the smallest bit width that holds `max - min`
//!   (surrogate keys, years, dictionary codes);
//! * **Plain** — verbatim values, the fallback when the value range spans
//!   (nearly) the full 64-bit domain, or when [`EncodingPolicy::Plain`]
//!   forces it (the differential-testing baseline).
//!
//! Every page carries its min/max over **non-null** rows, so range and
//! equality predicates can skip whole pages without decoding
//! (`min > max` is the sentinel for an all-null page, which no predicate
//! matches).  Pages serialise to a self-describing checksummed byte format
//! ([`PageData::to_bytes`] / [`PageData::from_bytes`]) so the snapshot layer
//! can store them with per-page offsets and fault them in lazily through a
//! [`PageStore`].

use std::fs::File;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::StorageError;
use crate::Result;

/// Rows per column page.  A power of two so `row / PAGE_ROWS` and
/// `row % PAGE_ROWS` compile to shift/mask on the scan hot path.
pub const PAGE_ROWS: usize = 1 << 16;

/// Minimum average run length before RLE is preferred over bit-packing.
pub const RLE_MIN_AVG_RUN: usize = 8;

/// How encodings are selected when a column is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingPolicy {
    /// Pick the cheapest encoding per page (the production default).
    #[default]
    Auto,
    /// Force plain (uncompressed) pages everywhere.  Exists so differential
    /// tests can pin encoded execution tuple-identical to an uncompressed
    /// baseline.
    Plain,
}

/// The FNV-1a 64-bit offset basis — the workspace's one definition.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime — the workspace's one definition.
pub const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash: the checksum of snapshot pages and metadata, and the
/// name-to-seed mix of `qob-datagen` streams and `qob-plangrid` cells.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV1A64_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV1A64_PRIME);
    }
    hash
}

// ---------------------------------------------------------------------------
// Bit-packing primitives
// ---------------------------------------------------------------------------

/// Packs `values` (each `< 2^width`) into little-endian bit order.
fn pack_bits(values: impl ExactSizeIterator<Item = u64>, width: u8) -> Vec<u64> {
    debug_assert!(width <= 64);
    if width == 0 {
        return Vec::new();
    }
    let total_bits = values.len() * width as usize;
    let mut packed = vec![0u64; total_bits.div_ceil(64)];
    let mut bit = 0usize;
    for v in values {
        let word = bit / 64;
        let off = (bit % 64) as u32;
        packed[word] |= v << off;
        if off as usize + width as usize > 64 {
            packed[word + 1] |= v >> (64 - off);
        }
        bit += width as usize;
    }
    packed
}

/// Extracts the `i`-th `width`-bit value from `packed`.
#[inline]
fn unpack_bit(packed: &[u64], width: u8, i: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit = i * width as usize;
    let word = bit / 64;
    let off = (bit % 64) as u32;
    let mut v = packed[word] >> off;
    if off as usize + width as usize > 64 {
        v |= packed[word + 1] << (64 - off);
    }
    if width == 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// Calls `f(rows, run)` for each RLE run overlapping `rows`, clipped to it.
fn rle_runs(run_ends: &[u32], rows: Range<usize>, mut f: impl FnMut(Range<usize>, usize)) {
    let mut r = run_ends.partition_point(|&end| end as usize <= rows.start);
    let mut i = rows.start;
    while i < rows.end {
        let end = (run_ends[r] as usize).min(rows.end);
        f(i..end, r);
        i = end;
        r += 1;
    }
}

/// True if `v` lies in one of the sorted, disjoint, inclusive `intervals`.
#[inline]
pub(crate) fn in_intervals<T: Ord + Copy>(intervals: &[(T, T)], v: T) -> bool {
    match intervals {
        [(low, high)] => (*low <= v) & (v <= *high),
        _ => {
            let i = intervals.partition_point(|&(low, _)| low <= v);
            i > 0 && v <= intervals[i - 1].1
        }
    }
}

/// Bit `i` of a bitset (false past its end).
#[inline]
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

#[inline]
fn set_bit(words: &mut [u64], i: usize, value: bool) {
    words[i / 64] |= (value as u64) << (i % 64);
}

/// The bits of 64-bit word `w` of a bitset that fall in `rows`.
#[inline]
pub(crate) fn word_mask(rows: &Range<usize>, w: usize) -> u64 {
    let low = rows.start.max(w * 64) - w * 64;
    let high = rows.end.min(w * 64 + 64) - w * 64;
    (u64::MAX << low) & (u64::MAX >> (64 - high))
}

/// Sets bits `rows` of a bitset.
fn set_bits(words: &mut [u64], rows: Range<usize>) {
    let first = rows.start / 64;
    for (w, word) in words[first..rows.end.div_ceil(64)].iter_mut().enumerate() {
        *word |= word_mask(&rows, first + w);
    }
}

/// Smallest bit width that can hold `delta`.
fn width_for(delta: u64) -> u8 {
    (64 - delta.leading_zeros()) as u8
}

// ---------------------------------------------------------------------------
// Integer pages
// ---------------------------------------------------------------------------

/// The physical encoding of one integer page.
#[derive(Debug, Clone, PartialEq)]
pub enum IntEncoding {
    /// Verbatim values.
    Plain(Vec<i64>),
    /// Frame-of-reference: `value = base + unpack(packed, width, i)`.
    For {
        /// The reference frame (page minimum over stored slots).
        base: i64,
        /// Bit width of each packed delta.
        width: u8,
        /// Bit-packed deltas, little-endian bit order.
        packed: Vec<u64>,
    },
    /// Run-length encoding: run `r` holds `values[r]` for rows
    /// `run_ends[r-1]..run_ends[r]`.
    Rle {
        /// One value per run.
        values: Vec<i64>,
        /// Exclusive end row of each run (strictly increasing, last = len).
        run_ends: Vec<u32>,
    },
}

/// One encoded page of up to [`PAGE_ROWS`] integer rows.
#[derive(Debug, Clone, PartialEq)]
pub struct IntPage {
    len: u32,
    /// Min/max over non-null rows; `min > max` means the page is all-null.
    min: i64,
    max: i64,
    encoding: IntEncoding,
}

impl IntPage {
    /// Encodes `values` under `policy`.  `valid[i]` marks non-null rows;
    /// null slots participate in the encoding (their stored value is
    /// whatever the builder wrote there) but not in min/max.
    pub fn encode(values: &[i64], valid: &[bool], policy: EncodingPolicy) -> Self {
        debug_assert_eq!(values.len(), valid.len());
        debug_assert!(values.len() <= PAGE_ROWS);
        let len = values.len() as u32;
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        let mut runs = 0usize;
        for (i, &v) in values.iter().enumerate() {
            if valid[i] {
                min = min.min(v);
                max = max.max(v);
            }
            if i == 0 || values[i - 1] != v {
                runs += 1;
            }
        }
        let encoding = match policy {
            EncodingPolicy::Plain => IntEncoding::Plain(values.to_vec()),
            EncodingPolicy::Auto => Self::select_auto(values, runs),
        };
        IntPage { len, min, max, encoding }
    }

    fn select_auto(values: &[i64], runs: usize) -> IntEncoding {
        if values.is_empty() {
            return IntEncoding::Plain(Vec::new());
        }
        if runs * RLE_MIN_AVG_RUN <= values.len() {
            let mut rle_values = Vec::with_capacity(runs);
            let mut run_ends = Vec::with_capacity(runs);
            for (i, &v) in values.iter().enumerate() {
                if i == 0 || values[i - 1] != v {
                    rle_values.push(v);
                    run_ends.push(i as u32);
                }
            }
            // Convert run starts to exclusive run ends.
            run_ends.remove(0);
            run_ends.push(values.len() as u32);
            return IntEncoding::Rle { values: rle_values, run_ends };
        }
        // FOR over *stored* slot values (null slots included — the builder
        // stores a copy of the previous value there, so they never widen
        // the frame).
        let lo = *values.iter().min().expect("non-empty");
        let hi = *values.iter().max().expect("non-empty");
        match hi.checked_sub(lo) {
            Some(delta) => {
                let width = width_for(delta as u64);
                if width >= 60 {
                    // Nearly incompressible; plain is simpler and as small.
                    IntEncoding::Plain(values.to_vec())
                } else {
                    let packed =
                        pack_bits(values.iter().map(|&v| (v.wrapping_sub(lo)) as u64), width);
                    IntEncoding::For { base: lo, width, packed }
                }
            }
            // Range spans more than i64::MAX — cannot frame.
            None => IntEncoding::Plain(values.to_vec()),
        }
    }

    /// Rows in this page.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the page holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Min/max over non-null rows, or `None` for an all-null page.
    #[inline]
    pub fn min_max(&self) -> Option<(i64, i64)> {
        (self.min <= self.max).then_some((self.min, self.max))
    }

    /// True if no non-null row in this page can lie in `[low, high]` — the
    /// FOR-range pruning test evaluated on page metadata alone.
    #[inline]
    pub fn disjoint_with(&self, low: i64, high: i64) -> bool {
        match self.min_max() {
            Some((min, max)) => high < min || low > max,
            None => true,
        }
    }

    /// The stored slot value at `i` (callers mask nulls via the column
    /// validity bitmap).
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match &self.encoding {
            IntEncoding::Plain(values) => values[i],
            IntEncoding::For { base, width, packed } => {
                base.wrapping_add(unpack_bit(packed, *width, i) as i64)
            }
            IntEncoding::Rle { values, run_ends } => {
                let run = run_ends.partition_point(|&end| end <= i as u32);
                values[run]
            }
        }
    }

    /// [`IntPage::get`] for callers reading rows in (mostly) ascending order:
    /// `run` carries the RLE run of the previous read, so the next row is
    /// found by stepping forward instead of searching every run.  Start
    /// `run` at 0 for each page; other encodings ignore it.
    #[inline]
    pub(crate) fn get_near(&self, i: usize, run: &mut usize) -> i64 {
        let IntEncoding::Rle { values, run_ends } = &self.encoding else {
            return self.get(i);
        };
        let row = i as u32;
        let mut r = *run;
        if r >= run_ends.len() || (r > 0 && run_ends[r - 1] > row) {
            r = run_ends.partition_point(|&end| end <= row);
        } else if run_ends[r] <= row {
            r += 1 + run_ends[r + 1..].partition_point(|&end| end <= row);
        }
        *run = r;
        values[r]
    }

    /// Calls `f` with the stored slot value of every row in `rows`, in
    /// order, decoding the range in one pass (runs are expanded, not
    /// searched per row).
    #[inline]
    pub(crate) fn for_each_in(&self, rows: Range<usize>, mut f: impl FnMut(i64)) {
        match &self.encoding {
            IntEncoding::Plain(values) => values[rows].iter().for_each(|&v| f(v)),
            IntEncoding::For { base, width, packed } => {
                for i in rows {
                    f(base.wrapping_add(unpack_bit(packed, *width, i) as i64));
                }
            }
            IntEncoding::Rle { values, run_ends } => {
                rle_runs(run_ends, rows, |run, r| run.for_each(|_| f(values[r])))
            }
        }
    }

    /// Appends every stored slot value (one per row) to `out`.
    pub fn decode_into(&self, out: &mut Vec<i64>) {
        match &self.encoding {
            IntEncoding::Plain(values) => out.extend_from_slice(values),
            IntEncoding::For { base, width, packed } => {
                out.extend(
                    (0..self.len())
                        .map(|i| base.wrapping_add(unpack_bit(packed, *width, i) as i64)),
                );
            }
            IntEncoding::Rle { values, run_ends } => {
                let mut start = 0u32;
                for (v, &end) in values.iter().zip(run_ends) {
                    out.extend(std::iter::repeat_n(*v, (end - start) as usize));
                    start = end;
                }
            }
        }
    }

    /// Sets bit `i` of `hits` for each row `i` of `rows` whose stored value
    /// lies in one of the sorted, disjoint, inclusive `intervals`.  An RLE
    /// run is tested once; FOR-packed words are compared against the
    /// intervals translated into the page's frame, never unpacked to `i64`.
    pub(crate) fn test_into(&self, rows: Range<usize>, intervals: &[(i64, i64)], hits: &mut [u64]) {
        match &self.encoding {
            IntEncoding::Plain(values) => {
                rows.for_each(|i| set_bit(hits, i, in_intervals(intervals, values[i])))
            }
            IntEncoding::For { base, width, packed } => {
                // `value - base` is exact in i128; an interval below the frame
                // drops out and the one straddling its start clamps to 0.
                let frame = |v: i64| (v as i128 - *base as i128).max(0) as u64;
                let framed: Vec<(u64, u64)> = intervals
                    .iter()
                    .filter(|&&(_, high)| high >= *base)
                    .map(|&(low, high)| (frame(low), frame(high)))
                    .collect();
                rows.for_each(|i| {
                    set_bit(hits, i, in_intervals(&framed, unpack_bit(packed, *width, i)))
                })
            }
            IntEncoding::Rle { values, run_ends } => rle_runs(run_ends, rows, |run, r| {
                if in_intervals(intervals, values[r]) {
                    set_bits(hits, run)
                }
            }),
        }
    }

    /// The encoding variant, for introspection and tests.
    pub fn encoding(&self) -> &IntEncoding {
        &self.encoding
    }

    /// Heap bytes used by the encoded representation.
    pub fn encoded_bytes(&self) -> usize {
        match &self.encoding {
            IntEncoding::Plain(values) => values.len() * 8,
            IntEncoding::For { packed, .. } => 16 + packed.len() * 8,
            IntEncoding::Rle { values, run_ends } => values.len() * 8 + run_ends.len() * 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Dictionary-code pages
// ---------------------------------------------------------------------------

/// The physical encoding of one dictionary-code page.
#[derive(Debug, Clone, PartialEq)]
pub enum CodeEncoding {
    /// Verbatim codes.
    Plain(Vec<u32>),
    /// Bit-packed codes (frame base 0 — codes are already dense).
    Packed {
        /// Bit width of each packed code.
        width: u8,
        /// Bit-packed codes, little-endian bit order.
        packed: Vec<u64>,
    },
    /// Run-length encoding, as in [`IntEncoding::Rle`].
    Rle {
        /// One code per run.
        values: Vec<u32>,
        /// Exclusive end row of each run.
        run_ends: Vec<u32>,
    },
}

/// One encoded page of up to [`PAGE_ROWS`] dictionary-code rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CodePage {
    len: u32,
    /// Min/max over non-null rows; `min > max` means the page is all-null.
    min: u32,
    max: u32,
    encoding: CodeEncoding,
}

impl CodePage {
    /// Encodes `codes` under `policy`; `valid` as in [`IntPage::encode`].
    pub fn encode(codes: &[u32], valid: &[bool], policy: EncodingPolicy) -> Self {
        debug_assert_eq!(codes.len(), valid.len());
        debug_assert!(codes.len() <= PAGE_ROWS);
        let len = codes.len() as u32;
        let (mut min, mut max) = (u32::MAX, u32::MIN);
        let mut runs = 0usize;
        for (i, &c) in codes.iter().enumerate() {
            if valid[i] {
                min = min.min(c);
                max = max.max(c);
            }
            if i == 0 || codes[i - 1] != c {
                runs += 1;
            }
        }
        let all_null = min > max;
        let encoding = match policy {
            EncodingPolicy::Plain => CodeEncoding::Plain(codes.to_vec()),
            EncodingPolicy::Auto if codes.is_empty() => CodeEncoding::Plain(Vec::new()),
            EncodingPolicy::Auto => {
                if runs * RLE_MIN_AVG_RUN <= codes.len() {
                    let mut rle_values = Vec::with_capacity(runs);
                    let mut run_ends = Vec::with_capacity(runs);
                    for (i, &c) in codes.iter().enumerate() {
                        if i == 0 || codes[i - 1] != c {
                            rle_values.push(c);
                            run_ends.push(i as u32);
                        }
                    }
                    run_ends.remove(0);
                    run_ends.push(codes.len() as u32);
                    CodeEncoding::Rle { values: rle_values, run_ends }
                } else {
                    let top = *codes.iter().max().expect("non-empty");
                    let width = width_for(top as u64);
                    CodeEncoding::Packed {
                        width,
                        packed: pack_bits(codes.iter().map(|&c| c as u64), width),
                    }
                }
            }
        };
        let (min, max) = if all_null { (1, 0) } else { (min, max) };
        CodePage { len, min, max, encoding }
    }

    /// Rows in this page.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the page holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Min/max over non-null rows, or `None` for an all-null page.
    #[inline]
    pub fn min_max(&self) -> Option<(u32, u32)> {
        (self.min <= self.max).then_some((self.min, self.max))
    }

    /// True if no non-null row in this page can hold a code in
    /// `[low, high]`.
    #[inline]
    pub fn disjoint_with(&self, low: u32, high: u32) -> bool {
        match self.min_max() {
            Some((min, max)) => high < min || low > max,
            None => true,
        }
    }

    /// The stored slot code at `i` (callers mask nulls via validity).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match &self.encoding {
            CodeEncoding::Plain(codes) => codes[i],
            CodeEncoding::Packed { width, packed } => unpack_bit(packed, *width, i) as u32,
            CodeEncoding::Rle { values, run_ends } => {
                let run = run_ends.partition_point(|&end| end <= i as u32);
                values[run]
            }
        }
    }

    /// Appends every stored slot code to `out`.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        match &self.encoding {
            CodeEncoding::Plain(codes) => out.extend_from_slice(codes),
            CodeEncoding::Packed { width, packed } => {
                out.extend((0..self.len()).map(|i| unpack_bit(packed, *width, i) as u32));
            }
            CodeEncoding::Rle { values, run_ends } => {
                let mut start = 0u32;
                for (c, &end) in values.iter().zip(run_ends) {
                    out.extend(std::iter::repeat_n(*c, (end - start) as usize));
                    start = end;
                }
            }
        }
    }

    /// Sets bit `i` of `hits` for each row `i` of `rows` whose stored code
    /// is set in the code bitset `codes`; an RLE run is tested once.
    pub(crate) fn test_into(&self, rows: Range<usize>, codes: &[u64], hits: &mut [u64]) {
        match &self.encoding {
            CodeEncoding::Plain(stored) => {
                rows.for_each(|i| set_bit(hits, i, bit(codes, stored[i] as usize)))
            }
            CodeEncoding::Packed { width, packed } => rows
                .for_each(|i| set_bit(hits, i, bit(codes, unpack_bit(packed, *width, i) as usize))),
            CodeEncoding::Rle { values, run_ends } => rle_runs(run_ends, rows, |run, r| {
                if bit(codes, values[r] as usize) {
                    set_bits(hits, run)
                }
            }),
        }
    }

    /// The encoding variant, for introspection and tests.
    pub fn encoding(&self) -> &CodeEncoding {
        &self.encoding
    }

    /// Heap bytes used by the encoded representation.
    pub fn encoded_bytes(&self) -> usize {
        match &self.encoding {
            CodeEncoding::Plain(codes) => codes.len() * 4,
            CodeEncoding::Packed { packed, .. } => 8 + packed.len() * 8,
            CodeEncoding::Rle { values, run_ends } => values.len() * 4 + run_ends.len() * 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Page serialisation
// ---------------------------------------------------------------------------

/// A decoded page of either column type — the unit the snapshot format
/// stores, checksums, and faults in lazily.
#[derive(Debug, Clone, PartialEq)]
pub enum PageData {
    /// An integer page.
    Int(IntPage),
    /// A dictionary-code page.
    Code(CodePage),
}

const TAG_INT_PLAIN: u8 = 0;
const TAG_INT_FOR: u8 = 1;
const TAG_INT_RLE: u8 = 2;
const TAG_CODE_PLAIN: u8 = 3;
const TAG_CODE_PACKED: u8 = 4;
const TAG_CODE_RLE: u8 = 5;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct PageCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PageCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| StorageError::SnapshotCorrupt("truncated page".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>> {
        let bytes = self.take(count.checked_mul(4).ok_or_else(overflow)?)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    fn u64_vec(&mut self, count: usize) -> Result<Vec<u64>> {
        let bytes = self.take(count.checked_mul(8).ok_or_else(overflow)?)?;
        Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8"))).collect())
    }

    fn i64_vec(&mut self, count: usize) -> Result<Vec<i64>> {
        let bytes = self.take(count.checked_mul(8).ok_or_else(overflow)?)?;
        Ok(bytes.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().expect("8"))).collect())
    }
}

fn overflow() -> StorageError {
    StorageError::SnapshotCorrupt("page length overflow".into())
}

impl PageData {
    /// Rows in the page.
    pub fn len(&self) -> usize {
        match self {
            PageData::Int(p) => p.len(),
            PageData::Code(p) => p.len(),
        }
    }

    /// True if the page holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes used by the encoded representation.
    pub fn encoded_bytes(&self) -> usize {
        match self {
            PageData::Int(p) => p.encoded_bytes(),
            PageData::Code(p) => p.encoded_bytes(),
        }
    }

    /// Serialises the page to its snapshot byte format:
    /// `[tag u8][len u32][min][max][encoding payload]` (min/max are i64 for
    /// int pages, u32 for code pages — the tag disambiguates).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_bytes() + 32);
        match self {
            PageData::Int(p) => {
                let tag = match &p.encoding {
                    IntEncoding::Plain(_) => TAG_INT_PLAIN,
                    IntEncoding::For { .. } => TAG_INT_FOR,
                    IntEncoding::Rle { .. } => TAG_INT_RLE,
                };
                out.push(tag);
                put_u32(&mut out, p.len);
                put_i64(&mut out, p.min);
                put_i64(&mut out, p.max);
                match &p.encoding {
                    IntEncoding::Plain(values) => {
                        for v in values {
                            put_i64(&mut out, *v);
                        }
                    }
                    IntEncoding::For { base, width, packed } => {
                        put_i64(&mut out, *base);
                        out.push(*width);
                        for w in packed {
                            put_u64(&mut out, *w);
                        }
                    }
                    IntEncoding::Rle { values, run_ends } => {
                        put_u32(&mut out, values.len() as u32);
                        for v in values {
                            put_i64(&mut out, *v);
                        }
                        for e in run_ends {
                            put_u32(&mut out, *e);
                        }
                    }
                }
            }
            PageData::Code(p) => {
                let tag = match &p.encoding {
                    CodeEncoding::Plain(_) => TAG_CODE_PLAIN,
                    CodeEncoding::Packed { .. } => TAG_CODE_PACKED,
                    CodeEncoding::Rle { .. } => TAG_CODE_RLE,
                };
                out.push(tag);
                put_u32(&mut out, p.len);
                put_u32(&mut out, p.min);
                put_u32(&mut out, p.max);
                match &p.encoding {
                    CodeEncoding::Plain(codes) => {
                        for c in codes {
                            put_u32(&mut out, *c);
                        }
                    }
                    CodeEncoding::Packed { width, packed } => {
                        out.push(*width);
                        for w in packed {
                            put_u64(&mut out, *w);
                        }
                    }
                    CodeEncoding::Rle { values, run_ends } => {
                        put_u32(&mut out, values.len() as u32);
                        for c in values {
                            put_u32(&mut out, *c);
                        }
                        for e in run_ends {
                            put_u32(&mut out, *e);
                        }
                    }
                }
            }
        }
        out
    }

    /// Deserialises a page written by [`PageData::to_bytes`].  Every length
    /// is bounds-checked; a malformed page is a [`StorageError::SnapshotCorrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<PageData> {
        let mut c = PageCursor { bytes, pos: 0 };
        let tag = c.u8()?;
        let len = c.u32()?;
        if len as usize > PAGE_ROWS {
            return Err(StorageError::SnapshotCorrupt(format!(
                "page claims {len} rows (max {PAGE_ROWS})"
            )));
        }
        if tag <= TAG_INT_RLE {
            let min = c.i64()?;
            let max = c.i64()?;
            let encoding = match tag {
                TAG_INT_PLAIN => IntEncoding::Plain(c.i64_vec(len as usize)?),
                TAG_INT_FOR => {
                    let base = c.i64()?;
                    let width = c.u8()?;
                    if width > 64 {
                        return Err(StorageError::SnapshotCorrupt(format!(
                            "int page width {width} exceeds 64"
                        )));
                    }
                    let words = (len as usize * width as usize).div_ceil(64);
                    IntEncoding::For { base, width, packed: c.u64_vec(words)? }
                }
                _ => {
                    let runs = c.u32()? as usize;
                    if runs > len as usize {
                        return Err(StorageError::SnapshotCorrupt(format!(
                            "int page claims {runs} runs over {len} rows"
                        )));
                    }
                    let values = c.i64_vec(runs)?;
                    let run_ends = c.u32_vec(runs)?;
                    validate_run_ends(&run_ends, len)?;
                    IntEncoding::Rle { values, run_ends }
                }
            };
            Ok(PageData::Int(IntPage { len, min, max, encoding }))
        } else if tag <= TAG_CODE_RLE {
            let min = c.u32()?;
            let max = c.u32()?;
            let encoding = match tag {
                TAG_CODE_PLAIN => CodeEncoding::Plain(c.u32_vec(len as usize)?),
                TAG_CODE_PACKED => {
                    let width = c.u8()?;
                    if width > 32 {
                        return Err(StorageError::SnapshotCorrupt(format!(
                            "code page width {width} exceeds 32"
                        )));
                    }
                    let words = (len as usize * width as usize).div_ceil(64);
                    CodeEncoding::Packed { width, packed: c.u64_vec(words)? }
                }
                _ => {
                    let runs = c.u32()? as usize;
                    if runs > len as usize {
                        return Err(StorageError::SnapshotCorrupt(format!(
                            "code page claims {runs} runs over {len} rows"
                        )));
                    }
                    let values = c.u32_vec(runs)?;
                    let run_ends = c.u32_vec(runs)?;
                    validate_run_ends(&run_ends, len)?;
                    CodeEncoding::Rle { values, run_ends }
                }
            };
            Ok(PageData::Code(CodePage { len, min, max, encoding }))
        } else {
            Err(StorageError::SnapshotCorrupt(format!("unknown page tag {tag}")))
        }
    }
}

fn validate_run_ends(run_ends: &[u32], len: u32) -> Result<()> {
    let mut prev = 0u32;
    for &end in run_ends {
        if end <= prev {
            return Err(StorageError::SnapshotCorrupt(
                "page run ends are not strictly increasing".into(),
            ));
        }
        prev = end;
    }
    if prev != len {
        return Err(StorageError::SnapshotCorrupt("page run ends do not cover the page".into()));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lazy page store
// ---------------------------------------------------------------------------

/// A read handle on a snapshot file that serves page byte ranges on demand
/// and counts the bytes it actually reads — the observable that proves lazy
/// loads are O(touched data), not O(database).
#[derive(Debug)]
pub struct PageStore {
    file: File,
    bytes_read: AtomicU64,
}

impl PageStore {
    /// Wraps an open snapshot file.
    pub fn new(file: File) -> Self {
        PageStore { file, bytes_read: AtomicU64::new(0) }
    }

    /// Reads exactly `len` bytes at `offset`, counting them.
    pub fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        use std::os::unix::fs::FileExt;
        let mut buf = vec![0u8; len];
        self.file.read_exact_at(&mut buf, offset)?;
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(buf)
    }

    /// Total bytes read through this store so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_valid(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn bit_packing_roundtrips_edge_widths() {
        for width in [0u8, 1, 7, 31, 32, 33, 63, 64] {
            let max = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let values: Vec<u64> = (0..300)
                .map(|i| if width == 0 { 0 } else { (i as u64 * 2654435761) & max })
                .collect();
            let packed = pack_bits(values.iter().copied(), width);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(unpack_bit(&packed, width, i), v, "width {width} index {i}");
            }
        }
    }

    #[test]
    fn int_page_for_encoding_roundtrips() {
        let values: Vec<i64> = (0..1000).map(|i| 1900 + (i % 120)).collect();
        let page = IntPage::encode(&values, &all_valid(values.len()), EncodingPolicy::Auto);
        assert!(matches!(page.encoding(), IntEncoding::For { .. }));
        assert_eq!(page.min_max(), Some((1900, 2019)));
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        assert_eq!(decoded, values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(page.get(i), v);
        }
        assert!(page.encoded_bytes() < values.len() * 8 / 4, "7-bit FOR beats 64-bit plain");

        // Intervals below, straddling, inside and above the frame, and the
        // extremes, test exactly as on the decoded values.
        let sets: [&[(i64, i64)]; 5] = [
            &[(i64::MIN, 1800), (1950, 1950)],
            &[(1000, 1905), (2019, i64::MAX)],
            &[(1901, 1901), (1930, 1940)],
            &[(i64::MIN, i64::MAX)],
            &[(i64::MIN, i64::MIN), (2500, 3000)],
        ];
        for set in sets {
            let mut hits = vec![0u64; values.len().div_ceil(64)];
            page.test_into(3..997, set, &mut hits);
            for (i, &v) in values.iter().enumerate() {
                let want = (3..997).contains(&i) && in_intervals(set, v);
                assert_eq!(bit(&hits, i), want, "row {i} value {v} set {set:?}");
            }
        }
    }

    #[test]
    fn int_page_rle_encoding_roundtrips() {
        let mut values = Vec::new();
        for run in 0..20i64 {
            values.extend(std::iter::repeat_n(run * 3, 50));
        }
        let page = IntPage::encode(&values, &all_valid(values.len()), EncodingPolicy::Auto);
        assert!(matches!(page.encoding(), IntEncoding::Rle { .. }));
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        assert_eq!(decoded, values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(page.get(i), v);
        }
        // Each run is tested once, clipped to the requested rows.
        let mut hits = vec![0u64; values.len().div_ceil(64)];
        page.test_into(25..975, &[(3, 6)], &mut hits);
        let set: Vec<usize> = (0..values.len()).filter(|&i| bit(&hits, i)).collect();
        assert_eq!(set, (50..150).collect::<Vec<_>>());
    }

    #[test]
    fn int_page_extreme_range_falls_back_to_plain() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, 1];
        let page = IntPage::encode(&values, &all_valid(values.len()), EncodingPolicy::Auto);
        assert!(matches!(page.encoding(), IntEncoding::Plain(_)));
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(page.get(i), v);
        }
    }

    #[test]
    fn plain_policy_forces_plain() {
        let values: Vec<i64> = vec![7; 500];
        let page = IntPage::encode(&values, &all_valid(values.len()), EncodingPolicy::Plain);
        assert!(matches!(page.encoding(), IntEncoding::Plain(_)));
        let codes: Vec<u32> = vec![3; 500];
        let page = CodePage::encode(&codes, &all_valid(codes.len()), EncodingPolicy::Plain);
        assert!(matches!(page.encoding(), CodeEncoding::Plain(_)));
    }

    #[test]
    fn all_null_page_prunes_everything() {
        let values = vec![0i64; 10];
        let page = IntPage::encode(&values, &[false; 10], EncodingPolicy::Auto);
        assert_eq!(page.min_max(), None);
        assert!(page.disjoint_with(i64::MIN, i64::MAX));
    }

    #[test]
    fn disjoint_with_uses_non_null_min_max() {
        let values = vec![100, 0, 200]; // slot 1 is a null slot holding 0
        let valid = vec![true, false, true];
        let page = IntPage::encode(&values, &valid, EncodingPolicy::Auto);
        assert_eq!(page.min_max(), Some((100, 200)));
        assert!(page.disjoint_with(0, 99));
        assert!(page.disjoint_with(201, i64::MAX));
        assert!(!page.disjoint_with(150, 150));
    }

    #[test]
    fn code_page_packed_roundtrips_max_code() {
        let codes = vec![0u32, 1, u32::MAX, 7, u32::MAX - 1];
        let page = CodePage::encode(&codes, &all_valid(codes.len()), EncodingPolicy::Auto);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(page.get(i), c);
        }
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        assert_eq!(decoded, codes);
    }

    #[test]
    fn code_page_rle_roundtrips() {
        let mut codes = Vec::new();
        for run in 0..10u32 {
            codes.extend(std::iter::repeat_n(run, 100));
        }
        let page = CodePage::encode(&codes, &all_valid(codes.len()), EncodingPolicy::Auto);
        assert!(matches!(page.encoding(), CodeEncoding::Rle { .. }));
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        assert_eq!(decoded, codes);
        assert_eq!(page.min_max(), Some((0, 9)));
        assert!(page.disjoint_with(10, 100));
    }

    #[test]
    fn pages_serialise_and_deserialise() {
        let ints: Vec<i64> = (0..500).map(|i| i * 17 - 3000).collect();
        let codes: Vec<u32> = (0..500).map(|i| (i % 37) as u32).collect();
        let mut rle = Vec::new();
        for run in 0..5i64 {
            rle.extend(std::iter::repeat_n(run - 2, 99));
        }
        for page in [
            PageData::Int(IntPage::encode(&ints, &all_valid(ints.len()), EncodingPolicy::Auto)),
            PageData::Int(IntPage::encode(&ints, &all_valid(ints.len()), EncodingPolicy::Plain)),
            PageData::Int(IntPage::encode(&rle, &all_valid(rle.len()), EncodingPolicy::Auto)),
            PageData::Code(CodePage::encode(&codes, &all_valid(codes.len()), EncodingPolicy::Auto)),
            PageData::Code(CodePage::encode(
                &codes,
                &all_valid(codes.len()),
                EncodingPolicy::Plain,
            )),
        ] {
            let bytes = page.to_bytes();
            let back = PageData::from_bytes(&bytes).unwrap();
            assert_eq!(back, page);
        }
    }

    #[test]
    fn malformed_page_bytes_are_rejected() {
        assert!(PageData::from_bytes(&[]).is_err());
        assert!(PageData::from_bytes(&[1, 2, 3]).is_err());
        let page = PageData::Int(IntPage::encode(
            &(0..100).collect::<Vec<i64>>(),
            &all_valid(100),
            EncodingPolicy::Auto,
        ));
        let bytes = page.to_bytes();
        // Truncation at every prefix is caught, never panics.
        for cut in 0..bytes.len() {
            assert!(PageData::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
