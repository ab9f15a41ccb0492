//! The one base-table scan: a relation's conjunction of predicates, compiled
//! once into a [`ScanFilter`] and evaluated over row ranges a page at a time.
//!
//! Each conjunct becomes a kernel — integer intervals, a dictionary-code
//! bitset, or a validity test — or runs row-wise ([`Predicate::matches`],
//! also the reference the kernels are tested against) on the rows the
//! kernels let through.  docs/STORAGE.md, "Scans", describes the kernels,
//! the null rule and page skipping.

use std::ops::Range;

use crate::column::EncodedColumn;
use crate::encoding::{bit, in_intervals, word_mask, PAGE_ROWS};
use crate::predicate::{Cell, CmpOp, Predicate};
use crate::table::{RowId, Table};

/// A relation's conjunction compiled for [`ScanFilter::select`].
pub struct ScanFilter<'a> {
    table: &'a Table,
    kernels: Vec<Kernel<'a>>,
    row_wise: Vec<&'a Predicate>,
}

/// One conjunct evaluated on encoded pages: a row matches iff it is NULL and
/// `nulls` is set, or it is non-null and its stored value passes `test`.
struct Kernel<'a> {
    col: &'a EncodedColumn,
    nulls: bool,
    test: Test,
}

enum Test {
    /// The value lies in one of these sorted, disjoint, inclusive intervals.
    Ints(Vec<(i64, i64)>),
    /// The code's bit is set; `low..=high` spans the set bits.
    Codes { bits: Vec<u64>, low: u32, high: u32 },
    /// Every non-null row passes iff `nulls` is clear (`IS NOT NULL`).
    Valid,
}

impl<'a> ScanFilter<'a> {
    /// Compiles the conjunction `preds` over `table`.
    pub fn compile(table: &'a Table, preds: &'a [Predicate]) -> Self {
        let (mut kernels, mut row_wise) = (Vec::new(), Vec::new());
        for pred in preds {
            match Kernel::compile(table, pred) {
                Some(kernel) => kernels.push(kernel),
                None => row_wise.push(pred),
            }
        }
        ScanFilter { table, kernels, row_wise }
    }

    /// Appends the rows of `rows` that satisfy every predicate to `out`, in
    /// ascending order.  `rows` may start and end anywhere in a page.
    pub fn select(&self, rows: Range<usize>, out: &mut Vec<RowId>) {
        let start = out.len();
        match self.kernels.split_first() {
            None => out.extend(rows.map(|row| row as RowId)),
            Some((first, rest)) => {
                first.select(rows, out);
                for kernel in rest {
                    retain(out, start, |row| kernel.matches(row));
                }
            }
        }
        for pred in &self.row_wise {
            retain(out, start, |row| pred.matches(self.table, row as RowId));
        }
    }
}

/// Keeps the rows of `out[start..]` that pass `keep`, in order.
fn retain(out: &mut Vec<RowId>, start: usize, keep: impl Fn(usize) -> bool) {
    let mut kept = start;
    for i in start..out.len() {
        if keep(out[i] as usize) {
            (out[kept], kept) = (out[i], kept + 1);
        }
    }
    out.truncate(kept);
}

impl<'a> Kernel<'a> {
    /// The kernel for `pred`, or `None` if it must run row-wise.
    fn compile(table: &'a Table, pred: &Predicate) -> Option<Self> {
        let (column, nulls, test) = match pred {
            Predicate::IsNull { column } => (*column, true, Test::Valid),
            Predicate::IsNotNull { column } => (*column, false, Test::Valid),
            _ => {
                let [column] = pred.referenced_columns()[..] else { return None };
                match table.column(column).dict() {
                    Some(dict) => {
                        // `matches`' own semantics, once per dictionary entry.
                        let mut bits = vec![0u64; dict.len().div_ceil(64)];
                        let (mut low, mut high) = (u32::MAX, 0);
                        for (code, s) in dict.iter() {
                            if pred.eval(&|_| Cell::Str(s)) {
                                bits[code as usize / 64] |= 1 << (code % 64);
                                (low, high) = (low.min(code), high.max(code));
                            }
                        }
                        (column, pred.eval(&|_| Cell::Null), Test::Codes { bits, low, high })
                    }
                    None => (column, false, Test::Ints(intervals(pred)?)),
                }
            }
        };
        Some(Kernel { col: table.column(column), nulls, test })
    }

    /// Appends the matching rows of `rows` to `out`, page by page: the page
    /// kernel sets a hit bit per row, and each 64-row word of hits is merged
    /// with the validity word (`valid ? hit : nulls`) before its set bits
    /// become row ids.
    fn select(&self, rows: Range<usize>, out: &mut Vec<RowId>) {
        let mut hits = [0u64; PAGE_ROWS / 64];
        let validity = self.col.validity().words();
        let mut row = rows.start;
        while row < rows.end {
            let (p, base) = (row / PAGE_ROWS, row / PAGE_ROWS * PAGE_ROWS);
            let in_page = row - base..rows.end.min(base + PAGE_ROWS) - base;
            row = base + in_page.end;
            let words = in_page.start / 64..in_page.end.div_ceil(64);
            let all = matches!(self.test, Test::Valid) && !self.nulls;
            hits[words.clone()].fill(if all { u64::MAX } else { 0 });
            match &self.test {
                Test::Valid => {}
                Test::Ints(set) => {
                    let page = self.col.int_page(p);
                    if set.is_empty() || page.disjoint_with(set[0].0, set[set.len() - 1].1) {
                        continue;
                    }
                    page.test_into(in_page.clone(), set, &mut hits);
                }
                Test::Codes { bits, low, high } => {
                    let page = self.col.code_page(p);
                    if !self.nulls && page.disjoint_with(*low, *high) {
                        continue;
                    }
                    page.test_into(in_page.clone(), bits, &mut hits);
                }
            }
            for w in words {
                let valid = validity[base / 64 + w];
                let mut word = (hits[w] & valid) | if self.nulls { !valid } else { 0 };
                word &= word_mask(&in_page, w);
                while word != 0 {
                    out.push((base + w * 64 + word.trailing_zeros() as usize) as RowId);
                    word &= word - 1;
                }
            }
        }
    }

    /// Whether one row matches (the narrowing step).
    fn matches(&self, row: usize) -> bool {
        if !self.col.validity().get(row) {
            return self.nulls;
        }
        let (p, i) = (row / PAGE_ROWS, row % PAGE_ROWS);
        match &self.test {
            Test::Ints(set) => in_intervals(set, self.col.int_page(p).get(i)),
            Test::Codes { bits, .. } => bit(bits, self.col.code_page(p).get(i) as usize),
            Test::Valid => !self.nulls,
        }
    }
}

/// The sorted, disjoint, inclusive intervals an integer predicate accepts, or
/// `None` if it is not a union of intervals (`<>`, `NOT`, `AND`, strings).
fn intervals(pred: &Predicate) -> Option<Vec<(i64, i64)>> {
    let mut all = match *pred {
        Predicate::IntCmp { op, value, .. } => match op {
            CmpOp::Eq => vec![(value, value)],
            CmpOp::Lt => value.checked_sub(1).map(|high| (i64::MIN, high)).into_iter().collect(),
            CmpOp::Le => vec![(i64::MIN, value)],
            CmpOp::Gt => value.checked_add(1).map(|low| (low, i64::MAX)).into_iter().collect(),
            CmpOp::Ge => vec![(value, i64::MAX)],
            CmpOp::Ne => return None,
        },
        Predicate::IntBetween { low, high, .. } => {
            if low <= high {
                vec![(low, high)]
            } else {
                Vec::new()
            }
        }
        Predicate::Or(ref alternatives) => {
            let mut all = Vec::new();
            for alternative in alternatives {
                all.extend(intervals(alternative)?);
            }
            all
        }
        _ => return None,
    };
    all.sort_unstable();
    let mut merged: Vec<(i64, i64)> = Vec::with_capacity(all.len());
    for (low, high) in all {
        match merged.last_mut() {
            Some(last) if low <= last.1.saturating_add(1) => last.1 = last.1.max(high),
            _ => merged.push((low, high)),
        }
    }
    Some(merged)
}
