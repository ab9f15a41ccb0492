//! Property-based tests for the storage primitives.

use proptest::prelude::*;
use qob_storage::encoding::{CodePage, IntPage};
use qob_storage::predicate::like_match;
use qob_storage::{
    Bitmap, CmpOp, ColumnBuilder, ColumnId, ColumnMeta, DataType, EncodingPolicy, KeyIndex,
    PageData, Predicate, RowId, ScanFilter, Table, TableBuilder, Value, PAGE_ROWS,
};

/// Values likely to exercise every int encoding: negatives, dense ranges
/// (frame-of-reference), repeats (RLE), and the extremes.
fn int_slot() -> impl Strategy<Value = i64> {
    prop_oneof![
        5 => -50i64..50,
        2 => 1_000_000i64..1_000_100,
        1 => any::<i64>(),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
    ]
}

/// Codes likely to exercise every code encoding, including the widest
/// possible dictionary code.
fn code_slot() -> impl Strategy<Value = u32> {
    prop_oneof![
        5 => 0u32..8,
        2 => 0u32..100_000,
        1 => Just(u32::MAX),
    ]
}

proptest! {
    /// A bitmap built from a boolean vector reproduces it exactly.
    #[test]
    fn bitmap_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..512)) {
        let bm: Bitmap = bits.iter().copied().collect();
        prop_assert_eq!(bm.len(), bits.len());
        prop_assert_eq!(bm.count_ones(), bits.iter().filter(|b| **b).count());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(bm.get(i), b);
        }
        let expected_indices: Vec<usize> =
            bits.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i).collect();
        prop_assert_eq!(bm.set_indices(), expected_indices);
    }

    /// AND/OR/NOT on bitmaps agree with element-wise boolean logic.
    #[test]
    fn bitmap_boolean_algebra(
        pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 0..300)
    ) {
        let a: Bitmap = pairs.iter().map(|(x, _)| *x).collect();
        let b: Bitmap = pairs.iter().map(|(_, y)| *y).collect();
        let mut and = a.clone();
        and.and_with(&b);
        let mut or = a.clone();
        or.or_with(&b);
        let mut not_a = a.clone();
        not_a.negate();
        for (i, (x, y)) in pairs.iter().enumerate() {
            prop_assert_eq!(and.get(i), *x && *y);
            prop_assert_eq!(or.get(i), *x || *y);
            prop_assert_eq!(not_a.get(i), !*x);
        }
        prop_assert_eq!(not_a.count_ones(), pairs.len() - a.count_ones());
    }

    /// An exact-match LIKE pattern (no wildcards) behaves like equality, and
    /// a pattern wrapped in % behaves like substring containment.
    #[test]
    fn like_matches_equality_and_containment(
        needle in "[a-z]{0,6}",
        hay in "[a-z]{0,12}",
    ) {
        prop_assert_eq!(like_match(&needle, &hay), needle == hay);
        let contains_pattern = format!("%{needle}%");
        prop_assert_eq!(like_match(&contains_pattern, &hay), hay.contains(&needle));
        let prefix_pattern = format!("{needle}%");
        prop_assert_eq!(like_match(&prefix_pattern, &hay), hay.starts_with(&needle));
        let suffix_pattern = format!("%{needle}");
        prop_assert_eq!(like_match(&suffix_pattern, &hay), hay.ends_with(&needle));
    }

    /// Scanning a table with an integer comparison selects exactly the rows
    /// the comparison holds for.
    #[test]
    fn int_filter_agrees_with_scan(values in prop::collection::vec(proptest::option::of(-50i64..50), 1..200), threshold in -50i64..50) {
        let mut b = TableBuilder::new("t", vec![ColumnMeta::new("v", DataType::Int)]);
        for v in &values {
            b.push_row(vec![v.map(Value::Int).unwrap_or(Value::Null)]).unwrap();
        }
        let t = b.finish();
        let col = t.column_id("v").unwrap();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let pred = [Predicate::IntCmp { column: col, op, value: threshold }];
            let mut filtered = Vec::new();
            ScanFilter::compile(&t, &pred).select(0..t.row_count(), &mut filtered);
            let expected: Vec<u32> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| v.map(|v| op.apply(v, threshold)).unwrap_or(false))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(&filtered, &expected);
        }
    }

    /// Dictionary-encoded string columns return exactly the pushed strings.
    #[test]
    fn string_column_roundtrip(strings in prop::collection::vec(proptest::option::of("[a-c]{0,3}"), 0..100)) {
        let mut builder = ColumnBuilder::new(DataType::Str);
        for s in &strings {
            let v = s.clone().map(Value::Str).unwrap_or(Value::Null);
            prop_assert!(builder.push(&v));
        }
        let col = builder.finish();
        prop_assert_eq!(col.len(), strings.len());
        for (i, s) in strings.iter().enumerate() {
            prop_assert_eq!(col.str_at(i), s.as_deref());
        }
        let distinct_expected: std::collections::HashSet<&String> =
            strings.iter().flatten().collect();
        prop_assert_eq!(col.distinct_count_exact(), distinct_expected.len());
    }

    /// Every int-page encoding is an identity on its stored slot values —
    /// per-slot `get`, bulk `decode_into`, and the snapshot byte format all
    /// reproduce the input exactly, under both policies.
    #[test]
    fn int_page_roundtrip(
        slots in prop::collection::vec((int_slot(), any::<bool>()), 0..300),
        policy in prop_oneof![Just(EncodingPolicy::Auto), Just(EncodingPolicy::Plain)],
    ) {
        let values: Vec<i64> = slots.iter().map(|(v, _)| *v).collect();
        let valid: Vec<bool> = slots.iter().map(|(_, ok)| *ok).collect();
        let page = IntPage::encode(&values, &valid, policy);
        prop_assert_eq!(page.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(page.get(i), v, "slot {} diverges", i);
        }
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        prop_assert_eq!(&decoded, &values);
        let expected = values.iter().zip(&valid).filter(|(_, ok)| **ok).map(|(v, _)| *v);
        prop_assert_eq!(page.min_max(), expected.clone().map(|v| (v, v)).reduce(
            |(lo, hi), (v, _)| (lo.min(v), hi.max(v))
        ));
        let bytes = PageData::Int(page.clone()).to_bytes();
        prop_assert_eq!(PageData::from_bytes(&bytes).unwrap(), PageData::Int(page));
    }

    /// Long runs of one value (the shape NULL backfilling produces) always
    /// survive the round-trip — the RLE path specifically.
    #[test]
    fn int_page_roundtrip_on_null_runs(
        runs in prop::collection::vec((int_slot(), 1usize..40, any::<bool>()), 0..12),
    ) {
        let mut values = Vec::new();
        let mut valid = Vec::new();
        for (v, n, ok) in &runs {
            values.extend(std::iter::repeat_n(*v, *n));
            valid.extend(std::iter::repeat_n(*ok, *n));
        }
        let page = IntPage::encode(&values, &valid, EncodingPolicy::Auto);
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        prop_assert_eq!(&decoded, &values);
        let bytes = PageData::Int(page.clone()).to_bytes();
        prop_assert_eq!(PageData::from_bytes(&bytes).unwrap(), PageData::Int(page));
    }

    /// Every code-page encoding is an identity on its stored codes,
    /// including `u32::MAX` (the widest packable width).
    #[test]
    fn code_page_roundtrip(
        slots in prop::collection::vec((code_slot(), any::<bool>()), 0..300),
        policy in prop_oneof![Just(EncodingPolicy::Auto), Just(EncodingPolicy::Plain)],
    ) {
        let codes: Vec<u32> = slots.iter().map(|(c, _)| *c).collect();
        let valid: Vec<bool> = slots.iter().map(|(_, ok)| *ok).collect();
        let page = CodePage::encode(&codes, &valid, policy);
        prop_assert_eq!(page.len(), codes.len());
        for (i, &c) in codes.iter().enumerate() {
            prop_assert_eq!(page.get(i), c, "slot {} diverges", i);
        }
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        prop_assert_eq!(&decoded, &codes);
        let bytes = PageData::Code(page.clone()).to_bytes();
        prop_assert_eq!(PageData::from_bytes(&bytes).unwrap(), PageData::Code(page));
    }

    /// An int *column* built from arbitrary optional values (NULL runs,
    /// negatives, extremes) reads back exactly, under both policies — the
    /// builder's null-slot fill values never leak into visible rows.
    #[test]
    fn int_column_roundtrip(
        values in prop::collection::vec(proptest::option::of(int_slot()), 0..300),
        policy in prop_oneof![Just(EncodingPolicy::Auto), Just(EncodingPolicy::Plain)],
    ) {
        let mut builder = ColumnBuilder::with_policy(DataType::Int, policy);
        for v in &values {
            prop_assert!(builder.push(&v.map(Value::Int).unwrap_or(Value::Null)));
        }
        let col = builder.finish();
        prop_assert_eq!(col.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.int_at(i), *v, "row {} diverges", i);
            prop_assert_eq!(col.is_null(i), v.is_none());
        }
    }

    /// A key index answers every lookup with the ascending row ids whose
    /// `int_at` is that key: over empty, one-page and multi-page columns
    /// with NULL stretches and duplicates, under keys drawn from a dense
    /// range, sparse keys and extreme keys, and for misses below, between
    /// and above the keys.
    #[test]
    fn key_index_lookup_equals_row_wise_model(
        shape in (any::<bool>(), 0usize..300, 0u8..3),
        seed in any::<u64>(),
        nulls in (0usize..PAGE_ROWS + 300, 0usize..5_000, 0u64..4),
        policy in prop_oneof![Just(EncodingPolicy::Auto), Just(EncodingPolicy::Plain)],
    ) {
        let (multi_page, extra, mode) = shape;
        let rows = if multi_page { PAGE_ROWS + extra } else { extra };
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let base = (next() % 2_001) as i64 - 1_000;
        let dup = 1 + (next() % 3) as usize;
        let (null_start, null_len, null_rate) = nulls;
        let mut builder = ColumnBuilder::with_policy(DataType::Int, policy);
        for row in 0..rows {
            let key = match mode {
                0 => base + (next() % (rows / dup + 1) as u64) as i64,
                1 => base + (next() % (10 * rows as u64 + 1)) as i64,
                _ => match next() % 6 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => i64::MIN + 1 + (next() % 3) as i64,
                    3 => i64::MAX - 1 - (next() % 3) as i64,
                    4 => (next() % 7) as i64 - 3,
                    _ => next() as i64,
                },
            };
            let null = (null_start..null_start + null_len).contains(&row)
                || (null_rate > 0 && next() % 16 < null_rate);
            builder.push(&if null { Value::Null } else { Value::Int(key) });
        }
        let column = builder.finish();
        let table =
            Table::from_parts("t", vec![ColumnMeta::new("k", DataType::Int)], vec![column]).unwrap();
        let index = KeyIndex::build(&table, ColumnId(0)).unwrap();

        let mut model: std::collections::BTreeMap<i64, Vec<RowId>> = Default::default();
        for row in table.row_ids() {
            if let Some(key) = table.column(ColumnId(0)).int_at(row as usize) {
                model.entry(key).or_default().push(row);
            }
        }
        for (key, want) in &model {
            prop_assert_eq!(index.lookup(*key), want.as_slice(), "key {}", key);
        }
        let keys: Vec<i64> = model.keys().copied().collect();
        let mut misses = vec![i64::MIN, i64::MAX, 0, base - 1];
        if let (Some(&low), Some(&high)) = (keys.first(), keys.last()) {
            misses.extend([low.checked_sub(1), high.checked_add(1)].into_iter().flatten());
        }
        for pair in keys.windows(2) {
            if pair[0] + 1 < pair[1] {
                misses.extend([pair[0] + 1, pair[1] - 1]);
            }
        }
        misses.extend((0..64).map(|_| base + (next() % (10 * rows as u64 + 2)) as i64));
        for key in misses {
            let want = model.get(&key).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(index.lookup(key), want, "probe {}", key);
        }
    }
}

// ---------------------------------------------------------------------------
// The one scan against the row-wise reference, over columns of two pages.
// ---------------------------------------------------------------------------

const TAGS: [&str; 6] = ["é", "中文", "ab", "a_b", "a%b", ""];
const WORDS: usize = 300;
const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn word(i: usize) -> String {
    format!("w{}{}", i, ["", "é", "中", "_"][i % 4])
}

/// `PAGE_ROWS` plus a few thousand rows over five columns: `sorted` (RLE
/// under `Auto`), `small` (FOR), `wide` (plain: it holds both extremes),
/// `tag` (RLE codes, multibyte and wildcard characters) and `word` (packed
/// codes).  Every column has NULL stretches; with `all_null_page`, `small`
/// and `tag` are NULL on the whole second page.
fn two_page_table(rng: &mut TestRng, policy: EncodingPolicy, all_null_page: bool) -> Table {
    let columns = vec![
        ColumnMeta::new("sorted", DataType::Int),
        ColumnMeta::new("small", DataType::Int),
        ColumnMeta::new("wide", DataType::Int),
        ColumnMeta::new("tag", DataType::Str),
        ColumnMeta::new("word", DataType::Str),
    ];
    let mut b = TableBuilder::with_policy("t", columns, policy);
    let rows = PAGE_ROWS + 1_000 + rng.below(3_000);
    let (mut tag, mut tag_left, mut null_left) = (0, 0, 0);
    for row in 0..rows {
        if tag_left == 0 {
            (tag, tag_left) = (rng.below(TAGS.len() + 1), 1 + rng.below(40));
        }
        tag_left -= 1;
        if null_left == 0 && rng.below(500) == 0 {
            null_left = 1 + rng.below(300);
        }
        let in_null_stretch = null_left > 0;
        null_left = null_left.saturating_sub(1);
        let null_page = all_null_page && row >= PAGE_ROWS;
        let int = |v: i64, null: bool| if null { Value::Null } else { Value::Int(v) };
        let wide = match rng.below(50) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => 1_000_000 + rng.below(100) as i64,
        };
        b.push_row(vec![
            int((row / 97) as i64, in_null_stretch),
            int(rng.below(20) as i64 - 10, in_null_stretch || null_page || rng.below(10) == 0),
            int(wide, rng.below(20) == 0),
            match TAGS.get(tag) {
                Some(s) if !null_page => Value::Str((*s).into()),
                _ => Value::Null,
            },
            if in_null_stretch { Value::Null } else { Value::Str(word(rng.below(WORDS))) },
        ])
        .unwrap();
    }
    b.finish()
}

fn int_literal(rng: &mut TestRng) -> i64 {
    match rng.below(8) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => i64::MIN + 1,
        3 => 1_000_000 + rng.below(100) as i64,
        4 | 5 => rng.below(50) as i64 - 25,
        _ => rng.below(PAGE_ROWS / 97 + 60) as i64,
    }
}

fn str_literal(rng: &mut TestRng) -> String {
    match rng.below(3) {
        0 => TAGS[rng.below(TAGS.len())].into(),
        1 => word(rng.below(WORDS + 20)), // some are absent from the dictionary
        _ => "absent".into(),
    }
}

fn like_pattern(rng: &mut TestRng) -> String {
    const PIECES: [&str; 8] = ["%", "_", "a", "b", "é", "中", "%%", "w1"];
    (0..rng.below(4)).map(|_| PIECES[rng.below(PIECES.len())]).collect()
}

/// A random predicate of every shape the binder emits and some it does not:
/// `<>`, integer `IN`, `NOT LIKE` as the binder writes it, mixed-column
/// `OR`, `NOT`, and type-mismatched comparisons.
fn random_predicate(rng: &mut TestRng, depth: usize) -> Predicate {
    let int_col = ColumnId(rng.below(3) as u32);
    let str_col = ColumnId(3 + rng.below(2) as u32);
    let any_col = ColumnId(rng.below(5) as u32);
    match rng.below(if depth == 0 { 12 } else { 17 }) {
        0 => Predicate::IntCmp { column: int_col, op: OPS[rng.below(6)], value: int_literal(rng) },
        1 => {
            Predicate::IntBetween { column: int_col, low: int_literal(rng), high: int_literal(rng) }
        }
        // Integer `IN`, sometimes with half-open alternatives.
        2 | 14 | 15 => Predicate::Or(
            (0..1 + rng.below(5))
                .map(|_| {
                    let op = if rng.below(4) == 0 { OPS[rng.below(6)] } else { CmpOp::Eq };
                    Predicate::IntCmp { column: int_col, op, value: int_literal(rng) }
                })
                .collect(),
        ),
        3 => Predicate::StrEq { column: str_col, value: str_literal(rng) },
        4 => Predicate::StrIn {
            column: str_col,
            values: (0..rng.below(4)).map(|_| str_literal(rng)).collect(),
        },
        5 => Predicate::Like { column: str_col, pattern: like_pattern(rng) },
        6 => Predicate::IsNull { column: any_col },
        7 => Predicate::IsNotNull { column: any_col },
        8 => Predicate::IntCmp { column: str_col, op: OPS[rng.below(6)], value: int_literal(rng) },
        9 => Predicate::StrEq { column: int_col, value: str_literal(rng) },
        // NULL rows match these two.
        10 => Predicate::Not(Box::new(Predicate::Like {
            column: str_col,
            pattern: like_pattern(rng),
        })),
        11 => Predicate::Or(vec![
            Predicate::IsNull { column: str_col },
            Predicate::StrEq { column: str_col, value: str_literal(rng) },
        ]),
        12 => Predicate::Not(Box::new(random_predicate(rng, depth - 1))),
        13 => {
            Predicate::Or(vec![random_predicate(rng, depth - 1), random_predicate(rng, depth - 1)])
        }
        _ => Predicate::And(vec![
            Predicate::IsNotNull { column: str_col },
            Predicate::Not(Box::new(Predicate::Like {
                column: str_col,
                pattern: like_pattern(rng),
            })),
        ]),
    }
}

/// `select` over any row range — including ranges that start and end
/// mid-page and morsels that straddle the page boundary — returns exactly
/// the rows `Predicate::matches` accepts, for every encoding.
#[test]
fn scan_select_equals_row_wise_matches_across_pages() {
    let mut rng = TestRng::deterministic("scan_select_equals_row_wise_matches_across_pages");
    for case in 0..6 {
        let policy = if case % 3 == 2 { EncodingPolicy::Plain } else { EncodingPolicy::Auto };
        let t = two_page_table(&mut rng, policy, case % 2 == 0);
        let n = t.row_count();
        for _ in 0..12 {
            let preds: Vec<Predicate> =
                (0..1 + rng.below(3)).map(|_| random_predicate(&mut rng, 2)).collect();
            let expected: Vec<RowId> =
                t.row_ids().filter(|&row| preds.iter().all(|p| p.matches(&t, row))).collect();
            let scan = ScanFilter::compile(&t, &preds);
            let (a, b) = (rng.below(PAGE_ROWS), PAGE_ROWS + 1 + rng.below(n - PAGE_ROWS));
            let (c, d) = (rng.below(n), rng.below(n));
            for range in [0..n, a..b, PAGE_ROWS - 1..PAGE_ROWS + 1, c.min(d)..c.max(d), b..b] {
                let mut got = Vec::new();
                scan.select(range.clone(), &mut got);
                let want: Vec<RowId> =
                    expected.iter().copied().filter(|&r| range.contains(&(r as usize))).collect();
                assert_eq!(got, want, "case {case}, range {range:?}, predicates {preds:?}");
            }
            // Morsels that do not divide the page, appended one after another.
            let morsel = [1_000, PAGE_ROWS + 3][rng.below(2)];
            let mut got = Vec::new();
            for start in (0..n).step_by(morsel) {
                scan.select(start..(start + morsel).min(n), &mut got);
            }
            assert_eq!(got, expected, "case {case}, morsel {morsel}, predicates {preds:?}");
        }
    }
}
