//! The parallel hash build against the sequential one: every thread count
//! and morsel size must yield a table that probes identically to
//! `threads: 1`, and with `enable_rehash: false` the parallel build must keep
//! the estimate-derived size, so Figure 6's undersized-table pathology cannot
//! be optimised away by accident.

use qob_exec::operators::{build_hash_table, ColReader, ExecGuard};
use qob_exec::{ChainedHashTable, ExecutionOptions, Intermediate, WorkerPool};
use qob_storage::{ColumnId, ColumnMeta, DataType, RowId, Table, TableBuilder, Value};

/// Rows over two pages, each column NULL-heavy and duplicate-heavy: column 0
/// cycles through 97 keys (bit-packed pages), column 1 is sorted with long
/// runs (RLE pages) broken by NULL stretches.
const ROWS: usize = 70_000;

fn table() -> Table {
    let mut b = TableBuilder::new(
        "t",
        vec![ColumnMeta::new("cycled", DataType::Int), ColumnMeta::new("runs", DataType::Int)],
    );
    for i in 0..ROWS {
        let cycled = if i % 3 == 0 { Value::Null } else { Value::Int((i * 7919 % 97) as i64 - 40) };
        let runs = if (i / 500) % 4 == 1 { Value::Null } else { Value::Int((i / 200) as i64) };
        b.push_row(vec![cycled, runs]).unwrap();
    }
    b.finish()
}

/// A width-2 build side `(other, keyed)` in scrambled row order, split into
/// uneven chunks, so the key gather crosses chunks, pages and runs
/// backwards as well as forwards.
fn build_side() -> Intermediate {
    let keyed: Vec<RowId> = (0..ROWS as u64).map(|i| (i * 48_271 % ROWS as u64) as RowId).collect();
    let flat: Vec<RowId> = keyed.iter().flat_map(|&r| [r / 2, r]).collect();
    let chunks = flat.chunks(2 * 9_001).map(<[RowId]>::to_vec).collect();
    Intermediate::from_chunks(vec![1, 0], chunks)
}

fn build(
    side: &Intermediate,
    key: ColReader<'_>,
    estimate: f64,
    threads: usize,
    morsel_size: usize,
    enable_rehash: bool,
) -> ChainedHashTable {
    let options = ExecutionOptions { threads, morsel_size, enable_rehash, ..Default::default() };
    let pool = WorkerPool::new(threads - 1);
    build_hash_table(side, key, estimate, &options, &pool, &ExecGuard::new(&options)).unwrap()
}

fn probes(table: &ChainedHashTable, keys: impl Iterator<Item = i64>) -> Vec<Vec<RowId>> {
    keys.map(|k| table.probe(k).collect()).collect()
}

#[test]
fn parallel_builds_probe_identically_to_sequential() {
    let t = table();
    let side = build_side();
    for column in [ColumnId(0), ColumnId(1)] {
        let key = ColReader::new(1, t.column(column));
        let domain = || -50..(ROWS as i64 / 50 + 5);
        for enable_rehash in [true, false] {
            for estimate in [1.0, ROWS as f64] {
                let reference = build(&side, key, estimate, 1, 16_384, enable_rehash);
                let want = probes(&reference, domain());
                assert!(want.iter().any(|m| m.len() > 100), "duplicate-heavy keys");
                for threads in [1, 2, 4, 7] {
                    for morsel_size in [1, 16, 16_384] {
                        let table =
                            build(&side, key, estimate, threads, morsel_size, enable_rehash);
                        let case = format!(
                            "{column:?} rehash={enable_rehash} estimate={estimate} \
                             threads={threads} morsel={morsel_size}"
                        );
                        assert_eq!(table.len(), reference.len(), "{case}");
                        assert!(probes(&table, domain()) == want, "probe results differ: {case}");
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_build_keeps_the_undersized_table_without_rehash() {
    let t = table();
    let side = build_side();
    let key = ColReader::new(1, t.column(ColumnId(1)));
    let sequential = build(&side, key, 1.0, 1, 16_384, false);
    assert_eq!(sequential.bucket_count(), 16, "sized from the 1-row estimate");
    assert!(sequential.avg_chain_length() > 1_000.0, "{}", sequential.avg_chain_length());
    for threads in [2, 4, 7] {
        for morsel_size in [1, 16, 16_384] {
            let parallel = build(&side, key, 1.0, threads, morsel_size, false);
            assert_eq!(parallel.bucket_count(), 16, "threads={threads} morsel={morsel_size}");
            assert_eq!(parallel.resize_count(), 0);
            assert_eq!(
                parallel.avg_chain_length(),
                sequential.avg_chain_length(),
                "threads={threads} morsel={morsel_size}"
            );
        }
    }
}
