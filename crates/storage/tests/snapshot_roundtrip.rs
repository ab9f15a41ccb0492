//! Property-based tests for snapshot persistence: save → load is the
//! identity on databases, and corrupted or mis-versioned files are rejected.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use qob_storage::snapshot::{self, SnapshotMeta, SNAPSHOT_VERSION};
use qob_storage::{
    ColumnId, ColumnMeta, DataType, Database, IndexConfig, StorageError, TableBuilder, Value,
};

/// Generated data for one table: optional ints (one per row — the row count)
/// and a pool of optional strings cycled across the rows.
type TableData = (Vec<Option<i64>>, Vec<Option<String>>);

/// Builds a database from generated table data.  Table `i` is named `t<i>`
/// with a dense `id` primary-key column, one int and one str data column,
/// and — for every table after the first — a foreign key `ref0 -> t0`.
fn build_db(tables: &[TableData], config: IndexConfig) -> Database {
    let mut db = Database::new();
    let mut ids = Vec::new();
    for (t, (ints, strs)) in tables.iter().enumerate() {
        let mut metas = vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("ci", DataType::Int),
            ColumnMeta::new("cs", DataType::Str),
        ];
        if t > 0 {
            metas.push(ColumnMeta::new("ref0", DataType::Int));
        }
        let mut builder = TableBuilder::new(format!("t{t}"), metas);
        for (row, int_value) in ints.iter().enumerate() {
            let str_value = strs[row % strs.len()].clone();
            let mut values = vec![
                Value::Int(row as i64),
                int_value.map(Value::Int).unwrap_or(Value::Null),
                str_value.map(Value::Str).unwrap_or(Value::Null),
            ];
            if t > 0 {
                values.push(Value::Int(row as i64 % 7));
            }
            builder.push_row(values).unwrap();
        }
        ids.push(db.add_table(builder.finish()).unwrap());
    }
    for (t, &tid) in ids.iter().enumerate() {
        db.declare_primary_key(tid, "id").unwrap();
        if t > 0 {
            db.declare_foreign_key(tid, "ref0", ids[0]).unwrap();
        }
    }
    db.build_indexes(config).unwrap();
    db
}

/// Asserts that two databases are observably identical: catalog shape, keys,
/// index design, and every cell of every table (including dictionary codes,
/// which the estimators depend on).
fn assert_identical(a: &Database, b: &Database) {
    assert_eq!(a.table_count(), b.table_count());
    assert_eq!(a.total_rows(), b.total_rows());
    assert_eq!(a.index_config(), b.index_config());
    assert_eq!(a.index_count(), b.index_count());
    for (tid, ta) in a.tables() {
        let tb = b.table(tid);
        assert_eq!(ta.name(), tb.name());
        assert_eq!(ta.schema(), tb.schema());
        assert_eq!(ta.row_count(), tb.row_count());
        for col in 0..ta.column_count() {
            let cid = ColumnId(col as u32);
            let (ca, cb) = (ta.column(cid), tb.column(cid));
            assert_eq!(ca.validity(), cb.validity());
            for row in ta.row_ids() {
                assert_eq!(ta.value(row, cid), tb.value(row, cid));
                // Dictionary codes (not just strings) must survive: the
                // estimators key sketches on codes.
                assert_eq!(ca.code_at(row as usize), cb.code_at(row as usize));
            }
        }
        assert_eq!(a.keys(tid).primary_key, b.keys(tid).primary_key);
        assert_eq!(a.keys(tid).foreign_keys, b.keys(tid).foreign_keys);
    }
}

/// Writes `bytes` to a temp file of its own (one per call, so parallel
/// tests and proptest cases never share one), loads it and removes it.
fn load_bytes(bytes: &[u8]) -> Result<(Database, SnapshotMeta), StorageError> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("qob-snapshot-roundtrip-{}-{n}.qob", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let loaded = snapshot::load(&path);
    std::fs::remove_file(&path).ok();
    loaded
}

fn table_strategy() -> impl Strategy<Value = TableData> {
    (
        prop::collection::vec(proptest::option::of(-1000i64..1000), 1..40),
        prop::collection::vec(proptest::option::of("[a-d]{0,4}"), 1..8),
    )
}

proptest! {
    /// encode → load is the identity on arbitrary databases, whatever the
    /// column mix, null pattern, or physical design.
    #[test]
    fn snapshot_roundtrip_is_identity(
        tables in prop::collection::vec(table_strategy(), 1..4),
        config_seed in any::<u8>(),
        meta_value in any::<i64>(),
    ) {
        let config = IndexConfig::all()[config_seed as usize % 3];
        let db = build_db(&tables, config);
        let meta = vec![("k".to_owned(), meta_value)];
        let bytes = snapshot::encode(&db, &meta);
        let (reloaded, meta2) = load_bytes(&bytes).unwrap();
        prop_assert_eq!(&meta, &meta2);
        assert_identical(&db, &reloaded);
    }

    /// Flipping any single byte of a snapshot is detected: load either
    /// fails the checksum or a structural validation — it never silently
    /// yields a database from corrupt bytes.
    #[test]
    fn corruption_anywhere_is_rejected(
        table in table_strategy(),
        pos_seed in any::<u64>(),
        flip in 1u8..255,
    ) {
        let db = build_db(std::slice::from_ref(&table), IndexConfig::PrimaryKeyOnly);
        let mut bytes = snapshot::encode(&db, &[]);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(load_bytes(&bytes).is_err(), "flip {flip:#x} at {pos} undetected");
    }

    /// Truncation at any point is detected.
    #[test]
    fn truncation_anywhere_is_rejected(
        table in table_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let db = build_db(std::slice::from_ref(&table), IndexConfig::NoIndexes);
        let bytes = snapshot::encode(&db, &[]);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(load_bytes(&bytes[..cut]).is_err(), "truncation to {cut} undetected");
    }
}

#[test]
fn future_version_is_rejected_with_version_error() {
    let table = (vec![Some(1), None], vec![Some("x".to_owned())]);
    let db = build_db(std::slice::from_ref(&table), IndexConfig::PrimaryKeyOnly);
    let mut bytes = snapshot::encode(&db, &[]);
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match load_bytes(&bytes) {
        Err(StorageError::SnapshotVersion { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn foreign_key_snapshots_rebuild_fk_indexes() {
    let tables = vec![
        (vec![Some(5); 10], vec![Some("a".to_owned())]),
        (vec![Some(9); 20], vec![None, Some("b".to_owned())]),
    ];
    let db = build_db(&tables, IndexConfig::PrimaryAndForeignKey);
    let (reloaded, _) = load_bytes(&snapshot::encode(&db, &[])).unwrap();
    assert_eq!(reloaded.index_config(), IndexConfig::PrimaryAndForeignKey);
    let t1 = reloaded.table_id("t1").unwrap();
    let ref0 = reloaded.table(t1).column_id("ref0").unwrap();
    assert!(reloaded.has_index(t1, ref0), "FK index must be rebuilt on load");
}
