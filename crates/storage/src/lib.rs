//! # qob-storage
//!
//! In-memory columnar storage engine used as the execution substrate for the
//! reproduction of *"How Good Are Query Optimizers, Really?"* (Leis et al.,
//! VLDB 2015).
//!
//! The paper runs every experiment against a single main-memory resident
//! database (the IMDB snapshot loaded into PostgreSQL).  This crate provides
//! the equivalent substrate for the reproduction:
//!
//! * typed, compressed columnar tables ([`Table`], [`column::EncodedColumn`])
//!   whose pages pick the cheapest of plain / frame-of-reference+bit-packed /
//!   RLE encoding at build time ([`encoding`]),
//! * unclustered sorted key indexes for equality lookups ([`index`]),
//! * a catalog of tables and indexes ([`Database`]),
//! * a predicate language ([`predicate`]) and the one base-table scan that
//!   evaluates it a page at a time ([`scan`]).
//!
//! The storage layer is deliberately simple — all data fits in RAM, rows are
//! addressed by dense [`RowId`]s, and strings are dictionary encoded so that
//! the synthetic IMDB-scale workload stays laptop friendly — but it exposes
//! exactly the access paths the paper's experiments depend on: full table
//! scans, index lookups on key/foreign-key columns, and per-row predicate
//! evaluation.
//!
//! Databases persist to disk as versioned, checksummed binary **snapshots**
//! ([`snapshot`]): [`snapshot::save`] / [`snapshot::load`] let repeated
//! runs (and the `qob serve` server) skip data generation entirely, and
//! [`snapshot::open_lazy`] opens one without reading its pages.
//!
//! # Examples
//!
//! ```no_run
//! use qob_storage::{snapshot, ColumnMeta, Database, DataType, IndexConfig, TableBuilder, Value};
//!
//! let mut builder = TableBuilder::new("title", vec![ColumnMeta::new("id", DataType::Int)]);
//! builder.push_row(vec![Value::Int(1)]).unwrap();
//! let mut db = Database::new();
//! let title = db.add_table(builder.finish()).unwrap();
//! db.declare_primary_key(title, "id").unwrap();
//! db.build_indexes(IndexConfig::PrimaryKeyOnly).unwrap();
//!
//! // Persist and reload without regenerating.
//! snapshot::save(&db, &[], "db.qob").unwrap();
//! let (reloaded, _meta) = snapshot::load("db.qob").unwrap();
//! assert_eq!(reloaded.total_rows(), db.total_rows());
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod catalog;
pub mod column;
pub mod encoding;
pub mod error;
pub mod index;
pub mod ingest;
pub mod predicate;
pub mod scan;
pub mod snapshot;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use catalog::{Database, IndexConfig, TableId};
pub use column::{ColumnBuilder, EncodedColumn, StringDict};
pub use encoding::{EncodingPolicy, PageData, PageStore, PAGE_ROWS};
pub use error::StorageError;
pub use index::KeyIndex;
pub use ingest::{export_csv_dir, ingest_csv_dir, IngestReport, IngestTableReport, TableSchema};
pub use predicate::{like_match, CmpOp, Predicate};
pub use scan::ScanFilter;
pub use snapshot::{SnapshotMeta, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use table::{ColumnId, ColumnMeta, RowId, Table, TableBuilder};
pub use value::{sql_string_literal, DataType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
