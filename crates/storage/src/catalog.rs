//! The database catalog: tables, key declarations and index configurations.
//!
//! The paper studies three *physical designs*: no indexes, primary-key
//! indexes only, and primary- plus foreign-key indexes.  [`IndexConfig`]
//! selects one of these and [`Database::build_indexes`] declares the
//! corresponding access paths; each index is built on its first use.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::error::StorageError;
use crate::index::KeyIndex;
use crate::table::{ColumnId, Table};
use crate::Result;

/// Identifier of a table within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl TableId {
    /// The table position as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which indexes to build — the three physical designs studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexConfig {
    /// No indexes at all (Figure 9, "no indexes").
    NoIndexes,
    /// Indexes on primary keys only (most experiments of Section 4.1/4.2).
    #[default]
    PrimaryKeyOnly,
    /// Indexes on primary keys and all foreign keys (Section 4.3 onwards).
    PrimaryAndForeignKey,
}

impl IndexConfig {
    /// Short label used when printing experiment results.
    pub fn label(&self) -> &'static str {
        match self {
            IndexConfig::NoIndexes => "no indexes",
            IndexConfig::PrimaryKeyOnly => "PK indexes",
            IndexConfig::PrimaryAndForeignKey => "PK + FK indexes",
        }
    }

    /// All configurations, in the order the paper reports them.
    pub fn all() -> [IndexConfig; 3] {
        [IndexConfig::NoIndexes, IndexConfig::PrimaryKeyOnly, IndexConfig::PrimaryAndForeignKey]
    }
}

/// A declared foreign-key relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKeyDef {
    /// The referencing column (in the declaring table).
    pub column: ColumnId,
    /// The referenced table (whose primary key the column points to).
    pub references: TableId,
}

/// Key metadata for one table.
#[derive(Debug, Clone, Default)]
pub struct KeyInfo {
    /// The primary key column, if declared.
    pub primary_key: Option<ColumnId>,
    /// Declared foreign keys.
    pub foreign_keys: Vec<ForeignKeyDef>,
}

/// An in-memory database: a set of tables, key declarations, and the indexes
/// of the currently selected physical design.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    keys: Vec<KeyInfo>,
    index_config: IndexConfig,
    /// The declared indexes of the physical design, each built on its first
    /// [`Database::key_index`] call.
    indexes: HashMap<(TableId, ColumnId), OnceLock<KeyIndex>>,
}

impl Database {
    /// Creates an empty database with the default (primary-key-only) index
    /// configuration; no indexes exist until [`Database::build_indexes`] runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table. Fails if a table with the same name exists.
    pub fn add_table(&mut self, table: Table) -> Result<TableId> {
        if self.by_name.contains_key(table.name()) {
            return Err(StorageError::DuplicateTable(table.name().to_owned()));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(table.name().to_owned(), id);
        self.tables.push(table);
        self.keys.push(KeyInfo::default());
        Ok(id)
    }

    /// Declares the primary key column of a table.
    pub fn declare_primary_key(&mut self, table: TableId, column: &str) -> Result<()> {
        let col = self.table(table).column_id_or_err(column)?;
        self.keys[table.index()].primary_key = Some(col);
        Ok(())
    }

    /// Declares a foreign-key relationship `table.column -> references`.
    pub fn declare_foreign_key(
        &mut self,
        table: TableId,
        column: &str,
        references: TableId,
    ) -> Result<()> {
        let col = self.table(table).column_id_or_err(column)?;
        self.keys[table.index()].foreign_keys.push(ForeignKeyDef { column: col, references });
        Ok(())
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.row_count()).sum()
    }

    /// Looks up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a table id by name, with a descriptive error.
    pub fn table_id_or_err(&self, name: &str) -> Result<TableId> {
        self.table_id(name).ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// The table with the given id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// The table with the given name, if present.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.table_id(name).map(|id| self.table(id))
    }

    /// Iterates over `(id, table)` pairs.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables.iter().enumerate().map(|(i, t)| (TableId(i as u32), t))
    }

    /// Key metadata of a table.
    pub fn keys(&self, id: TableId) -> &KeyInfo {
        &self.keys[id.index()]
    }

    /// The currently built index configuration.
    pub fn index_config(&self) -> IndexConfig {
        self.index_config
    }

    /// Declares the indexes of the given physical design, replacing any
    /// previous ones.  Each index column is checked here; the index itself is
    /// built on its first [`Database::key_index`] call.
    pub fn build_indexes(&mut self, config: IndexConfig) -> Result<()> {
        self.indexes.clear();
        self.index_config = config;
        if config == IndexConfig::NoIndexes {
            return Ok(());
        }
        for (idx, key_info) in self.keys.iter().enumerate() {
            let tid = TableId(idx as u32);
            let table = &self.tables[idx];
            let fks = key_info.foreign_keys.iter().map(|fk| fk.column);
            let fks = fks.filter(|_| config == IndexConfig::PrimaryAndForeignKey);
            for column in key_info.primary_key.into_iter().chain(fks) {
                KeyIndex::check_column(table, column)?;
                self.indexes.entry((tid, column)).or_default();
            }
        }
        Ok(())
    }

    /// The index on `(table, column)` under the current physical design,
    /// built on the first call (concurrent first calls build it once).
    pub fn key_index(&self, table: TableId, column: ColumnId) -> Option<&KeyIndex> {
        let cell = self.indexes.get(&(table, column))?;
        Some(cell.get_or_init(|| {
            KeyIndex::build(self.table(table), column).expect("index column checked when declared")
        }))
    }

    /// True if an index exists on `(table, column)`.
    pub fn has_index(&self, table: TableId, column: ColumnId) -> bool {
        self.indexes.contains_key(&(table, column))
    }

    /// Number of indexes of the physical design, built or not.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnMeta, TableBuilder};
    use crate::value::{DataType, Value};

    fn small_db() -> Database {
        let mut db = Database::new();

        let mut title = TableBuilder::new(
            "title",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("title", DataType::Str)],
        );
        for i in 0..10 {
            title.push_row(vec![Value::Int(i), Value::Str(format!("movie {i}"))]).unwrap();
        }
        let title_id = db.add_table(title.finish()).unwrap();

        let mut mc = TableBuilder::new(
            "movie_companies",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("movie_id", DataType::Int)],
        );
        for i in 0..30 {
            mc.push_row(vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
        }
        let mc_id = db.add_table(mc.finish()).unwrap();

        db.declare_primary_key(title_id, "id").unwrap();
        db.declare_primary_key(mc_id, "id").unwrap();
        db.declare_foreign_key(mc_id, "movie_id", title_id).unwrap();
        db
    }

    #[test]
    fn add_and_lookup_tables() {
        let db = small_db();
        assert_eq!(db.table_count(), 2);
        assert_eq!(db.total_rows(), 40);
        let tid = db.table_id("title").unwrap();
        assert_eq!(db.table(tid).name(), "title");
        assert!(db.table_id("missing").is_none());
        assert!(db.table_id_or_err("missing").is_err());
        assert!(db.table_by_name("movie_companies").is_some());
        let names: Vec<&str> = db.tables().map(|(_, t)| t.name()).collect();
        assert_eq!(names, vec!["title", "movie_companies"]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = small_db();
        let dup = TableBuilder::new("title", vec![ColumnMeta::new("id", DataType::Int)]).finish();
        assert!(matches!(db.add_table(dup), Err(StorageError::DuplicateTable(_))));
    }

    #[test]
    fn key_declarations() {
        let db = small_db();
        let mc = db.table_id("movie_companies").unwrap();
        let title = db.table_id("title").unwrap();
        let keys = db.keys(mc);
        assert!(keys.primary_key.is_some());
        assert_eq!(keys.foreign_keys.len(), 1);
        assert_eq!(keys.foreign_keys[0].references, title);
    }

    #[test]
    fn index_configurations() {
        let mut db = small_db();

        db.build_indexes(IndexConfig::NoIndexes).unwrap();
        assert_eq!(db.index_count(), 0);
        assert_eq!(db.index_config(), IndexConfig::NoIndexes);

        db.build_indexes(IndexConfig::PrimaryKeyOnly).unwrap();
        assert_eq!(db.index_count(), 2, "one PK index per table");
        let mc = db.table_id("movie_companies").unwrap();
        let mc_movie_id = db.table(mc).column_id("movie_id").unwrap();
        assert!(!db.has_index(mc, mc_movie_id), "FK column not indexed under PK-only");

        db.build_indexes(IndexConfig::PrimaryAndForeignKey).unwrap();
        assert_eq!(db.index_count(), 3);
        assert!(db.has_index(mc, mc_movie_id));
        assert_eq!(db.key_index(mc, mc_movie_id).unwrap().lookup(3).len(), 3);
    }

    #[test]
    fn rebuilding_indexes_replaces_old_ones() {
        let mut db = small_db();
        db.build_indexes(IndexConfig::PrimaryAndForeignKey).unwrap();
        assert_eq!(db.index_count(), 3);
        db.build_indexes(IndexConfig::PrimaryKeyOnly).unwrap();
        assert_eq!(db.index_count(), 2);
        db.build_indexes(IndexConfig::NoIndexes).unwrap();
        assert_eq!(db.index_count(), 0);
    }

    fn built_indexes(db: &Database) -> usize {
        db.indexes.values().filter(|cell| cell.get().is_some()).count()
    }

    #[test]
    fn indexes_build_once_on_first_use() {
        let mut db = small_db();
        db.build_indexes(IndexConfig::PrimaryAndForeignKey).unwrap();
        let path = std::env::temp_dir().join(format!("qob-lazy-index-{}.qob", std::process::id()));
        crate::snapshot::save(&db, &[], &path).unwrap();
        let (loaded, _) = crate::snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mc = loaded.table_id("movie_companies").unwrap();
        let movie_id = loaded.table(mc).column_id("movie_id").unwrap();
        assert_eq!(loaded.index_count(), 3);
        assert!(loaded.has_index(mc, movie_id));
        assert_eq!(built_indexes(&loaded), 0, "load builds no index");

        let start = std::sync::Barrier::new(4);
        let first: Vec<&KeyIndex> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        loaded.key_index(mc, movie_id).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(first.iter().all(|index| std::ptr::eq(*index, first[0])));
        assert_eq!(built_indexes(&loaded), 1);
        let eager = KeyIndex::build(loaded.table(mc), movie_id).unwrap();
        for key in -1..12 {
            assert_eq!(first[0].lookup(key), eager.lookup(key), "key {key}");
        }
    }

    #[test]
    fn an_index_on_a_string_column_fails_when_declared() {
        let mut db = small_db();
        let title = db.table_id("title").unwrap();
        db.declare_primary_key(title, "title").unwrap();
        let err = db.build_indexes(IndexConfig::PrimaryKeyOnly).unwrap_err();
        assert!(matches!(err, StorageError::UnsupportedIndexColumn { .. }), "{err}");
    }

    #[test]
    fn index_config_labels_and_all() {
        assert_eq!(IndexConfig::all().len(), 3);
        assert_eq!(IndexConfig::NoIndexes.label(), "no indexes");
        assert_eq!(IndexConfig::PrimaryKeyOnly.label(), "PK indexes");
        assert_eq!(IndexConfig::PrimaryAndForeignKey.label(), "PK + FK indexes");
        assert_eq!(IndexConfig::default(), IndexConfig::PrimaryKeyOnly);
    }
}
