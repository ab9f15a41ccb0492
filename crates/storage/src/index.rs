//! Unclustered secondary indexes.
//!
//! The paper's experiments hinge on the available *access paths*: only
//! primary-key indexes, or primary plus foreign-key indexes.  Joins in JOB are
//! always on integer surrogate keys, so indexes are built over integer
//! columns only, and the one access they serve is the equality lookup of an
//! index-nested-loop join.
//!
//! A [`KeyIndex`] is three flat vectors: the distinct non-NULL keys in
//! ascending order, one offset per key into the row ids, and the row ids
//! grouped by key (ascending within a key).  That is 4 bytes per indexed row
//! plus 12 per distinct key — 16 bytes per entry on a primary key — with no
//! per-key allocation.

use crate::encoding::PAGE_ROWS;
use crate::error::StorageError;
use crate::table::{ColumnId, RowId, Table};
use crate::value::DataType;
use crate::Result;

/// An equality index mapping key values to the row ids containing them.
#[derive(Debug)]
pub struct KeyIndex {
    /// Distinct non-NULL keys, ascending.
    keys: Vec<i64>,
    /// `keys.len() + 1` offsets: the rows of `keys[i]` are
    /// `rows[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Row ids grouped by key, ascending within each key.
    rows: Vec<RowId>,
}

impl KeyIndex {
    /// Builds an index over the integer column `column` of `table`, decoding
    /// it a page at a time.
    pub fn build(table: &Table, column: ColumnId) -> Result<Self> {
        let data = table.column(column);
        if data.data_type() != DataType::Int {
            return Err(StorageError::UnsupportedIndexColumn {
                column: table.column_meta(column).name.clone(),
            });
        }
        let mut pairs: Vec<(i64, RowId)> = Vec::with_capacity(data.non_null_count());
        let mut scratch = Vec::with_capacity(PAGE_ROWS.min(data.len()));
        for p in 0..data.page_count() {
            scratch.clear();
            data.int_page(p).decode_into(&mut scratch);
            let base = p * PAGE_ROWS;
            for (i, &key) in scratch.iter().enumerate() {
                if data.validity().get(base + i) {
                    pairs.push((key, (base + i) as RowId));
                }
            }
        }
        pairs.sort_unstable();
        let distinct = pairs.chunk_by(|a, b| a.0 == b.0).count();
        let mut index = KeyIndex {
            keys: Vec::with_capacity(distinct),
            starts: Vec::with_capacity(distinct + 1),
            rows: Vec::with_capacity(pairs.len()),
        };
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            index.keys.push(group[0].0);
            index.starts.push(index.rows.len() as u32);
            index.rows.extend(group.iter().map(|&(_, row)| row));
        }
        index.starts.push(index.rows.len() as u32);
        Ok(index)
    }

    /// Row ids whose key equals `key`, ascending (empty slice if none).
    #[inline]
    pub fn lookup(&self, key: i64) -> &[RowId] {
        match self.keys.binary_search(&key) {
            Ok(i) => &self.rows[self.starts[i] as usize..self.starts[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnMeta, TableBuilder};
    use crate::value::{DataType, Value};

    fn fk_table() -> Table {
        let mut b = TableBuilder::new(
            "movie_companies",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("movie_id", DataType::Int),
                ColumnMeta::new("note", DataType::Str),
            ],
        );
        // movie_id fan-out: movie 10 has three rows, movie 20 has one, one null.
        let rows = [(1, Some(10)), (2, Some(10)), (3, Some(20)), (4, Some(10)), (5, None)];
        for (id, mid) in rows {
            b.push_row(vec![
                Value::Int(id),
                mid.map(Value::Int).unwrap_or(Value::Null),
                Value::Str(format!("note{id}")),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn lookup_groups_rows_by_key() {
        let t = fk_table();
        let idx = KeyIndex::build(&t, t.column_id("movie_id").unwrap()).unwrap();
        assert_eq!(idx.lookup(10), &[0, 1, 3]);
        assert_eq!(idx.lookup(20), &[2]);
        assert!(idx.lookup(15).is_empty());
        assert!(idx.lookup(99).is_empty());
        assert!(idx.lookup(i64::MIN).is_empty());
        let pk = KeyIndex::build(&t, t.column_id("id").unwrap()).unwrap();
        assert!((1..=5).all(|id| pk.lookup(id) == [id as RowId - 1]));
    }

    #[test]
    fn rejects_string_column() {
        let t = fk_table();
        let err = KeyIndex::build(&t, t.column_id("note").unwrap()).unwrap_err();
        assert!(matches!(err, StorageError::UnsupportedIndexColumn { .. }));
    }

    #[test]
    fn empty_table_index() {
        let t = TableBuilder::new("empty", vec![ColumnMeta::new("id", DataType::Int)]).finish();
        let idx = KeyIndex::build(&t, ColumnId(0)).unwrap();
        assert!(idx.lookup(0).is_empty());
    }
}
