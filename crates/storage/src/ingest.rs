//! Streaming CSV/TSV ingestion into encoded columnar tables.
//!
//! This is the path that loads the real IMDB export (21 tables, millions of
//! rows) — so it is built to never hold a full table in raw form:
//!
//! 1. records are read **streaming** with a quote-state-aware splitter
//!    (quoted fields may contain embedded newlines, `""` and `\"` escaped
//!    quotes, and `\\` escaped backslashes, matching the IMDB CSV export);
//! 2. each record is split, parsed and appended in file order through
//!    [`TableBuilder`], which encodes a page and drops its raw buffer every
//!    [`crate::encoding::PAGE_ROWS`] rows and interns dictionary strings
//!    incrementally (O(1) amortized), so one table holds at most one raw
//!    record plus one pending page per column;
//! 3. [`ingest_csv_dir`] ingests **whole tables in parallel**, up to
//!    `threads` at once, largest file first.  Each table is built by one
//!    worker in record order, so dictionary codes, pages and snapshot bytes
//!    do not depend on the thread count.
//!
//! An **empty unquoted field is NULL** (for both int and string columns);
//! a quoted empty field (`""`) is the empty string.  Integer fields are
//! parsed after trimming ASCII whitespace.
//!
//! [`export_csv_dir`] writes the inverse format, so a generated database can
//! round-trip through CSV — the basis of the ingest smoke tests.

use std::cmp::Reverse;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::catalog::Database;
use crate::encoding::EncodingPolicy;
use crate::error::StorageError;
use crate::table::{ColumnMeta, Table, TableBuilder};
use crate::value::{DataType, Value};
use crate::Result;

/// The schema a CSV file is ingested under: the target table name and its
/// columns in file order.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Target table name; the file is expected at `<name>.csv` or
    /// `<name>.tsv` under the data directory.
    pub name: String,
    /// Columns in the order the file stores them.
    pub columns: Vec<ColumnMeta>,
}

impl TableSchema {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnMeta>) -> Self {
        TableSchema { name: name.into(), columns }
    }
}

/// Per-table ingestion outcome, sized for `BENCH_ingest.json`.
#[derive(Debug, Clone)]
pub struct IngestTableReport {
    /// Table name.
    pub table: String,
    /// Rows ingested.
    pub rows: usize,
    /// Encoded bytes of the column pages.
    pub encoded_bytes: usize,
    /// Bytes the same rows would occupy un-encoded.
    pub plain_bytes: usize,
    /// Approximate dictionary heap bytes.
    pub dict_bytes: usize,
}

/// Whole-ingestion outcome.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// One entry per ingested table.
    pub tables: Vec<IngestTableReport>,
}

impl IngestReport {
    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// Total encoded page bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.encoded_bytes).sum()
    }

    /// Total plain-equivalent bytes.
    pub fn plain_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.plain_bytes).sum()
    }
}

// ---------------------------------------------------------------------------
// Record reading and field splitting
// ---------------------------------------------------------------------------

/// True if `s` ends outside of any quoted region.  `\` escapes the next
/// character (so `\"` never toggles); `""` toggles twice and nets out.
fn quotes_balanced(s: &str) -> bool {
    let mut in_q = false;
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                chars.next();
            }
            '"' => in_q = !in_q,
            _ => {}
        }
    }
    !in_q
}

/// Reads one logical record into `buf` (which is cleared first), joining
/// physical lines while a quoted field spans a newline.  Returns `false` at
/// end of input.
fn read_record(reader: &mut impl BufRead, buf: &mut String) -> std::io::Result<bool> {
    buf.clear();
    loop {
        let n = reader.read_line(buf)?;
        if n == 0 {
            // EOF: a dangling unterminated quoted field still yields the
            // partial record read so far (the parser surfaces it as data).
            return Ok(!buf.is_empty());
        }
        // Strip the line terminator we just read.
        if buf.ends_with('\n') {
            buf.pop();
            if buf.ends_with('\r') {
                buf.pop();
            }
        }
        if quotes_balanced(buf) {
            return Ok(true);
        }
        // The newline was inside a quoted field: restore it and keep going.
        buf.push('\n');
    }
}

fn finish_field(s: String, quoted: bool) -> Option<String> {
    // Empty unquoted field = NULL; `""` = empty string.
    if !quoted && s.is_empty() {
        None
    } else {
        Some(s)
    }
}

/// Splits one record into fields; `None` is NULL.
fn split_record(record: &str, delim: char) -> Vec<Option<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut was_quoted = false;
    let mut in_q = false;
    let mut it = record.chars().peekable();
    loop {
        match it.next() {
            None => {
                fields.push(finish_field(cur, was_quoted));
                return fields;
            }
            Some(c) if !in_q => {
                if c == delim {
                    fields.push(finish_field(std::mem::take(&mut cur), was_quoted));
                    was_quoted = false;
                } else if c == '"' && cur.is_empty() && !was_quoted {
                    in_q = true;
                    was_quoted = true;
                } else {
                    cur.push(c);
                }
            }
            Some('"') => {
                // `""` is an escaped quote; a lone `"` closes the field.
                if it.peek() == Some(&'"') {
                    it.next();
                    cur.push('"');
                } else {
                    in_q = false;
                }
            }
            Some('\\') => {
                // Backslash escapes the next character literally (`\"`, `\\`).
                cur.push(it.next().unwrap_or('\\'));
            }
            Some(c) => cur.push(c),
        }
    }
}

/// Parses one record's fields into typed values for `columns`.
fn parse_record(
    record: &str,
    delim: char,
    table: &str,
    line: usize,
    columns: &[ColumnMeta],
) -> Result<Vec<Value>> {
    let fields = split_record(record, delim);
    if fields.len() != columns.len() {
        return Err(StorageError::Invariant(format!(
            "`{table}` record {line}: {} fields, schema has {} columns",
            fields.len(),
            columns.len()
        )));
    }
    let mut values = Vec::with_capacity(columns.len());
    for (field, meta) in fields.into_iter().zip(columns) {
        let value = match (field, meta.dtype) {
            (None, _) => Value::Null,
            (Some(s), DataType::Int) => {
                let trimmed = s.trim();
                if trimmed.is_empty() {
                    Value::Null
                } else {
                    Value::Int(trimmed.parse::<i64>().map_err(|_| {
                        StorageError::Invariant(format!(
                            "`{table}` record {line}, column `{}`: `{s}` is not an integer",
                            meta.name
                        ))
                    })?)
                }
            }
            (Some(s), DataType::Str) => Value::Str(s),
        };
        values.push(value);
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

/// Ingests one CSV/TSV file into an encoded table, one record at a time in
/// file order.  `delim` is `,` for `.csv` and `\t` for `.tsv`.
pub fn ingest_csv_file(
    path: impl AsRef<Path>,
    schema: &TableSchema,
    delim: char,
    policy: EncodingPolicy,
) -> Result<(Table, IngestTableReport)> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)
        .map_err(|e| StorageError::Io(format!("opening `{}`: {e}", path.display())))?;
    let mut reader = std::io::BufReader::with_capacity(1 << 20, file);
    let mut builder = TableBuilder::with_policy(&schema.name, schema.columns.clone(), policy);
    let mut record = String::new();
    let mut line = 0usize;
    while read_record(&mut reader, &mut record)
        .map_err(|e| StorageError::Io(format!("reading `{}`: {e}", path.display())))?
    {
        line += 1;
        builder.push_row(parse_record(&record, delim, &schema.name, line, &schema.columns)?)?;
    }
    let table = builder.finish();
    let report = table_report(&table);
    Ok((table, report))
}

fn table_report(table: &Table) -> IngestTableReport {
    let mut dict_bytes = 0usize;
    for idx in 0..table.column_count() {
        dict_bytes += table.column(crate::ColumnId(idx as u32)).dict_bytes();
    }
    IngestTableReport {
        table: table.name().to_owned(),
        rows: table.row_count(),
        encoded_bytes: table.encoded_data_bytes(),
        plain_bytes: table.plain_data_bytes(),
        dict_bytes,
    }
}

/// Resolves the data file for `name` under `dir`: `<name>.csv` (comma) or
/// `<name>.tsv` (tab).
fn resolve_data_file(dir: &Path, name: &str) -> Result<(std::path::PathBuf, char)> {
    let csv = dir.join(format!("{name}.csv"));
    if csv.is_file() {
        return Ok((csv, ','));
    }
    let tsv = dir.join(format!("{name}.tsv"));
    if tsv.is_file() {
        return Ok((tsv, '\t'));
    }
    Err(StorageError::Io(format!(
        "no data file for table `{name}`: looked for `{}` and `{}`",
        csv.display(),
        tsv.display()
    )))
}

/// Workers [`ingest_csv_dir`] runs for `files` files under a `threads`
/// bound: at least one, and never more than there are files.
fn worker_count(threads: usize, files: usize) -> usize {
    threads.clamp(1, files.max(1))
}

/// Ingests every schema's file from `dir`, returning the tables in schema
/// order plus the report.
///
/// Up to `threads` scoped workers take whole files, largest first, from a
/// shared cursor; each table is still built record by record, so the result
/// does not depend on `threads`.  When files fail, the error returned is
/// that of the first failing file in schema order.
pub fn ingest_csv_dir(
    dir: impl AsRef<Path>,
    schemas: &[TableSchema],
    policy: EncodingPolicy,
    threads: usize,
) -> Result<(Vec<Table>, IngestReport)> {
    let dir = dir.as_ref();
    let file_len = |schema: &TableSchema| {
        let path = resolve_data_file(dir, &schema.name).ok()?.0;
        Some(std::fs::metadata(path).ok()?.len())
    };
    let mut order: Vec<usize> = (0..schemas.len()).collect();
    order.sort_by_cached_key(|&i| Reverse(file_len(&schemas[i])));
    let cursor = AtomicUsize::new(0);
    let ingest_one = |i: usize| {
        let (path, delim) = resolve_data_file(dir, &schemas[i].name)?;
        ingest_csv_file(path, &schemas[i], delim, policy)
    };
    let mut results: Vec<Option<Result<(Table, IngestTableReport)>>> =
        schemas.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..worker_count(threads, schemas.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        done.push((i, ingest_one(i)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (i, result) in worker.join().expect("ingest worker panicked") {
                results[i] = Some(result);
            }
        }
    });
    let mut tables = Vec::with_capacity(schemas.len());
    let mut report = IngestReport::default();
    for result in results {
        let (table, table_report) = result.expect("every file is taken by one worker")?;
        report.tables.push(table_report);
        tables.push(table);
    }
    Ok((tables, report))
}

// ---------------------------------------------------------------------------
// CSV export (the inverse path, used by round-trip tests and fixtures)
// ---------------------------------------------------------------------------

fn needs_quoting(s: &str, delim: char) -> bool {
    s.is_empty() || s.chars().any(|c| c == delim || c == '"' || c == '\n' || c == '\r' || c == '\\')
}

fn write_field(out: &mut impl Write, value: &Value, delim: char) -> std::io::Result<()> {
    match value {
        Value::Null => Ok(()),
        Value::Int(v) => write!(out, "{v}"),
        Value::Str(s) => {
            if needs_quoting(s, delim) {
                out.write_all(b"\"")?;
                for c in s.chars() {
                    match c {
                        '"' => out.write_all(b"\"\"")?,
                        '\\' => out.write_all(b"\\\\")?,
                        _ => write!(out, "{c}")?,
                    }
                }
                out.write_all(b"\"")
            } else {
                out.write_all(s.as_bytes())
            }
        }
    }
}

/// Writes every table of `db` to `<dir>/<table>.csv` in the format
/// [`ingest_csv_dir`] reads (NULL = empty unquoted field, quotes doubled,
/// backslashes escaped).
pub fn export_csv_dir(db: &Database, dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)
        .map_err(|e| StorageError::Io(format!("creating `{}`: {e}", dir.display())))?;
    for (_, table) in db.tables() {
        let path = dir.join(format!("{}.csv", table.name()));
        export_table(table, &path)
            .map_err(|e| StorageError::Io(format!("writing `{}`: {e}", path.display())))?;
    }
    Ok(())
}

fn export_table(table: &Table, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let column_ids: Vec<crate::ColumnId> =
        (0..table.column_count()).map(|i| crate::ColumnId(i as u32)).collect();
    for row in table.row_ids() {
        for (i, &col) in column_ids.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write_field(&mut out, &table.value(row, col), ',')?;
        }
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Builds an [`crate::column::EncodedColumn`]-backed database from ingested tables — a thin
/// helper so callers assemble catalog + keys themselves when needed.
pub fn database_from_tables(tables: Vec<Table>) -> Result<Database> {
    let mut db = Database::new();
    for table in tables {
        db.add_table(table)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexConfig;
    use crate::ColumnId;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("name", DataType::Str),
                ColumnMeta::new("year", DataType::Int),
            ],
        )
    }

    fn write_and_ingest(content: &str) -> Result<Table> {
        let dir = std::env::temp_dir().join(format!(
            "qob-ingest-test-{}-{}",
            std::process::id(),
            content.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, content).unwrap();
        let result = ingest_csv_file(&path, &schema(), ',', EncodingPolicy::Auto);
        std::fs::remove_dir_all(&dir).ok();
        result.map(|(t, _)| t)
    }

    #[test]
    fn split_record_handles_quotes_escapes_and_nulls() {
        assert_eq!(
            split_record("a,b,c", ','),
            vec![Some("a".into()), Some("b".into()), Some("c".into())]
        );
        // Empty unquoted = NULL; quoted empty = "".
        assert_eq!(split_record("a,,c", ','), vec![Some("a".into()), None, Some("c".into())]);
        assert_eq!(split_record("\"\",b", ','), vec![Some("".into()), Some("b".into())]);
        // Doubled and backslash-escaped quotes.
        assert_eq!(split_record("\"say \"\"hi\"\"\"", ','), vec![Some("say \"hi\"".into())]);
        assert_eq!(split_record("\"say \\\"hi\\\"\"", ','), vec![Some("say \"hi\"".into())]);
        assert_eq!(split_record("\"back\\\\slash\"", ','), vec![Some("back\\slash".into())]);
        // Delimiters and newlines inside quotes are literal.
        assert_eq!(split_record("\"a,b\",c", ','), vec![Some("a,b".into()), Some("c".into())]);
        assert_eq!(split_record("\"two\nlines\"", ','), vec![Some("two\nlines".into())]);
        // Trailing NULL field.
        assert_eq!(split_record("a,", ','), vec![Some("a".into()), None]);
    }

    #[test]
    fn ingest_parses_types_nulls_and_embedded_newlines() {
        let content = "1,\"The Matrix\",1999\n2,\"Two\nLine Title\",\n3,,2003\n";
        let t = write_and_ingest(content).unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.value(0, ColumnId(1)), Value::Str("The Matrix".into()));
        assert_eq!(t.value(1, ColumnId(1)), Value::Str("Two\nLine Title".into()));
        assert_eq!(t.value(1, ColumnId(2)), Value::Null);
        assert_eq!(t.value(2, ColumnId(1)), Value::Null);
        assert_eq!(t.value(2, ColumnId(2)), Value::Int(2003));
    }

    #[test]
    fn bad_integers_and_arity_are_reported_with_context() {
        let err = write_and_ingest("1,x,notayear\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("notayear") && msg.contains("year"), "{msg}");
        let err = write_and_ingest("1,x\n").unwrap_err();
        assert!(err.to_string().contains("2 fields"), "{err}");
    }

    #[test]
    fn workers_are_bounded_by_the_file_count() {
        assert_eq!(worker_count(0, 21), 1);
        assert_eq!(worker_count(1, 21), 1);
        assert_eq!(worker_count(4, 21), 4);
        assert_eq!(worker_count(8192, 21), 21);
        assert_eq!(worker_count(usize::MAX, 21), 21);
        assert_eq!(worker_count(4, 1), 1);
        assert_eq!(worker_count(4, 0), 1);
    }

    #[test]
    fn the_first_failing_file_in_schema_order_wins_at_every_thread_count() {
        let dir = std::env::temp_dir().join(format!("qob-ingest-errors-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let schemas: Vec<TableSchema> = ["a", "b", "c", "d"].map(schema_named).into();
        std::fs::write(dir.join("a.csv"), "1,x,1999\n").unwrap();
        std::fs::write(dir.join("b.csv"), "1,x,1999\n2,y,notayear\n").unwrap();
        std::fs::write(dir.join("c.csv"), "1,x,1999\n").unwrap();
        // The later bad file is the largest, so it is taken first.
        let arity = "1,x,1999\n".repeat(1000) + "2,y\n";
        std::fs::write(dir.join("d.csv"), arity).unwrap();
        for threads in [1, 4] {
            let err = ingest_csv_dir(&dir, &schemas, EncodingPolicy::Auto, threads).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("`b` record 2") && msg.contains("notayear"), "{threads}: {msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_then_ingest_roundtrips_exactly() {
        let mut b = TableBuilder::new(
            "t",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("name", DataType::Str),
                ColumnMeta::new("year", DataType::Int),
            ],
        );
        let tricky = [
            "plain",
            "with, comma",
            "with \"quotes\"",
            "back\\slash",
            "two\nlines",
            "",
            "trailing space ",
        ];
        for (i, s) in tricky.iter().enumerate() {
            let year = if i % 2 == 0 { Value::Int(1990 + i as i64) } else { Value::Null };
            b.push_row(vec![Value::Int(i as i64), Value::Str(s.to_string()), year]).unwrap();
        }
        b.push_row(vec![Value::Int(99), Value::Null, Value::Null]).unwrap();
        let original = b.finish();

        let mut db = Database::new();
        db.add_table(original.clone()).unwrap();
        let dir = std::env::temp_dir().join(format!("qob-export-test-{}", std::process::id()));
        export_csv_dir(&db, &dir).unwrap();
        let (tables, report) =
            ingest_csv_dir(&dir, &[schema_named("t")], EncodingPolicy::Auto, 2).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let back = &tables[0];
        assert_eq!(back.row_count(), original.row_count());
        for row in original.row_ids() {
            for c in 0..original.column_count() as u32 {
                assert_eq!(
                    back.value(row, ColumnId(c)),
                    original.value(row, ColumnId(c)),
                    "row {row} col {c}"
                );
            }
        }
        assert_eq!(report.total_rows(), original.row_count());
        assert!(report.encoded_bytes() > 0 && report.plain_bytes() > 0);
    }

    fn schema_named(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("name", DataType::Str),
                ColumnMeta::new("year", DataType::Int),
            ],
        )
    }

    #[test]
    fn missing_file_is_a_descriptive_error() {
        let dir = std::env::temp_dir().join(format!("qob-ingest-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = ingest_csv_dir(&dir, &[schema()], EncodingPolicy::Auto, 1).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.to_string().contains("t.csv"), "{err}");
    }

    #[test]
    fn tsv_files_are_recognised() {
        let dir = std::env::temp_dir().join(format!("qob-ingest-tsv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.tsv"), "1\tname one\t1999\n").unwrap();
        let (tables, _) = ingest_csv_dir(&dir, &[schema()], EncodingPolicy::Auto, 1).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(tables[0].row_count(), 1);
        assert_eq!(tables[0].value(0, ColumnId(1)), Value::Str("name one".into()));
    }

    #[test]
    fn ingested_db_plugs_into_the_catalog() {
        let dir = std::env::temp_dir().join(format!("qob-ingest-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.csv"), "1,a,2000\n2,b,2001\n").unwrap();
        let (tables, _) = ingest_csv_dir(&dir, &[schema()], EncodingPolicy::Auto, 1).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let mut db = database_from_tables(tables).unwrap();
        let tid = db.table_id("t").unwrap();
        db.declare_primary_key(tid, "id").unwrap();
        db.build_indexes(IndexConfig::PrimaryKeyOnly).unwrap();
        assert_eq!(db.index_count(), 1);
    }
}
