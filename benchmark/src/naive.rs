//! A deliberately naive reference evaluator over the fixture's CSV files.
//!
//! It reads the CSV text itself, keeps rows as plain `Option<i64>` /
//! `Option<String>` cells and evaluates predicates one row at a time — sharing
//! nothing with `qob-storage`'s encodings, `qob-exec`'s scans or
//! `qob-storage`'s `LIKE`.  `--bless` uses it to compute the `scan_filter`
//! answers and refuses to pin them unless the engine agrees.

use std::collections::HashSet;
use std::path::Path;

/// One column of a naive table.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer cells.
    Int(Vec<Option<i64>>),
    /// String cells.
    Str(Vec<Option<String>>),
}

/// A table held as plain cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    names: Vec<String>,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Reads `<dir>/<name>.csv`; `schema` gives each column's name and whether
    /// it is an integer column.
    pub fn read(dir: &Path, name: &str, schema: &[(String, bool)]) -> Result<Table, String> {
        let path = dir.join(format!("{name}.csv"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("`{}`: {e}", path.display()))?;
        let mut columns: Vec<Column> = schema
            .iter()
            .map(
                |(_, is_int)| {
                    if *is_int {
                        Column::Int(Vec::new())
                    } else {
                        Column::Str(Vec::new())
                    }
                },
            )
            .collect();
        let mut rows = 0;
        for record in parse_csv(&text) {
            if record.len() != schema.len() {
                return Err(format!(
                    "`{}` row {}: {} fields",
                    path.display(),
                    rows + 1,
                    record.len()
                ));
            }
            for (column, field) in columns.iter_mut().zip(record) {
                match column {
                    Column::Int(cells) => cells.push(match field {
                        None => None,
                        Some(text) => Some(text.trim().parse::<i64>().map_err(|e| {
                            format!("`{}` row {}: `{text}`: {e}", path.display(), rows + 1)
                        })?),
                    }),
                    Column::Str(cells) => cells.push(field),
                }
            }
            rows += 1;
        }
        Ok(Table {
            name: name.to_owned(),
            names: schema.iter().map(|(n, _)| n.clone()).collect(),
            columns,
            rows,
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn column(&self, name: &str) -> &Column {
        let index = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("naive table `{}` has no column `{name}`", self.name));
        &self.columns[index]
    }

    /// The cells of an integer column.
    pub fn ints(&self, name: &str) -> &[Option<i64>] {
        match self.column(name) {
            Column::Int(cells) => cells,
            Column::Str(_) => panic!("`{}.{name}` is not an integer column", self.name),
        }
    }

    /// The cells of a string column.
    pub fn strs(&self, name: &str) -> &[Option<String>] {
        match self.column(name) {
            Column::Str(cells) => cells,
            Column::Int(_) => panic!("`{}.{name}` is not a string column", self.name),
        }
    }
}

/// Splits CSV text into records of fields.  An unquoted empty field is NULL
/// (`None`), a quoted one the empty string; inside quotes `""` is a quote,
/// `\\` a backslash, and newlines belong to the field.
fn parse_csv(text: &str) -> Vec<Vec<Option<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<Option<String>> = Vec::new();
    let mut field = String::new();
    let mut quoted = false; // the current field had an opening quote
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    fn end_field(record: &mut Vec<Option<String>>, field: &mut String, quoted: &mut bool) {
        let value = std::mem::take(field);
        record.push(if value.is_empty() && !*quoted { None } else { Some(value) });
        *quoted = false;
    }
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                '\\' => field.push(chars.next().unwrap_or('\\')),
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() && !quoted => {
                quoted = true;
                in_quotes = true;
            }
            ',' => end_field(&mut record, &mut field, &mut quoted),
            '\n' => {
                end_field(&mut record, &mut field, &mut quoted);
                records.push(std::mem::take(&mut record));
            }
            '\r' => {}
            other => field.push(other),
        }
    }
    if !field.is_empty() || quoted || !record.is_empty() {
        end_field(&mut record, &mut field, &mut quoted);
        records.push(record);
    }
    records
}

/// A predicate on one column, in the forms `scan_filter` issues.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col BETWEEN lo AND hi`.
    IntBetween(String, i64, i64),
    /// `col = v` / `col IN (v, …)` on an integer column.
    IntIn(String, Vec<i64>),
    /// `col = 'v'` / `col IN ('v', …)` on a string column.
    StrIn(String, Vec<String>),
    /// `col LIKE 'pattern'`.
    Like(String, String),
    /// `col IS NULL`.
    IsNull(String),
}

impl Pred {
    /// The SQL text of the predicate on `alias`.
    pub fn sql(&self, alias: &str) -> String {
        let quote = |s: &String| format!("'{}'", s.replace('\'', "''"));
        match self {
            Pred::IntBetween(col, lo, hi) => format!("{alias}.{col} BETWEEN {lo} AND {hi}"),
            Pred::IntIn(col, values) if values.len() == 1 => {
                format!("{alias}.{col} = {}", values[0])
            }
            Pred::IntIn(col, values) => {
                let list: Vec<String> = values.iter().map(i64::to_string).collect();
                format!("{alias}.{col} IN ({})", list.join(", "))
            }
            Pred::StrIn(col, values) if values.len() == 1 => {
                format!("{alias}.{col} = {}", quote(&values[0]))
            }
            Pred::StrIn(col, values) => {
                let list: Vec<String> = values.iter().map(quote).collect();
                format!("{alias}.{col} IN ({})", list.join(", "))
            }
            Pred::Like(col, pattern) => format!("{alias}.{col} LIKE {}", quote(pattern)),
            Pred::IsNull(col) => format!("{alias}.{col} IS NULL"),
        }
    }

    /// Evaluates the predicate on every row of `table`, one row at a time.
    /// SQL semantics: a comparison with NULL is not true.
    pub fn eval(&self, table: &Table) -> Vec<bool> {
        match self {
            Pred::IntBetween(col, lo, hi) => {
                table.ints(col).iter().map(|c| c.is_some_and(|v| v >= *lo && v <= *hi)).collect()
            }
            Pred::IntIn(col, values) => {
                table.ints(col).iter().map(|c| c.is_some_and(|v| values.contains(&v))).collect()
            }
            Pred::StrIn(col, values) => table
                .strs(col)
                .iter()
                .map(|c| c.as_ref().is_some_and(|v| values.contains(v)))
                .collect(),
            Pred::Like(col, pattern) => {
                let pattern: Vec<char> = pattern.chars().collect();
                table
                    .strs(col)
                    .iter()
                    .map(|c| {
                        c.as_ref().is_some_and(|v| like(&pattern, &v.chars().collect::<Vec<_>>()))
                    })
                    .collect()
            }
            Pred::IsNull(col) => match table.column(col) {
                Column::Int(cells) => cells.iter().map(Option::is_none).collect(),
                Column::Str(cells) => cells.iter().map(Option::is_none).collect(),
            },
        }
    }
}

/// `LIKE` by plain recursion: `%` matches any run, `_` any one character.
fn like(pattern: &[char], text: &[char]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some(('%', rest)) => (0..=text.len()).any(|skip| like(rest, &text[skip..])),
        Some(('_', rest)) => !text.is_empty() && like(rest, &text[1..]),
        Some((c, rest)) => text.first() == Some(c) && like(rest, &text[1..]),
    }
}

/// `SELECT COUNT(*) FROM big [, small] WHERE [big.fk = small.id AND] …`: the
/// rows of `big` passing `big_pred` (all rows without one) whose `fk` — when a small side is given —
/// names a small-side row (by its `id`) passing `small_pred`.  `id` is a
/// primary key, so each big row joins at most one small row.
pub fn count(big: &Table, big_pred: Option<&Pred>, small: Option<(&str, &Table, &Pred)>) -> u64 {
    let big_pass = big_pred.map_or_else(|| vec![true; big.rows()], |pred| pred.eval(big));
    let Some((fk, small, small_pred)) = small else {
        return big_pass.iter().filter(|p| **p).count() as u64;
    };
    let small_pass = small_pred.eval(small);
    let ids: HashSet<i64> = small
        .ints("id")
        .iter()
        .zip(&small_pass)
        .filter_map(|(id, pass)| id.filter(|_| *pass))
        .collect();
    big.ints(fk)
        .iter()
        .zip(&big_pass)
        .filter(|(key, pass)| **pass && key.is_some_and(|k| ids.contains(&k)))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_fields_nulls_quotes_and_escapes() {
        let records = parse_csv("1,,\"\"\n2,\"a,\"\"b\"\"\\\\c\nd\",x\n");
        assert_eq!(
            records,
            vec![
                vec![Some("1".into()), None, Some(String::new())],
                vec![Some("2".into()), Some("a,\"b\"\\c\nd".into()), Some("x".into())],
            ]
        );
        assert_eq!(parse_csv("7,8"), vec![vec![Some("7".into()), Some("8".into())]]);
        assert!(parse_csv("").is_empty());
    }

    #[test]
    fn like_handles_wildcards() {
        let m =
            |p: &str, t: &str| like(&p.chars().collect::<Vec<_>>(), &t.chars().collect::<Vec<_>>());
        assert!(m("Dra%", "Drama") && m("%voice%", "(voice: English version)") && m("_b%", "abc"));
        assert!(m("%", "") && m("abc", "abc"));
        assert!(!m("Dra%", "drama") && !m("_", "") && !m("abc", "abcd") && !m("%x", "xy"));
    }

    fn tables() -> (Table, Table) {
        let dir = std::env::temp_dir().join(format!("qob-benchmark-naive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("small.csv"), "1,a\n2,b\n3,\n").unwrap();
        std::fs::write(dir.join("big.csv"), "1,1,10\n2,1,20\n3,2,30\n4,,40\n5,3,\n6,9,60\n")
            .unwrap();
        let col = |n: &str, is_int| (n.to_owned(), is_int);
        let small = Table::read(&dir, "small", &[col("id", true), col("tag", false)]).unwrap();
        let big =
            Table::read(&dir, "big", &[col("id", true), col("small_id", true), col("v", true)])
                .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (big, small)
    }

    #[test]
    fn counts_follow_sql_null_semantics() {
        let (big, small) = tables();
        assert_eq!((big.rows(), small.rows()), (6, 3));
        assert_eq!(count(&big, Some(&Pred::IntBetween("v".into(), 10, 40)), None), 4);
        assert_eq!(count(&big, Some(&Pred::IsNull("v".into())), None), 1);
        assert_eq!(count(&big, Some(&Pred::IntIn("small_id".into(), vec![1, 9])), None), 3);
        assert_eq!(count(&small, Some(&Pred::StrIn("tag".into(), vec!["a".into()])), None), 1);
        // Join: NULL and dangling foreign keys never match; the small side's
        // NULL tag fails its predicate.
        let tagged = Pred::Like("tag".into(), "%".into());
        assert_eq!(count(&big, None, Some(("small_id", &small, &tagged))), 3);
        assert_eq!(count(&big, None, Some(("small_id", &small, &Pred::IsNull("tag".into())))), 1);
    }

    #[test]
    fn predicates_render_as_sql() {
        assert_eq!(Pred::IntIn("role_id".into(), vec![3]).sql("ci"), "ci.role_id = 3");
        assert_eq!(Pred::IntIn("role_id".into(), vec![1, 2]).sql("ci"), "ci.role_id IN (1, 2)");
        assert_eq!(
            Pred::StrIn("info".into(), vec!["O'Neil".into()]).sql("mi"),
            "mi.info = 'O''Neil'"
        );
        assert_eq!(Pred::Like("note".into(), "(v%".into()).sql("ci"), "ci.note LIKE '(v%'");
        assert_eq!(Pred::IntBetween("id".into(), 1, 5).sql("t"), "t.id BETWEEN 1 AND 5");
        assert_eq!(Pred::IsNull("note".into()).sql("ci"), "ci.note IS NULL");
    }
}
