//! Base-table predicates and their evaluation.
//!
//! JOB queries restrict base tables with equality, range, `IN`, `LIKE`,
//! disjunctive and null predicates.  This module represents those predicates
//! and defines their semantics, row by row ([`Predicate::matches`]); scans
//! evaluate them a page at a time through [`crate::scan`].

use crate::scan::ScanFilter;
use crate::table::{ColumnId, RowId, Table};
use crate::value::DataType;

/// Comparison operators on integer columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to `(lhs, rhs)`.
    #[inline]
    pub fn apply(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A predicate over a single base table.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col <op> literal` on an integer column.
    IntCmp {
        /// Column operand.
        column: ColumnId,
        /// Comparison operator.
        op: CmpOp,
        /// Literal operand.
        value: i64,
    },
    /// `col BETWEEN low AND high` (inclusive) on an integer column.
    IntBetween {
        /// Column operand.
        column: ColumnId,
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// `col = 'literal'` on a string column.
    StrEq {
        /// Column operand.
        column: ColumnId,
        /// Literal operand.
        value: String,
    },
    /// `col IN ('a', 'b', ...)` on a string column.
    StrIn {
        /// Column operand.
        column: ColumnId,
        /// Literal set.
        values: Vec<String>,
    },
    /// `col LIKE 'pattern'` where `%` matches any sequence and `_` any single
    /// character.
    Like {
        /// Column operand.
        column: ColumnId,
        /// LIKE pattern.
        pattern: String,
    },
    /// `col IS NULL`.
    IsNull {
        /// Column operand.
        column: ColumnId,
    },
    /// `col IS NOT NULL`.
    IsNotNull {
        /// Column operand.
        column: ColumnId,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
    /// Disjunction of predicates.
    Or(Vec<Predicate>),
    /// Negation of a predicate.
    Not(Box<Predicate>),
}

/// One cell as a predicate sees it: NULL, or a value of its column's type.
pub(crate) enum Cell<'a> {
    Null,
    Int(i64),
    Str(&'a str),
}

impl Predicate {
    /// Evaluates the predicate for one row of `table` — the row-wise
    /// reference every faster evaluator is tested against.
    pub fn matches(&self, table: &Table, row: RowId) -> bool {
        let row = row as usize;
        self.eval(&|column| {
            let col = table.column(column);
            match col.data_type() {
                DataType::Int => col.int_at(row).map_or(Cell::Null, Cell::Int),
                DataType::Str => col.str_at(row).map_or(Cell::Null, Cell::Str),
            }
        })
    }

    /// Evaluates the predicate over the cells `cell` returns per column: the
    /// one definition of predicate semantics.  A comparison of the wrong type
    /// or against NULL is false.
    pub(crate) fn eval<'a>(&self, cell: &impl Fn(ColumnId) -> Cell<'a>) -> bool {
        match self {
            Predicate::IntCmp { column, op, value } => {
                matches!(cell(*column), Cell::Int(v) if op.apply(v, *value))
            }
            Predicate::IntBetween { column, low, high } => {
                matches!(cell(*column), Cell::Int(v) if *low <= v && v <= *high)
            }
            Predicate::StrEq { column, value } => {
                matches!(cell(*column), Cell::Str(s) if s == value)
            }
            Predicate::StrIn { column, values } => {
                matches!(cell(*column), Cell::Str(s) if values.iter().any(|v| v == s))
            }
            Predicate::Like { column, pattern } => {
                matches!(cell(*column), Cell::Str(s) if like_match(pattern, s))
            }
            Predicate::IsNull { column } => matches!(cell(*column), Cell::Null),
            Predicate::IsNotNull { column } => !matches!(cell(*column), Cell::Null),
            Predicate::And(preds) => preds.iter().all(|p| p.eval(cell)),
            Predicate::Or(preds) => preds.iter().any(|p| p.eval(cell)),
            Predicate::Not(p) => !p.eval(cell),
        }
    }

    /// The rows of `table` matching this predicate: a one-predicate [`ScanFilter`].
    pub fn filter(&self, table: &Table) -> Vec<RowId> {
        let mut rows = Vec::new();
        ScanFilter::compile(table, std::slice::from_ref(self))
            .select(0..table.row_count(), &mut rows);
        rows
    }

    /// All columns referenced by the predicate (with duplicates removed).
    pub fn referenced_columns(&self) -> Vec<ColumnId> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort();
        cols.dedup();
        cols
    }

    fn collect_columns(&self, out: &mut Vec<ColumnId>) {
        match self {
            Predicate::IntCmp { column, .. }
            | Predicate::IntBetween { column, .. }
            | Predicate::StrEq { column, .. }
            | Predicate::StrIn { column, .. }
            | Predicate::Like { column, .. }
            | Predicate::IsNull { column }
            | Predicate::IsNotNull { column } => out.push(*column),
            Predicate::And(preds) | Predicate::Or(preds) => {
                for p in preds {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// True if the predicate is a plain equality (integer or string) — the
    /// kind of predicate histograms and most-common-value lists handle well.
    pub fn is_simple_equality(&self) -> bool {
        matches!(self, Predicate::StrEq { .. } | Predicate::IntCmp { op: CmpOp::Eq, .. })
    }
}

/// SQL `LIKE` matching with `%` (any sequence) and `_` (any single char).
///
/// Matching is case sensitive, as in PostgreSQL, and allocates nothing: a
/// greedy walk over both strings that backtracks to the last `%`.
pub fn like_match(pattern: &str, value: &str) -> bool {
    let (mut p, mut v) = (pattern, value);
    // The pattern after the last `%`, and the value from where that `%`
    // stops absorbing characters.
    let mut star: Option<(&str, &str)> = None;
    while let Some(c) = v.chars().next() {
        let mut rest = p.chars();
        match rest.next() {
            Some(x) if x == '_' || x == c => {
                p = rest.as_str();
                v = &v[c.len_utf8()..];
            }
            Some('%') => {
                p = rest.as_str();
                star = Some((p, v));
            }
            _ => {
                let Some((after, from)) = star else { return false };
                let next = &from[from.chars().next().map_or(0, char::len_utf8)..];
                (p, v) = (after, next);
                star = Some((after, next));
            }
        }
    }
    p.chars().all(|c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnMeta, TableBuilder};
    use crate::value::{DataType, Value};

    /// The rows of `t` matching `p`, through the one scan.
    fn select(t: &Table, p: &Predicate) -> Vec<RowId> {
        let mut rows = Vec::new();
        ScanFilter::compile(t, std::slice::from_ref(p)).select(0..t.row_count(), &mut rows);
        rows
    }

    fn movies() -> Table {
        let mut b = TableBuilder::new(
            "title",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("title", DataType::Str),
                ColumnMeta::new("production_year", DataType::Int),
                ColumnMeta::new("kind", DataType::Str),
            ],
        );
        let rows: Vec<(i64, &str, Option<i64>, &str)> = vec![
            (1, "The Matrix", Some(1999), "movie"),
            (2, "The Matrix Reloaded", Some(2003), "movie"),
            (3, "Some Documentary", Some(2003), "documentary"),
            (4, "Old Short", Some(1950), "short"),
            (5, "Unknown Year", None, "movie"),
            (6, "matrix lowercase", Some(2010), "movie"),
        ];
        for (id, title, year, kind) in rows {
            b.push_row(vec![
                Value::Int(id),
                Value::Str(title.into()),
                year.map(Value::Int).unwrap_or(Value::Null),
                Value::Str(kind.into()),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.apply(3, 3));
        assert!(CmpOp::Ne.apply(3, 4));
        assert!(CmpOp::Lt.apply(3, 4));
        assert!(CmpOp::Le.apply(4, 4));
        assert!(CmpOp::Gt.apply(5, 4));
        assert!(CmpOp::Ge.apply(4, 4));
        assert_eq!(CmpOp::Eq.sql(), "=");
        assert_eq!(CmpOp::Ge.sql(), ">=");
    }

    #[test]
    fn int_cmp_and_between() {
        let t = movies();
        let year = t.column_id("production_year").unwrap();
        let p = Predicate::IntCmp { column: year, op: CmpOp::Gt, value: 2000 };
        assert_eq!(select(&t, &p), vec![1, 2, 5]);
        let p = Predicate::IntBetween { column: year, low: 1999, high: 2003 };
        assert_eq!(select(&t, &p), vec![0, 1, 2]);
        assert_eq!(select(&t, &p).len(), 3);
    }

    #[test]
    fn null_handling_in_comparisons() {
        let t = movies();
        let year = t.column_id("production_year").unwrap();
        // The NULL year row never matches a comparison, like in SQL.
        let p = Predicate::IntCmp { column: year, op: CmpOp::Ne, value: 1999 };
        assert!(!select(&t, &p).contains(&4));
        let p = Predicate::IsNull { column: year };
        assert_eq!(select(&t, &p), vec![4]);
        let p = Predicate::IsNotNull { column: year };
        assert_eq!(select(&t, &p).len(), 5);
    }

    #[test]
    fn string_equality_and_in() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let p = Predicate::StrEq { column: kind, value: "movie".into() };
        assert_eq!(select(&t, &p), vec![0, 1, 4, 5]);
        let p =
            Predicate::StrIn { column: kind, values: vec!["short".into(), "documentary".into()] };
        assert_eq!(select(&t, &p), vec![2, 3]);
        let p = Predicate::StrEq { column: kind, value: "does not exist".into() };
        assert!(select(&t, &p).is_empty());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%Matrix%", "The Matrix Reloaded"));
        assert!(like_match("The %", "The Matrix"));
        assert!(!like_match("The %", "A Matrix"));
        assert!(like_match("%trix", "The Matrix"));
        assert!(like_match("_he Matrix", "The Matrix"));
        assert!(!like_match("_he Matrix", "TThe Matrix"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
        assert!(like_match("a%b%c", "a-x-b-y-c"));
        assert!(!like_match("a%b%c", "a-x-c"));
    }

    #[test]
    fn like_predicate_filters_via_dictionary() {
        let t = movies();
        let title = t.column_id("title").unwrap();
        let p = Predicate::Like { column: title, pattern: "%Matrix%".into() };
        assert_eq!(select(&t, &p), vec![0, 1]);
        // per-row evaluation agrees with the dictionary fast path
        let slow: Vec<RowId> = t.row_ids().filter(|&r| p.matches(&t, r)).collect();
        assert_eq!(select(&t, &p), slow);
    }

    #[test]
    fn and_or_not_composition() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let year = t.column_id("production_year").unwrap();
        let p = Predicate::And(vec![
            Predicate::StrEq { column: kind, value: "movie".into() },
            Predicate::IntCmp { column: year, op: CmpOp::Ge, value: 2003 },
        ]);
        assert_eq!(select(&t, &p), vec![1, 5]);
        let p = Predicate::Or(vec![
            Predicate::StrEq { column: kind, value: "short".into() },
            Predicate::StrEq { column: kind, value: "documentary".into() },
        ]);
        assert_eq!(select(&t, &p), vec![2, 3]);
        let p = Predicate::Not(Box::new(Predicate::StrEq { column: kind, value: "movie".into() }));
        assert_eq!(select(&t, &p), vec![2, 3]);
    }

    #[test]
    fn referenced_columns_deduplicated() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let year = t.column_id("production_year").unwrap();
        let p = Predicate::And(vec![
            Predicate::StrEq { column: kind, value: "movie".into() },
            Predicate::Or(vec![
                Predicate::IntCmp { column: year, op: CmpOp::Ge, value: 2000 },
                Predicate::IntCmp { column: year, op: CmpOp::Lt, value: 1960 },
            ]),
        ]);
        let mut expected = vec![kind, year];
        expected.sort();
        assert_eq!(p.referenced_columns(), expected);
    }

    #[test]
    fn int_fast_paths_agree_with_row_wise_evaluation() {
        let t = movies();
        let year = t.column_id("production_year").unwrap();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for value in [1950, 1999, 2003, 2004, i64::MIN, i64::MAX] {
                let p = Predicate::IntCmp { column: year, op, value };
                let slow: Vec<RowId> = t.row_ids().filter(|&r| p.matches(&t, r)).collect();
                assert_eq!(select(&t, &p), slow, "op {op:?} value {value}");
            }
        }
        let p = Predicate::IntBetween { column: year, low: 2003, high: 1999 };
        assert!(select(&t, &p).is_empty(), "inverted range matches nothing");
    }

    #[test]
    fn string_predicate_on_int_column_matches_nothing() {
        let t = movies();
        let id = t.column_id("id").unwrap();
        let p = Predicate::StrEq { column: id, value: "movie".into() };
        assert!(select(&t, &p).is_empty());
    }

    #[test]
    fn simple_equality_detection() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let year = t.column_id("production_year").unwrap();
        assert!(Predicate::StrEq { column: kind, value: "movie".into() }.is_simple_equality());
        assert!(Predicate::IntCmp { column: year, op: CmpOp::Eq, value: 1999 }.is_simple_equality());
        assert!(
            !Predicate::IntCmp { column: year, op: CmpOp::Gt, value: 1999 }.is_simple_equality()
        );
        assert!(!Predicate::Like { column: kind, pattern: "%m%".into() }.is_simple_equality());
    }

    /// The `Vec<char>` matcher `like_match` replaced, kept as its reference.
    fn like_reference(pattern: &str, value: &str) -> bool {
        let p: Vec<char> = pattern.chars().collect();
        let v: Vec<char> = value.chars().collect();
        let (mut pi, mut vi) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None;
        while vi < v.len() {
            if pi < p.len() && (p[pi] == '_' || p[pi] == v[vi]) {
                pi += 1;
                vi += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star = Some((pi, vi));
                pi += 1;
            } else if let Some((sp, sv)) = star {
                pi = sp + 1;
                vi = sv + 1;
                star = Some((sp, sv + 1));
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '%' {
            pi += 1;
        }
        pi == p.len()
    }

    proptest::proptest! {
        /// The allocation-free matcher agrees with the reference on
        /// multibyte text, `_`, repeated `%` and literal `%`/`_` in values.
        #[test]
        fn like_match_agrees_with_the_reference(
            pattern in "[ab%_é中]{0,8}",
            value in "[abé中%_]{0,10}",
        ) {
            proptest::prop_assert_eq!(
                like_match(&pattern, &value),
                like_reference(&pattern, &value),
                "pattern {:?} value {:?}",
                pattern,
                value
            );
        }
    }
}
