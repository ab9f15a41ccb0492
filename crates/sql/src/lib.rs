//! # qob-sql
//!
//! The SQL frontend of the reproduction: the text path that turns a query in
//! the JOB dialect into a validated [`qob_plan::QuerySpec`] over a
//! [`qob_storage::Database`] catalog, plus the inverse (SQL emission), so
//! specs and text convert both ways.
//!
//! The pipeline is the classical three stages:
//!
//! 1. [`lexer`] — a hand-written lexer (keywords, identifiers, integer and
//!    `''`-escaped string literals, `--` comments); never panics, every
//!    malformed input becomes a spanned [`SqlError`],
//! 2. [`parser`] — recursive descent for single-block select-project-join
//!    queries: `SELECT MIN(...)/COUNT(*) FROM t1 a1, t2 a2 WHERE ...` with
//!    conjunctions of comparisons, `BETWEEN`, `IN`, `LIKE`, `IS [NOT] NULL`,
//!    parenthesised `OR`/`AND` groups and equality join edges,
//! 3. [`binder`] — name resolution against the catalog (unknown table /
//!    alias / column, ambiguous column), literal-vs-column type checking,
//!    join-edge extraction and whole-query validation (connected join
//!    graph) — producing a [`QuerySpec`].  Every query reaches its spec
//!    through [`bind`]: the built-in JOB and TPC-H workloads are SQL files
//!    that `qob-workload` loads through it, like any user script.
//!
//! [`emit::emit_query`] renders any bound spec back to SQL such that
//! `emit → parse → bind` is the identity on specs, and the built-in
//! workload files are that emitter's output — the property the
//! repository-level round-trip suite checks over all 113 JOB queries.
//! Splitting a script into statements (and naming them) is
//! `qob_workload::parse_script`'s job; this crate parses one statement at
//! a time.
//!
//! ```text
//!    SQL text ──lex──▶ tokens ──parse──▶ AST ──bind──▶ QuerySpec
//!       ▲                                                  │
//!       └───────────────────── emit ◀──────────────────────┘
//! ```

pub mod ast;
pub mod binder;
pub mod emit;
pub mod error;
pub mod lexer;
pub mod params;
pub mod parser;
pub mod token;

pub use ast::{Expr, ScriptStatement, SelectExpr, SelectItem, SelectStatement, TableRef};
pub use binder::bind;
pub use emit::{emit_predicate, emit_query, emit_query_join_syntax};
pub use error::{ErrorKind, Span, SqlError};
pub use lexer::tokenize;
pub use params::{param_count, substitute_params, ParamValue};
pub use parser::{parse_script_statement, parse_statement};

use qob_plan::QuerySpec;
use qob_storage::Database;

/// Parses and binds one statement: the full text → [`QuerySpec`] path.
pub fn compile(db: &Database, sql: &str, name: impl Into<String>) -> Result<QuerySpec, SqlError> {
    let stmt = parse_statement(sql)?;
    bind(db, &stmt, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_datagen::{generate_imdb, Scale};

    #[test]
    fn compile_builds_a_spec_against_the_imdb_catalog() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let q = compile(
            &db,
            "SELECT MIN(t.title) FROM title t, movie_companies mc, company_name cn \
             WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
               AND cn.country_code = '[us]' AND t.production_year > 2000",
            "demo",
        )
        .unwrap();
        assert_eq!(q.name, "demo");
        assert_eq!(q.rel_count(), 3);
        assert_eq!(q.join_predicate_count(), 2);
        assert_eq!(q.base_predicate_count(), 2);
        assert!(q.validate(&db).is_ok());
    }

    #[test]
    fn join_syntax_binds_identically_to_the_comma_form() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let comma = compile(
            &db,
            "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
             WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
               AND cn.country_code = '[us]' AND t.production_year > 2000",
            "q",
        )
        .unwrap();
        let joined = compile(
            &db,
            "SELECT COUNT(*) FROM title t \
             INNER JOIN movie_companies mc ON mc.movie_id = t.id \
             INNER JOIN company_name cn ON mc.company_id = cn.id \
             WHERE cn.country_code = '[us]' AND t.production_year > 2000",
            "q",
        )
        .unwrap();
        assert_eq!(comma, joined, "explicit joins bind to the comma-separated form");

        // CROSS JOIN enters a relation whose edges all point forward: mc
        // joins both t and cn only after cn is in scope.
        let crossed = compile(
            &db,
            "SELECT COUNT(*) FROM title t CROSS JOIN company_name cn \
             INNER JOIN movie_companies mc \
               ON mc.movie_id = t.id AND mc.company_id = cn.id \
             WHERE cn.country_code = '[us]' AND t.production_year > 2000",
            "q",
        )
        .unwrap();
        let crossed_comma = compile(
            &db,
            "SELECT COUNT(*) FROM title t, company_name cn, movie_companies mc \
             WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
               AND cn.country_code = '[us]' AND t.production_year > 2000",
            "q",
        )
        .unwrap();
        assert_eq!(crossed, crossed_comma);
    }

    #[test]
    fn join_syntax_emission_rebinds_to_the_normalised_spec() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let q = compile(
            &db,
            "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
             WHERE mc.company_id = cn.id AND mc.movie_id = t.id \
               AND cn.country_code = '[us]'",
            "q",
        )
        .unwrap();
        let sql = emit_query_join_syntax(&db, &q);
        assert!(sql.contains("INNER JOIN"), "emitted:\n{sql}");
        let rebound = compile(&db, &sql, "q").unwrap();
        // Join edges re-order stably by their later endpoint; everything
        // else survives exactly.
        let mut expected = q.clone();
        expected.joins.sort_by_key(|e| e.left.max(e.right));
        assert_eq!(rebound, expected, "emitted:\n{sql}");
    }

    #[test]
    fn unbound_parameters_are_rejected_at_bind() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let err = compile(&db, "SELECT COUNT(*) FROM title t WHERE t.production_year > ?", "q")
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parameter);
        assert!(err.message.contains("PREPARE"), "{}", err.message);
        assert!(err.span.is_some());

        // Substituting first makes the same statement bindable.
        let stmt =
            parse_statement("SELECT COUNT(*) FROM title t WHERE t.production_year > $1").unwrap();
        let filled = substitute_params(&stmt, &[ParamValue::Int(2000)]).unwrap();
        let q = bind(&db, &filled, "q").unwrap();
        assert_eq!(q.base_predicate_count(), 1);
    }

    #[test]
    fn emitted_sql_recompiles_to_an_identical_spec() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let q = compile(
            &db,
            "SELECT COUNT(*) FROM title t, movie_info mi, info_type it \
             WHERE mi.movie_id = t.id AND mi.info_type_id = it.id \
               AND mi.info IN ('Drama', 'Horror') \
               AND (t.title LIKE 'The %' OR t.title LIKE '%Shadow%') \
               AND t.production_year BETWEEN 1990 AND 2005 \
               AND mi.note IS NULL",
            "roundtrip",
        )
        .unwrap();
        let sql = emit_query(&db, &q);
        let q2 = compile(&db, &sql, "roundtrip").unwrap();
        assert_eq!(q, q2, "emit → parse → bind must be the identity\nemitted:\n{sql}");
    }

    #[test]
    fn negated_and_singleton_forms_roundtrip() {
        // The tricky normalisations: singleton integer IN, null-guarded
        // negations, string `<>` — each must survive emit → parse → bind.
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let q = compile(
            &db,
            "SELECT COUNT(*) FROM title t, movie_info mi, info_type it \
             WHERE mi.movie_id = t.id AND mi.info_type_id = it.id \
               AND t.production_year IN (1999) \
               AND t.title NOT LIKE 'The %' \
               AND it.info <> 'rating' \
               AND mi.info NOT IN ('Drama') \
               AND t.production_year NOT BETWEEN 1900 AND 1950",
            "negations",
        )
        .unwrap();
        let sql = emit_query(&db, &q);
        let q2 = compile(&db, &sql, "negations").unwrap();
        assert_eq!(q, q2, "emitted:\n{sql}");
    }
}
