//! The SQL frontend's oracle: the built-in workload files are the
//! emitter's own output.  Every statement of `crates/workload/sql/job.sql`
//! and `tpch.sql` must bind and re-emit to exactly its written text, and
//! every bound spec must survive `emit → parse → bind` unchanged.
//!
//! The 113 JOB queries cover every predicate kind the workload uses
//! (equality, IN, LIKE, ranges, null tests) and join graphs from 3 to 17
//! relations, so this pins the lexer, parser, binder and emitter against
//! each other in both directions.

use qob_datagen::{generate_imdb, generate_tpch, Scale};
use qob_sql::{compile, emit_query, emit_query_join_syntax};
use qob_storage::Database;
use qob_workload::{emit_script, job_queries, load_sql_str, parse_script, JOB_QUERY_COUNT};

const JOB_SQL: &str = include_str!("../crates/workload/sql/job.sql");
const TPCH_SQL: &str = include_str!("../crates/workload/sql/tpch.sql");

/// A script's statements as `(name, text)`, through the one splitter every
/// script takes: each comment becomes a line break and the text is trimmed;
/// everything else is kept verbatim.
fn named_statements(script: &str) -> Vec<(String, String)> {
    let parsed = parse_script(script).unwrap_or_else(|e| panic!("{e}"));
    parsed.into_iter().map(|p| (p.name, p.text)).collect()
}

/// file → bind → emit == file, statement by statement: the first
/// statement that is not in canonical form fails the test by name.
fn assert_file_is_canonical(db: &Database, file: &str, count: usize) {
    let loaded = load_sql_str(db, file).unwrap_or_else(|e| panic!("{e}"));
    let written = named_statements(file);
    let emitted = named_statements(&emit_script(db, &loaded));
    assert_eq!(written.len(), count);
    for ((name, text), (_, canonical)) in written.iter().zip(&emitted) {
        assert_eq!(
            text, canonical,
            "statement `{name}` is not in canonical form; binding and emitting it gives:\n{canonical}"
        );
    }
}

#[test]
fn all_113_job_queries_roundtrip_through_sql() {
    let db = generate_imdb(&Scale::tiny()).unwrap();
    assert_file_is_canonical(&db, JOB_SQL, JOB_QUERY_COUNT);
}

#[test]
fn tpch_queries_roundtrip_through_sql() {
    let db = generate_tpch(&Scale::tiny()).unwrap();
    assert_file_is_canonical(&db, TPCH_SQL, 3);
}

#[test]
fn whole_job_workload_roundtrips_as_one_script() {
    let db = generate_imdb(&Scale::tiny()).unwrap();
    let queries = job_queries(&db);
    let script = emit_script(&db, &queries);
    let reloaded = load_sql_str(&db, &script).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(queries.len(), reloaded.len());
    for (a, b) in queries.iter().zip(&reloaded) {
        assert_eq!(a.name, b.name, "names survive the -- name: convention");
        assert_eq!(a, b);
    }
}

#[test]
fn all_113_job_queries_rewritten_with_explicit_joins_bind_to_the_same_specs() {
    // The dialect-growth pin: every JOB query re-emitted in explicit
    // `INNER JOIN ... ON` / `CROSS JOIN` syntax must parse and bind back to
    // the comma-separated form's spec — identical relations, aliases and
    // predicates, with the join edges stably re-ordered by their later
    // endpoint (the first point at which both sides are in scope).
    let db = generate_imdb(&Scale::tiny()).unwrap();
    let queries = job_queries(&db);
    assert_eq!(queries.len(), JOB_QUERY_COUNT);
    let mut join_syntax_queries = 0;
    for query in &queries {
        let sql = emit_query_join_syntax(&db, query);
        if sql.contains("INNER JOIN") {
            join_syntax_queries += 1;
        }
        let rebound = compile(&db, &sql, query.name.clone()).unwrap_or_else(|e| {
            panic!(
                "query {}: join-syntax SQL failed to recompile: {}\n{sql}",
                query.name,
                e.render(&sql)
            )
        });
        let mut expected = query.clone();
        expected.joins.sort_by_key(|e| e.left.max(e.right));
        assert_eq!(
            &expected, &rebound,
            "query {}: join syntax changed the bound form\nemitted SQL:\n{sql}",
            query.name
        );
    }
    assert_eq!(join_syntax_queries, JOB_QUERY_COUNT, "every JOB query exercises INNER JOIN");
}

#[test]
fn emitted_sql_is_stable_under_a_second_roundtrip() {
    // emit(bind(parse(emit(q)))) == emit(q): the emitter is a fixed point.
    let db = generate_imdb(&Scale::tiny()).unwrap();
    for query in job_queries(&db).iter().take(20) {
        let sql1 = emit_query(&db, query);
        let rebound = compile(&db, &sql1, query.name.clone()).unwrap();
        let sql2 = emit_query(&db, &rebound);
        assert_eq!(sql1, sql2, "query {}", query.name);
    }
}
