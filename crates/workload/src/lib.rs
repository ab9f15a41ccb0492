//! # qob-workload
//!
//! The query workload of the reproduction, kept as SQL text, and the loader
//! every SQL workload goes through:
//!
//! * `sql/job.sql` — the Join Order Benchmark reproduction: 33 query
//!   families with 2–6 variants each (113 queries in total) over the
//!   21-table IMDB-like schema, mirroring the structure of the original JOB
//!   (3–16 joins per query, one select-project-join block each, variants
//!   differing only in their selection predicates),
//! * `sql/tpch.sql` — three TPC-H-shaped join queries (Q5/Q8/Q10 analogues)
//!   over the uniform synthetic TPC-H database, used for the Figure 4
//!   contrast,
//! * [`sql`] — `.sql` script splitting (with a `-- name:` annotation
//!   convention), parsing, binding and script emission.
//!
//! [`job_queries`] and [`tpch_queries`] bind the built-in files through
//! [`load_sql_str`], the same path a user's `.sql` file, a CLI script and a
//! wire statement take: every query reaches a [`QuerySpec`] through
//! `qob_sql`'s one parser and binder.  Both files are in [`emit_script`]'s
//! canonical form, which the repository's round-trip suite pins statement
//! by statement.

pub mod sql;

pub use sql::{
    bind_parsed, emit_script, load_sql_file, load_sql_str, parse_script, ParsedStatement,
    SqlLoadError,
};

use qob_plan::QuerySpec;
use qob_storage::Database;

/// Number of query families in [`job_queries`].
pub const JOB_FAMILY_COUNT: usize = 33;

/// Total number of queries in [`job_queries`].
pub const JOB_QUERY_COUNT: usize = 113;

/// Binds a built-in workload.  The files are static artefacts, so a
/// statement that fails to bind panics with its rendered diagnostic.
fn builtin(db: &Database, script: &str) -> Vec<QuerySpec> {
    load_sql_str(db, script).unwrap_or_else(|e| panic!("built-in workload: {e}"))
}

/// The 113 JOB queries, bound against an IMDB-like catalog.
pub fn job_queries(db: &Database) -> Vec<QuerySpec> {
    builtin(db, include_str!("../sql/job.sql"))
}

/// The three TPC-H-shaped queries used in Figure 4, bound against a
/// TPC-H catalog.
pub fn tpch_queries(db: &Database) -> Vec<QuerySpec> {
    builtin(db, include_str!("../sql/tpch.sql"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_datagen::{generate_imdb, generate_tpch, Scale};
    use std::collections::HashSet;

    #[test]
    fn job_queries_have_unique_names_every_bridge_table_and_the_papers_example() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let queries = job_queries(&db);
        let find = |name: &str| queries.iter().find(|q| q.name == name);
        let names: HashSet<&str> = queries.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(names.len(), JOB_QUERY_COUNT);
        assert!(find("6a").is_some() && find("99z").is_none());
        // 13d mirrors the paper's example: 9 relations joined by a spanning
        // set of join edges.
        let q = find("13d").unwrap();
        let aliases: Vec<&str> = q.relations.iter().map(|r| r.alias.as_str()).collect();
        assert_eq!(aliases, ["t", "kt", "mc", "cn", "ct", "mi", "it", "miidx", "it2"]);
        assert!(q.join_predicate_count() >= q.rel_count() - 1);
        let bridges = "cast_info movie_companies movie_info movie_info_idx movie_keyword \
                       movie_link complete_cast person_info aka_name aka_title";
        for table in bridges.split_whitespace() {
            let tid = db.table_id(table).unwrap();
            let used = queries.iter().any(|q| q.relations.iter().any(|r| r.table == tid));
            assert!(used, "no query uses table {table}");
        }
    }

    #[test]
    fn variants_share_structure_but_differ_in_predicates() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let queries = job_queries(&db);
        let f13: Vec<&QuerySpec> = queries.iter().filter(|q| q.name.starts_with("13")).collect();
        assert_eq!(f13.len(), 4);
        let shape = |q: &QuerySpec| (q.rel_count(), q.join_predicate_count());
        assert!(f13.iter().all(|q| shape(q) == shape(f13[0])));
        // Predicates differ between variants (different country codes).
        let preds: HashSet<String> = f13
            .iter()
            .map(|q| format!("{:?}", q.relations.iter().map(|r| &r.predicates).collect::<Vec<_>>()))
            .collect();
        assert_eq!(preds.len(), 4);
    }

    #[test]
    fn tpch_queries_have_their_join_shapes_and_filters() {
        let db = generate_tpch(&Scale::tiny()).unwrap();
        let queries = tpch_queries(&db);
        let shapes: Vec<(&str, usize)> =
            queries.iter().map(|q| (q.name.as_str(), q.rel_count())).collect();
        assert_eq!(shapes, [("tpch5", 6), ("tpch8", 7), ("tpch10", 4)]);
        for q in &queries {
            assert!(q.join_count() >= 3 && q.base_predicate_count() >= 2, "{}", q.name);
        }
    }
}
