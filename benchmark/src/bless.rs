//! `--bless`: (re)generates the pinned statement domains of one fixture scale.
//!
//! * `job_plan` / `job_exec`: the 113 JOB statements as SQL text; answers are
//!   the relation counts, and the result rows of the sequential (`threads=1`)
//!   engine at this commit.
//! * `scan_filter`: literals are fitted to the fixture's actual value
//!   distributions so each template is swept over ≈ 0.1 % / 1 % / 10 % / 50 %
//!   selectivity; answers come from the naive CSV evaluator, and blessing
//!   fails unless the sequential engine returns the same counts.
//! * `wire_hot`: 16 parameterized short lookups, each with a fixed list of
//!   ids (Zipf rank → id); answers from the sequential engine.

use std::collections::BTreeMap;
use std::path::Path;

use qob_core::{ServerContext, Session, SessionOptions};
use qob_storage::DataType;

use crate::fixture;
use crate::naive::{self, Pred, Table};
use crate::ops::{Domain, FixtureScale, Statement, Workload};

/// Target selectivities of the sweep, with the tag used in statement keys.
const TARGETS: [(f64, &str); 4] = [(0.001, "p0001"), (0.01, "p001"), (0.1, "p010"), (0.5, "p050")];

/// Literal variants fitted per (template, selectivity).
const VARIANTS: usize = 3;

/// Largest `IN` list a fitted value set may use.
const MAX_IN_LIST: usize = 8;

/// Parameter tuples per `wire_hot` statement (fewer on tables with fewer rows).
const WIRE_PARAMS: usize = 512;

/// How a template's swept column is filtered.
#[derive(Clone, Copy)]
enum Sweep {
    IntRange,
    IntSet,
    StrSet,
    LikePrefix,
    IsNull,
}

/// One `scan_filter` template: a large table, scanned alone or joined to one
/// small filtered side.  The swept predicate sits on the small side when there
/// is one (the large side then carries `big_fixed`), else on the large table.
struct Template {
    id: &'static str,
    big: (&'static str, &'static str),
    sweep: Sweep,
    column: &'static str,
    /// `(table, alias, foreign-key column of the large table)`.
    small: Option<(&'static str, &'static str, &'static str)>,
    big_fixed: Option<fn() -> Pred>,
}

/// Which storage path each template leans on is part of why it exists: see
/// the README's workload section.
fn templates() -> Vec<Template> {
    let single =
        |id, big, sweep, column| Template { id, big, sweep, column, small: None, big_fixed: None };
    let ci = ("cast_info", "ci");
    let mi = ("movie_info", "mi");
    vec![
        single("s01", ci, Sweep::IntRange, "id"), // sorted, FOR-packed: page min/max skips
        single("s02", ci, Sweep::IntRange, "nr_order"), // unsorted small ints with NULLs
        single("s03", ci, Sweep::IntSet, "role_id"), // 12 values
        single("s04", ci, Sweep::StrSet, "note"), // 8-entry dictionary, mostly NULL
        single("s05", ci, Sweep::IsNull, "note"),
        single("s06", mi, Sweep::IntSet, "info_type_id"), // 6 values
        single("s07", mi, Sweep::StrSet, "info"),         // thousands of dictionary entries
        single("s08", mi, Sweep::LikePrefix, "info"),
        single("s09", ("title", "t"), Sweep::IntRange, "production_year"),
        single("s10", ("name", "n"), Sweep::StrSet, "name_pcode_cf"),
        single("s11", ("movie_keyword", "mk"), Sweep::IntRange, "keyword_id"),
        single("s12", ("name", "n"), Sweep::LikePrefix, "name"),
        Template {
            id: "j01",
            big: ci,
            sweep: Sweep::IntRange,
            column: "production_year",
            small: Some(("title", "t", "movie_id")),
            big_fixed: Some(|| Pred::IsNull("note".into())),
        },
        Template {
            id: "j02",
            big: mi,
            sweep: Sweep::IntSet,
            column: "kind_id",
            small: Some(("title", "t", "movie_id")),
            big_fixed: None,
        },
        Template {
            id: "j03",
            big: ("movie_keyword", "mk"),
            sweep: Sweep::LikePrefix,
            column: "keyword",
            small: Some(("keyword", "k", "keyword_id")),
            big_fixed: None,
        },
        Template {
            id: "j04",
            big: ci,
            sweep: Sweep::StrSet,
            column: "name_pcode_cf",
            small: Some(("name", "n", "person_id")),
            big_fixed: Some(|| Pred::IntIn("role_id".into(), vec![1, 2])),
        },
    ]
}

/// Regenerates all four domain files of `scale` under the repository root.
pub fn bless(scale: FixtureScale, work_dir: &Path, threads: usize) -> Result<(), String> {
    let csv_dir = work_dir.join("csv");
    let fixture = fixture::generate(scale, &csv_dir)?;
    let ctx = fixture::ingest(&csv_dir, threads)?;

    // The reference engine: sequential, cold-planned, no caches in the way.
    let options = SessionOptions { threads: 1, plan_cache: false, ..SessionOptions::default() };
    let server = ServerContext::with_defaults(ctx, options);
    let mut session = server.session();

    let write = |workload: Workload, statements: Vec<Statement>| -> Result<(), String> {
        let domain = Domain { movies: scale.movies(), fixture_fnv: fixture.fnv, statements };
        let path = scale.domain_path(workload);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("`{}`: {e}", parent.display()))?;
        }
        std::fs::write(&path, domain.to_json(workload))
            .map_err(|e| format!("`{}`: {e}", path.display()))?;
        eprintln!("blessed {} ({} statements)", path.display(), domain.statements.len());
        Ok(())
    };

    let (plan, exec) = job_statements(&server, &mut session)?;
    write(Workload::JobPlan, plan)?;
    write(Workload::JobExec, exec)?;
    write(Workload::ScanFilter, scan_statements(&csv_dir, &mut session)?)?;
    write(Workload::WireHot, wire_statements(&server, &mut session)?)?;
    Ok(())
}

/// Rows the sequential engine returns for `sql`.
fn engine_rows(session: &mut Session, sql: &str) -> Result<u64, String> {
    let outcomes = session.run_script(sql).map_err(|e| format!("{e}\n  in: {sql}"))?;
    let report = outcomes.first().and_then(|o| o.as_query()).ok_or("no query report")?;
    Ok(report.execution.as_ref().ok_or("statement did not execute")?.rows)
}

fn job_statements(
    server: &ServerContext,
    session: &mut Session,
) -> Result<(Vec<Statement>, Vec<Statement>), String> {
    let ctx = server.context();
    let mut plan = Vec::new();
    let mut exec = Vec::new();
    for query in ctx.queries() {
        let sql = qob_sql::emit_query(ctx.db(), query);
        let statement = |answer: u64| Statement {
            key: query.name.clone(),
            group: query.name.clone(),
            sql: sql.clone(),
            params: Vec::new(),
            answers: vec![answer],
        };
        plan.push(statement(query.rel_count() as u64));
        exec.push(statement(engine_rows(session, &sql)?));
    }
    Ok((plan, exec))
}

fn scan_statements(csv_dir: &Path, session: &mut Session) -> Result<Vec<Statement>, String> {
    let schemas = qob_datagen::imdb_schema();
    let mut tables: BTreeMap<&str, Table> = BTreeMap::new();
    for name in ["cast_info", "movie_info", "movie_keyword", "title", "name", "keyword"] {
        let schema = schemas.iter().find(|s| s.name == name).ok_or("unknown table")?;
        let columns: Vec<(String, bool)> =
            schema.columns.iter().map(|c| (c.name.clone(), c.dtype == DataType::Int)).collect();
        tables.insert(name, Table::read(csv_dir, name, &columns)?);
    }

    let mut statements = Vec::new();
    for template in templates() {
        let big = &tables[template.big.0];
        let small = template.small.map(|(table, alias, fk)| (&tables[table], alias, fk));
        let swept = small.map_or(big, |(table, _, _)| table);
        let big_fixed = template.big_fixed.map(|make| make());
        let mut seen: Vec<Pred> = Vec::new();
        for (share, tag) in TARGETS {
            let fitted: Vec<Pred> = fit(swept, template.sweep, template.column, share)
                .into_iter()
                .filter(|pred| !seen.contains(pred))
                .collect();
            for (v, pred) in fitted.into_iter().enumerate() {
                let sql = match small {
                    None => format!(
                        "SELECT COUNT(*) FROM {} {} WHERE {}",
                        template.big.0,
                        template.big.1,
                        pred.sql(template.big.1)
                    ),
                    Some((table, alias, fk)) => {
                        let mut sql = format!(
                            "SELECT COUNT(*) FROM {} {alias}, {} {} WHERE {}.{fk} = {alias}.id AND {}",
                            table.name,
                            template.big.0,
                            template.big.1,
                            template.big.1,
                            pred.sql(alias)
                        );
                        if let Some(fixed) = &big_fixed {
                            sql.push_str(&format!(" AND {}", fixed.sql(template.big.1)));
                        }
                        sql
                    }
                };
                let answer = match small {
                    None => naive::count(big, Some(&pred), None),
                    Some((table, _, fk)) => {
                        naive::count(big, big_fixed.as_ref(), Some((fk, table, &pred)))
                    }
                };
                let engine = engine_rows(session, &sql)?;
                if engine != answer {
                    return Err(format!(
                        "the naive evaluator counts {answer} rows, the engine {engine}, for: {sql}"
                    ));
                }
                statements.push(Statement {
                    key: format!("{}.{tag}.v{v}", template.id),
                    group: format!("{}.{tag}", template.id),
                    sql,
                    params: Vec::new(),
                    answers: vec![answer],
                });
                seen.push(pred);
            }
        }
    }
    Ok(statements)
}

/// How far a fitted predicate's row count may be from its target, as a factor.
/// Variants of one group stand in for each other under different seeds, so
/// they must cost about the same.
const FIT_TOLERANCE: f64 = 1.5;

/// Fits up to [`VARIANTS`] predicates on `column` that each keep about
/// `share` of `table`'s rows (within [`FIT_TOLERANCE`]; none if the column's
/// distribution cannot get that close).
fn fit(table: &Table, sweep: Sweep, column: &str, share: f64) -> Vec<Pred> {
    let rows = table.rows();
    let target = (share * rows as f64).max(1.0);
    let close = |count: usize| {
        (count as f64) >= target / FIT_TOLERANCE && (count as f64) <= target * FIT_TOLERANCE
    };
    match sweep {
        Sweep::IsNull => {
            // No literal to sweep: one statement, issued under its nearest target.
            let pred = Pred::IsNull(column.to_owned());
            let nulls = pred.eval(table).iter().filter(|p| **p).count();
            let nearest = TARGETS
                .iter()
                .min_by(|a, b| {
                    let d = |t: f64| (t.ln() - (nulls.max(1) as f64 / rows as f64).ln()).abs();
                    d(a.0).total_cmp(&d(b.0))
                })
                .map(|t| t.0);
            if nearest == Some(share) {
                vec![pred]
            } else {
                Vec::new()
            }
        }
        Sweep::IntRange => {
            let mut sorted: Vec<i64> = table.ints(column).iter().flatten().copied().collect();
            sorted.sort_unstable();
            let width = (target as usize).clamp(1, sorted.len());
            let mut preds: Vec<Pred> = Vec::new();
            for v in 0..VARIANTS {
                let start = (sorted.len() - width) * (v + 1) / (VARIANTS + 1);
                let (lo, hi) = (sorted[start], sorted[start + width - 1]);
                let covered =
                    sorted.partition_point(|x| *x <= hi) - sorted.partition_point(|x| *x < lo);
                let pred = Pred::IntBetween(column.to_owned(), lo, hi);
                if close(covered) && !preds.contains(&pred) {
                    preds.push(pred);
                }
            }
            preds
        }
        Sweep::IntSet => value_sets(table.ints(column).iter().flatten().copied(), target)
            .into_iter()
            .map(|values| Pred::IntIn(column.to_owned(), values))
            .collect(),
        Sweep::StrSet => value_sets(table.strs(column).iter().flatten().cloned(), target)
            .into_iter()
            .map(|values| Pred::StrIn(column.to_owned(), values))
            .collect(),
        Sweep::LikePrefix => {
            let mut prefixes: BTreeMap<String, usize> = BTreeMap::new();
            for value in table.strs(column).iter().flatten() {
                for len in 1..=3 {
                    if let Some((end, _)) = value.char_indices().nth(len) {
                        *prefixes.entry(value[..end].to_owned()).or_default() += 1;
                    }
                }
            }
            let mut fitting: Vec<(String, usize)> = prefixes
                .into_iter()
                .filter(|(prefix, count)| close(*count) && !prefix.contains(['%', '_', '\\']))
                .collect();
            fitting.sort_by(|a, b| {
                let d = |c: usize| (c as f64 - target).abs();
                d(a.1).total_cmp(&d(b.1)).then_with(|| a.0.cmp(&b.0))
            });
            // `E%`, `En%` and `Eng%` can all select the same rows: keep
            // prefixes that are not extensions of one another.
            let mut chosen: Vec<String> = Vec::new();
            for (prefix, _) in fitting {
                let related =
                    |other: &String| other.starts_with(&prefix) || prefix.starts_with(other);
                if chosen.len() < VARIANTS && !chosen.iter().any(related) {
                    chosen.push(prefix);
                }
            }
            chosen
                .into_iter()
                .map(|prefix| Pred::Like(column.to_owned(), format!("{prefix}%")))
                .collect()
        }
    }
}

/// Up to [`VARIANTS`] distinct sets of at most [`MAX_IN_LIST`] values whose
/// combined frequency is within [`FIT_TOLERANCE`] of `target` rows.  Greedy
/// over the values by descending frequency, each variant starting one value
/// further down so the sets differ.
fn value_sets<T: Ord + Clone>(values: impl Iterator<Item = T>, target: f64) -> Vec<Vec<T>> {
    let mut frequency: BTreeMap<T, usize> = BTreeMap::new();
    for value in values {
        *frequency.entry(value).or_default() += 1;
    }
    let mut by_frequency: Vec<(T, usize)> = frequency.into_iter().collect();
    by_frequency.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    // Values too frequent to fit even alone can never be part of a set.
    by_frequency.retain(|(_, count)| (*count as f64) <= target * FIT_TOLERANCE);

    let mut sets: Vec<Vec<T>> = Vec::new();
    for skip in 0..by_frequency.len() {
        if sets.len() == VARIANTS {
            break;
        }
        let mut set = Vec::new();
        let mut covered = 0usize;
        for (value, count) in by_frequency.iter().skip(skip) {
            if set.len() < MAX_IN_LIST && ((covered + count) as f64) <= target * 1.25 {
                set.push(value.clone());
                covered += count;
            }
        }
        set.sort();
        if (covered as f64) >= target / FIT_TOLERANCE && !sets.contains(&set) {
            sets.push(set);
        }
    }
    sets
}

/// The `wire_hot` statements: short 2–4-way lookups keyed by one movie,
/// person, keyword or company id.  The engine answers an id predicate with a
/// scan, so a statement costs about what its tables hold: most statements
/// stay on the small satellite tables (so that parsing, caching, admitting
/// and shipping them is a large share of each), five also scan `title`, and
/// three reach into a 100 k-row table.  `(key, id table, sql)`.
const WIRE_STATEMENTS: [(&str, &str, &str); 16] = [
    ("w01", "title", "SELECT COUNT(*) FROM aka_title aka, kind_type kt WHERE aka.kind_id = kt.id AND aka.movie_id = $1"),
    ("w02", "title", "SELECT COUNT(*) FROM movie_link ml, link_type lt WHERE ml.link_type_id = lt.id AND ml.movie_id = $1"),
    ("w03", "title", "SELECT COUNT(*) FROM movie_link ml, link_type lt WHERE ml.link_type_id = lt.id AND ml.linked_movie_id = $1"),
    ("w04", "title", "SELECT COUNT(*) FROM complete_cast cc, comp_cast_type cct WHERE cc.subject_id = cct.id AND cc.movie_id = $1"),
    ("w05", "title", "SELECT COUNT(*) FROM complete_cast cc, comp_cast_type cs, comp_cast_type ct WHERE cc.subject_id = cs.id AND cc.status_id = ct.id AND cc.movie_id = $1"),
    ("w06", "title", "SELECT COUNT(*) FROM movie_info_idx mii, info_type it WHERE mii.info_type_id = it.id AND mii.movie_id = $1"),
    ("w07", "title", "SELECT COUNT(*) FROM aka_title aka, movie_link ml WHERE ml.movie_id = aka.movie_id AND aka.movie_id = $1"),
    ("w08", "title", "SELECT COUNT(*) FROM aka_title aka, complete_cast cc, comp_cast_type cct WHERE cc.movie_id = aka.movie_id AND cc.subject_id = cct.id AND aka.movie_id = $1"),
    ("w09", "title", "SELECT COUNT(*) FROM title t, kind_type kt WHERE t.kind_id = kt.id AND t.id = $1"),
    ("w10", "title", "SELECT COUNT(*) FROM title t, aka_title aka, kind_type kt WHERE aka.movie_id = t.id AND aka.kind_id = kt.id AND t.id = $1"),
    ("w11", "title", "SELECT COUNT(*) FROM title t, movie_link ml, link_type lt WHERE ml.movie_id = t.id AND ml.link_type_id = lt.id AND t.id = $1"),
    ("w12", "title", "SELECT COUNT(*) FROM title t, complete_cast cc, comp_cast_type cct WHERE cc.movie_id = t.id AND cc.subject_id = cct.id AND t.id = $1"),
    ("w13", "title", "SELECT COUNT(*) FROM title t, movie_info_idx mii, info_type it, kind_type kt WHERE mii.movie_id = t.id AND mii.info_type_id = it.id AND t.kind_id = kt.id AND t.id = $1"),
    ("w14", "keyword", "SELECT COUNT(*) FROM keyword k, movie_keyword mk WHERE mk.keyword_id = k.id AND k.id = $1"),
    ("w15", "company_name", "SELECT COUNT(*) FROM company_name cn, movie_companies mc, company_type ct WHERE mc.company_id = cn.id AND mc.company_type_id = ct.id AND cn.id = $1"),
    ("w16", "name", "SELECT COUNT(*) FROM name n, aka_name an WHERE an.person_id = n.id AND n.id = $1"),
];

fn wire_statements(
    server: &ServerContext,
    session: &mut Session,
) -> Result<Vec<Statement>, String> {
    let mut statements = Vec::new();
    for (index, (key, id_table, sql)) in WIRE_STATEMENTS.iter().enumerate() {
        let ids =
            server.context().db().table_by_name(id_table).ok_or("unknown id table")?.row_count();
        // Ids are dense from 1; a fixed multiplicative walk spreads the
        // Zipf-hot ranks over the id space instead of over the first rows.
        let params: Vec<Vec<i64>> = (0..WIRE_PARAMS.min(ids))
            .map(|rank| vec![1 + ((rank * 7919 + index * 104_729) % ids) as i64])
            .collect();
        session.prepare(key, sql).map_err(|e| e.to_string())?;
        let mut answers = Vec::with_capacity(params.len());
        for tuple in &params {
            let report = session
                .execute_prepared(key, &[qob_sql::ParamValue::Int(tuple[0])])
                .map_err(|e| format!("{key}({}): {e}", tuple[0]))?;
            answers.push(report.execution.as_ref().ok_or("statement did not execute")?.rows);
        }
        statements.push(Statement {
            key: (*key).to_owned(),
            group: (*key).to_owned(),
            sql: (*sql).to_owned(),
            params,
            answers,
        });
    }
    Ok(statements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_sets_hit_the_target_and_differ() {
        // Frequencies 40, 30, 10, 10, 5, 5 of 100 rows.
        let values = [(1, 40), (2, 30), (3, 10), (4, 10), (5, 5), (6, 5)]
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n));
        let sets = value_sets(values.clone(), 10.0);
        assert_eq!(sets, vec![vec![3], vec![4], vec![5, 6]]);
        let sets = value_sets(values.clone(), 50.0);
        assert!(sets.contains(&vec![1, 3, 4]) || sets.contains(&vec![1, 3, 4, 5]), "{sets:?}");
        // Nothing is rare enough for 1 row in 100.
        assert!(value_sets(values, 1.0).is_empty());
    }

    #[test]
    fn wire_statements_are_parameterized_by_one_id() {
        for (key, _, sql) in WIRE_STATEMENTS {
            let ast = qob_sql::parse_statement(sql).unwrap_or_else(|e| panic!("{key}: {e:?}"));
            assert_eq!(qob_sql::param_count(&ast), 1, "{key}");
        }
    }
}
