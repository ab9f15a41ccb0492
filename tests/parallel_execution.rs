//! Differential tests for the morsel-driven pipeline engine: for every JOB
//! query the parallel engine (threads=4) must produce exactly the row counts
//! and per-operator cardinalities of the sequential engine (threads=1), and
//! the timeout/memory guards must still abort promptly when worker threads
//! are involved.

use qob_core::{BenchmarkContext, EstimatorKind};
use qob_datagen::Scale;
use qob_enumerate::PlannerConfig;
use qob_exec::{ExecutionError, ExecutionOptions};
use qob_plan::{JoinAlgorithm, PhysicalPlan};
use qob_storage::IndexConfig;

/// A morsel small enough that tiny-scale tables still split into many
/// morsels, forcing real multi-worker scheduling.
const TINY_MORSEL: usize = 64;

fn sequential() -> ExecutionOptions {
    ExecutionOptions { threads: 1, morsel_size: TINY_MORSEL, ..Default::default() }
}

fn parallel() -> ExecutionOptions {
    ExecutionOptions { threads: 4, morsel_size: TINY_MORSEL, ..Default::default() }
}

/// Rewrites every hash/sort-merge join of a plan to `to`.
fn rewrite(plan: &PhysicalPlan, to: JoinAlgorithm) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Scan { rel } => PhysicalPlan::scan(*rel),
        PhysicalPlan::Join { algorithm, left, right, keys } => {
            let new_alg = match algorithm {
                JoinAlgorithm::Hash | JoinAlgorithm::SortMerge => to,
                other => *other,
            };
            PhysicalPlan::join(new_alg, rewrite(left, to), rewrite(right, to), keys.clone())
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_on_all_113_job_queries() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let model = qob_cost::SimpleCostModel::new();
    let (seq, par) = (sequential(), parallel());
    assert_eq!(ctx.queries().len(), 113);
    for query in ctx.queries() {
        // Greedy planning keeps this suite fast; the differential holds for
        // any valid plan, wherever it came from.
        let planner = qob_enumerate::Planner::new(
            ctx.db(),
            query,
            &model,
            pg.as_ref(),
            PlannerConfig::default(),
        );
        let plan = qob_enumerate::goo::optimize_goo(&planner)
            .unwrap_or_else(|e| panic!("{}: planning failed: {e}", query.name));
        let a = ctx
            .execute(query, &plan.plan, pg.as_ref(), &seq)
            .unwrap_or_else(|e| panic!("{}: sequential execution failed: {e}", query.name));
        let b = ctx
            .execute(query, &plan.plan, pg.as_ref(), &par)
            .unwrap_or_else(|e| panic!("{}: parallel execution failed: {e}", query.name));
        assert_eq!(a.rows, b.rows, "{}: row counts diverge", query.name);
        assert_eq!(
            a.operator_cardinalities, b.operator_cardinalities,
            "{}: operator cardinalities diverge",
            query.name
        );
    }
}

#[test]
fn parallel_sort_merge_plans_match_sequential() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let (seq, par) = (sequential(), parallel());
    for name in ["2a", "4a", "6c", "13b"] {
        let query = ctx.query(name).unwrap();
        let base = ctx.optimize(&query, pg.as_ref(), PlannerConfig::default()).unwrap().plan;
        let plan = rewrite(&base, JoinAlgorithm::SortMerge);
        let a = ctx.execute(&query, &plan, pg.as_ref(), &seq).unwrap();
        let b = ctx.execute(&query, &plan, pg.as_ref(), &par).unwrap();
        assert_eq!(a.rows, b.rows, "{name}");
        assert_eq!(a.operator_cardinalities, b.operator_cardinalities, "{name}");
    }
}

#[test]
fn parallel_timeout_guard_aborts_promptly() {
    // A plain nested-loop join of two unfiltered small-scale tables compares
    // tens of millions of pairs — far more work than the budget below allows,
    // so only the timeout guard can end this run, and it must do so while
    // worker threads are mid-flight.
    let db = qob_datagen::generate_imdb(&Scale::small()).unwrap();
    let t = db.table_id("title").unwrap();
    let ci = db.table_id("cast_info").unwrap();
    let t_id = db.table(t).column_id("id").unwrap();
    let ci_movie = db.table(ci).column_id("movie_id").unwrap();
    let query = qob_plan::QuerySpec::new(
        "nl_burn",
        vec![
            qob_plan::BaseRelation::unfiltered(t, "t"),
            qob_plan::BaseRelation::unfiltered(ci, "ci"),
        ],
        vec![qob_plan::JoinEdge { left: 0, left_column: t_id, right: 1, right_column: ci_movie }],
    );
    let plan = PhysicalPlan::join(
        JoinAlgorithm::NestedLoop,
        PhysicalPlan::scan(0),
        PhysicalPlan::scan(1),
        vec![qob_plan::JoinKey {
            left_rel: 0,
            left_column: t_id,
            right_rel: 1,
            right_column: ci_movie,
        }],
    );
    let options =
        ExecutionOptions { timeout: Some(std::time::Duration::from_millis(20)), ..parallel() };
    let started = std::time::Instant::now();
    let err = qob_exec::execute_plan(&db, &query, &plan, &|_| 1000.0, &options).unwrap_err();
    let waited = started.elapsed();
    assert!(matches!(err, ExecutionError::Timeout { .. }), "got {err:?}");
    assert!(
        waited < std::time::Duration::from_secs(5),
        "abort latch took {waited:?} to stop the workers"
    );
}

#[test]
fn parallel_memory_guard_aborts() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let query = ctx.query("4a").unwrap();
    let plan = ctx.optimize(&query, pg.as_ref(), PlannerConfig::default()).unwrap().plan;
    let options = ExecutionOptions { max_intermediate_slots: 8, ..parallel() };
    let err = ctx.execute(&query, &plan.clone(), pg.as_ref(), &options).unwrap_err();
    assert!(matches!(err, ExecutionError::IntermediateTooLarge { .. }), "got {err:?}");
}

/// Every tuple of `result`, flattened in order, with its slot layout.
fn tuples(result: &qob_exec::Intermediate) -> (Vec<usize>, Vec<qob_storage::RowId>) {
    (result.rels().to_vec(), result.slices_in(0..result.len()).flatten().copied().collect())
}

/// Scan morsels that start and end mid-page (1 000 and `PAGE_ROWS + 3`
/// rows) produce the same tuples, in the same order, as the sequential
/// engine's page-aligned morsels — at 1 and 4 threads, on every JOB query and on
/// `scan_filter`-style single-table statements, at a scale where the large
/// tables span several pages.
#[test]
fn page_straddling_scan_morsels_match_on_all_113_job_queries() {
    let ctx =
        BenchmarkContext::new(Scale::with_movies(7_000), IndexConfig::PrimaryKeyOnly).unwrap();
    let db = ctx.db();
    let ci = db.table(db.table_id("cast_info").unwrap());
    assert!(ci.row_count() > qob_storage::PAGE_ROWS, "cast_info has {} rows", ci.row_count());
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let model = qob_cost::SimpleCostModel::new();
    let single_table = [
        "SELECT COUNT(*) FROM cast_info ci WHERE ci.role_id IN (1, 4, 8)",
        "SELECT COUNT(*) FROM cast_info ci WHERE ci.note IS NULL AND ci.id BETWEEN 1000 AND 70000",
        "SELECT COUNT(*) FROM cast_info ci WHERE ci.note LIKE '(%' AND ci.nr_order <> 3",
    ];
    let mut queries = ctx.queries().to_vec();
    for (i, sql) in single_table.iter().enumerate() {
        queries.push(qob_sql::compile(db, sql, format!("scan{i}")).unwrap());
    }
    let reference = ExecutionOptions { threads: 1, ..Default::default() };
    for query in &queries {
        let planner =
            qob_enumerate::Planner::new(db, query, &model, pg.as_ref(), PlannerConfig::default());
        let plan = qob_enumerate::goo::optimize_goo(&planner).unwrap().plan;
        let hint = |set| pg.estimate(query, set);
        let run = |options: &ExecutionOptions| {
            let premat = qob_exec::Materialized::new();
            let (out, cards) =
                qob_exec::materialize_plan(db, query, &plan, &hint, options, &premat).unwrap();
            (tuples(&out), cards)
        };
        let expected = run(&reference);
        for threads in [1, 4] {
            for morsel_size in [1_000, qob_storage::PAGE_ROWS + 3] {
                let options = ExecutionOptions { threads, morsel_size, ..Default::default() };
                assert!(
                    run(&options) == expected,
                    "{}: threads {threads}, morsel {morsel_size} diverge",
                    query.name
                );
            }
        }
    }
}
