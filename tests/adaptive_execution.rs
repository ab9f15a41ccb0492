//! Differential tests for adaptive mid-execution re-optimization: whatever
//! plans the runtime switches between, the answer must be the answer.
//!
//! * On all 113 JOB queries, `--adaptive` execution returns exactly the row
//!   count and final cardinality of non-adaptive execution — and with an
//!   aggressive divergence threshold the suite demonstrably re-plans at
//!   least once (the paper's point: JOB misestimates are everywhere).
//! * On a known badly-misestimated query, at least one re-plan event fires
//!   and every operator cardinality the spliced execution reports equals
//!   the independently extracted ground truth.

use qob_core::{execute_adaptive, AdaptiveOptions, BenchmarkContext, EstimatorKind};
use qob_datagen::Scale;
use qob_enumerate::{Planner, PlannerConfig};
use qob_exec::ExecutionOptions;
use qob_plan::RelSet;
use qob_storage::IndexConfig;

/// A small morsel so tiny-scale tables still schedule multi-morsel work.
const TINY_MORSEL: usize = 64;

fn exec_options() -> ExecutionOptions {
    ExecutionOptions { threads: 1, morsel_size: TINY_MORSEL, ..Default::default() }
}

fn adaptive(threshold: f64) -> AdaptiveOptions {
    AdaptiveOptions { enabled: true, divergence_threshold: threshold, max_replans: 3 }
}

fn final_cardinality(cards: &[(RelSet, u64)], all: RelSet) -> Option<u64> {
    cards.iter().find(|(s, _)| *s == all).map(|(_, c)| *c)
}

#[test]
fn adaptive_matches_non_adaptive_on_all_113_job_queries() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let model = qob_cost::SimpleCostModel::new();
    let options = exec_options();
    assert_eq!(ctx.queries().len(), 113);
    let mut total_replans = 0usize;
    let mut total_changed = 0usize;
    for query in ctx.queries() {
        // Greedy planning keeps the suite fast — and hands the adaptive
        // runtime plenty of imperfect plans to correct.
        let planner = Planner::new(ctx.db(), query, &model, pg.as_ref(), PlannerConfig::default());
        let plan = qob_enumerate::goo::optimize_goo(&planner)
            .unwrap_or_else(|e| panic!("{}: planning failed: {e}", query.name));
        let plain = ctx
            .execute(query, &plan.plan, pg.as_ref(), &options)
            .unwrap_or_else(|e| panic!("{}: non-adaptive execution failed: {e}", query.name));
        let outcome = execute_adaptive(&planner, &plan.plan, adaptive(2.0), &options)
            .unwrap_or_else(|e| panic!("{}: adaptive execution failed: {e}", query.name));
        assert_eq!(plain.rows, outcome.result.rows, "{}: row counts diverge", query.name);
        let all = query.all_rels();
        assert_eq!(
            final_cardinality(&plain.operator_cardinalities, all),
            final_cardinality(&outcome.result.operator_cardinalities, all),
            "{}: final cardinalities diverge",
            query.name
        );
        assert!(
            outcome.final_plan.validate(query).is_ok(),
            "{}: spliced plan is structurally broken",
            query.name
        );
        total_replans += outcome.replans.len();
        total_changed += outcome.plans_changed();
    }
    assert!(
        total_replans > 0,
        "a 2x divergence threshold must fire somewhere across 113 JOB queries"
    );
    assert!(total_changed > 0, "at least one re-plan must actually change the remainder plan");
}

/// The targeted regression: a query planned from DBMS C's magic constants —
/// the paper's worst estimator — must demonstrably re-plan mid-execution,
/// and the spliced plan's reported operator cardinalities must all equal
/// the independently extracted ground truth.
#[test]
fn misestimated_query_replans_and_reports_consistent_cardinalities() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let magic = ctx.estimator(EstimatorKind::DbmsC);
    let query = ctx.query("13b").unwrap();
    let model = qob_cost::SimpleCostModel::new();
    let planner = Planner::new(ctx.db(), &query, &model, magic.as_ref(), PlannerConfig::default());
    let plan = qob_enumerate::dpccp::optimize_bushy(&planner).unwrap().plan;

    let outcome = execute_adaptive(&planner, &plan, adaptive(2.0), &exec_options()).unwrap();
    assert!(
        !outcome.replans.is_empty(),
        "DBMS C magic constants must diverge past 2x somewhere in 13b"
    );
    assert!(
        outcome.plans_changed() > 0,
        "the observed truth must actually change the remainder plan"
    );
    for event in &outcome.replans {
        assert!(event.factor > 2.0, "event fired below the threshold: {event:?}");
        assert!(!event.resumed_plan.is_empty());
    }

    // Every reported operator cardinality — across however many splices —
    // equals the ground truth for its subexpression.
    let truth = ctx.try_true_cardinalities(&query).expect("tiny-scale truth extracts");
    assert!(!outcome.result.operator_cardinalities.is_empty());
    for (set, count) in &outcome.result.operator_cardinalities {
        let expected = truth.get(*set).expect("every join subexpression has ground truth");
        assert_eq!(
            *count as f64, expected,
            "operator {set} reports {count} but the true cardinality is {expected}"
        );
    }

    // And the result row count matches a plain run of the original plan.
    let plain = ctx.execute(&query, &plan, magic.as_ref(), &exec_options()).unwrap();
    assert_eq!(plain.rows, outcome.result.rows);
}
