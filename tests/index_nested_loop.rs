//! Index-nested-loop joins over the whole JOB workload.  Under the main-memory
//! cost model the planner never picks an index lookup, so this suite plans
//! with the PostgreSQL cost model tuned for main memory on primary- plus
//! foreign-key indexes, where hundreds of joins become INL (the untuned
//! model picks a few dozen at this scale), and checks every executed count
//! against the ground truth at one worker thread and at four.

use qob_core::{BenchmarkContext, EstimatorKind};
use qob_cost::PostgresCostModel;
use qob_datagen::Scale;
use qob_enumerate::PlannerConfig;
use qob_exec::ExecutionOptions;
use qob_plan::JoinAlgorithm;
use qob_storage::IndexConfig;

/// Small morsels so tiny-scale tables still split across workers.
const TINY_MORSEL: usize = 64;

#[test]
fn index_nested_loop_plans_return_the_true_cardinalities_on_all_113_job_queries() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let estimates = ctx.estimator(EstimatorKind::Postgres);
    let model = PostgresCostModel::tuned_for_main_memory();
    assert_eq!(ctx.queries().len(), 113);
    let (mut inl, mut joins) = (0, 0);
    for query in ctx.queries() {
        let plan = ctx
            .optimize_with_model(query, estimates.as_ref(), &model, PlannerConfig::default())
            .unwrap_or_else(|e| panic!("{}: planning failed: {e}", query.name))
            .plan;
        inl += plan.count_algorithm(JoinAlgorithm::IndexNestedLoop);
        joins += query.rel_count() - 1;
        let truth = ctx.true_cardinalities(query);
        for threads in [1usize, 4] {
            let options =
                ExecutionOptions { threads, morsel_size: TINY_MORSEL, ..Default::default() };
            let result = ctx
                .execute(query, &plan, estimates.as_ref(), &options)
                .unwrap_or_else(|e| panic!("{} (threads={threads}): {e}", query.name));
            let expected = truth.get(query.all_rels()).expect("the whole query has ground truth");
            assert_eq!(result.rows as f64, expected, "{} (threads={threads}): rows", query.name);
            for (set, count) in &result.operator_cardinalities {
                assert_eq!(
                    Some(*count as f64),
                    truth.get(*set),
                    "{} (threads={threads}): operator {set:?}",
                    query.name
                );
            }
        }
    }
    eprintln!("{inl} of {joins} JOB joins are index-nested-loop");
    assert!(inl > 100, "the PostgreSQL cost model picks index-nested-loop joins under PK+FK");
}
