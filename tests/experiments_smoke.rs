//! Smoke tests for the runtime (execution-based) experiment drivers: the
//! Section 4.1 risk experiment, the Figure 6 ablations, the Figure 8 cost /
//! runtime correlation and the Figure 9 plan-space exploration.

use qob_cardest::{InjectedCardinalities, TrueCardinalities};
use qob_core::experiments::{
    cost_model_correlation, optimal_costs, plan_space_distributions, risk_of_estimates,
    CostModelKind, RiskOptions,
};
use qob_core::{geometric_mean, BenchmarkContext, EstimatorKind, SlowdownBucket};
use qob_datagen::Scale;
use qob_enumerate::PlannerConfig;
use qob_plan::PhysicalPlan;
use qob_storage::IndexConfig;
use std::time::Duration;

#[test]
fn risk_experiment_produces_distributions_for_each_system() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let options = RiskOptions {
        query_limit: Some(10),
        timeout: Duration::from_secs(5),
        ..Default::default()
    };
    let results =
        risk_of_estimates(&ctx, &[EstimatorKind::Postgres, EstimatorKind::DbmsB], &options);
    assert_eq!(results.len(), 2);
    for r in &results {
        assert!(r.distribution.len() >= 8, "{}: {} queries", r.system, r.distribution.len());
        let histogram = r.distribution.histogram();
        let total: f64 = histogram.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Most queries land in a finite bucket (no mass disappears).
        assert!(r.distribution.fraction(SlowdownBucket::Over100) <= 1.0);
    }
}

/// `C_out` of `plan` under the true cardinalities: the sum of the true sizes
/// of its join results — the deterministic stand-in for its runtime.
fn true_c_out(plan: &PhysicalPlan, truth: &TrueCardinalities) -> f64 {
    match plan {
        PhysicalPlan::Scan { .. } => 0.0,
        PhysicalPlan::Join { left, right, .. } => {
            truth.get(plan.rels()).expect("truth covers every connected subexpression")
                + true_c_out(left, truth)
                + true_c_out(right, truth)
        }
    }
}

#[test]
fn disabling_nested_loop_joins_does_not_hurt() {
    // Figure 6a → 6b: removing the risky algorithm must not make the plans
    // chosen from estimates dramatically worse.  Judged by their true C_out
    // relative to the true-cardinality plan's, which is exact; the measured
    // slowdowns are reported beside it but are timer noise at this scale.
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let base = RiskOptions {
        query_limit: Some(10),
        timeout: Duration::from_secs(5),
        ..Default::default()
    };
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let c_out_ratio_geomean = |allow_nested_loop: bool| {
        let config = PlannerConfig { allow_nested_loop, ..PlannerConfig::default() };
        let ratios: Vec<f64> = ctx
            .query_subset(base.query_limit)
            .iter()
            .map(|query| {
                let truth = ctx.true_cardinalities(query);
                let injected = InjectedCardinalities::new(&truth, pg.as_ref());
                let best = ctx.optimize(query, &injected, config).unwrap().plan;
                let chosen = ctx.optimize(query, pg.as_ref(), config).unwrap().plan;
                true_c_out(&chosen, &truth).max(1.0) / true_c_out(&best, &truth).max(1.0)
            })
            .collect();
        assert_eq!(ratios.len(), 10);
        geometric_mean(&ratios)
    };
    let (c_with, c_without) = (c_out_ratio_geomean(true), c_out_ratio_geomean(false));
    let slowdown = |allow_nested_loop: bool| {
        let options = RiskOptions { allow_nested_loop, ..base.clone() };
        risk_of_estimates(&ctx, &[EstimatorKind::Postgres], &options)[0]
            .distribution
            .geometric_mean()
    };
    println!(
        "C_out vs optimal: {c_with:.3} with NL, {c_without:.3} without; \
         runtime slowdown: {:.2} with NL, {:.2} without",
        slowdown(true),
        slowdown(false)
    );
    assert!(
        c_without <= c_with * 2.0,
        "disabling NL joins should not make plans dramatically worse ({c_without:.3} vs {c_with:.3})"
    );
}

#[test]
fn figure8_cost_runtime_panels_cover_all_models() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let panels = cost_model_correlation(&ctx, Some(8), Duration::from_secs(5));
    assert_eq!(panels.len(), 6, "3 cost models × 2 cardinality sources");
    for p in &panels {
        assert!(!p.points.is_empty(), "{:?} truth={}", p.model, p.true_cardinalities);
        assert!(p.geometric_mean_runtime > 0.0);
        assert!(p.median_fit_error >= 0.0);
        assert!(p.points.iter().all(|(c, r)| *c > 0.0 && *r > 0.0));
    }
    // All three models are present.
    for kind in CostModelKind::all() {
        assert_eq!(panels.iter().filter(|p| p.model == kind).count(), 2);
    }
}

#[test]
fn figure9_plan_space_widens_with_foreign_key_indexes() {
    let mut ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let names = ["6a", "13a", "16d"];
    // Reference: optimal plans under the FK configuration, as in the paper.
    let reference = optimal_costs(&ctx, &names);
    assert_eq!(reference.len(), names.len());

    let fk = plan_space_distributions(&ctx, &names, 150, 42, &reference);
    ctx.set_index_config(IndexConfig::NoIndexes).unwrap();
    let none = plan_space_distributions(&ctx, &names, 150, 42, &reference);

    assert_eq!(fk.len(), names.len());
    assert_eq!(none.len(), names.len());
    for d in fk.iter().chain(none.iter()) {
        assert_eq!(d.normalized_costs.len(), 150);
        // No random plan can beat the exhaustive optimum of its own config by
        // a large margin (small slack because the reference is the FK config).
        assert!(d.width() >= 1.0);
    }
    // The fraction of "good" plans (within 1.5x of the FK optimum) is no
    // larger with FK indexes than without, mirroring the paper's 44% → 4%.
    let avg = |ds: &[qob_core::experiments::PlanSpaceDistribution]| {
        ds.iter().map(|d| d.fraction_within(1.5)).sum::<f64>() / ds.len() as f64
    };
    assert!(avg(&fk) <= avg(&none) + 0.35, "fk {:.2} vs none {:.2}", avg(&fk), avg(&none));
}
