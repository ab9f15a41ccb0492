//! Qualitative reproduction of the paper's Sections 4–6 findings: plan
//! quality under misestimation, tree-shape restrictions and heuristic
//! enumeration.

use qob_cardest::InjectedCardinalities;
use qob_core::experiments::{enumeration_experiment, tree_shape_experiment, EnumerationAlgorithm};
use qob_core::{BenchmarkContext, EstimatorKind};
use qob_cost::{CostModel, PostgresCostModel, SimpleCostModel};
use qob_datagen::Scale;
use qob_enumerate::restricted::optimize_restricted;
use qob_enumerate::{OptimizedPlan, Planner, PlannerConfig, ShapeRestriction};
use qob_plan::QuerySpec;
use qob_storage::encoding::fnv1a64;
use qob_storage::IndexConfig;

#[test]
fn estimate_plans_cost_at_least_as_much_as_true_cardinality_plans() {
    // Section 4: plans built from estimates are never better (under the true
    // cost) than plans built from true cardinalities.
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let model = qob_cost::SimpleCostModel::new();
    let mut worse = 0usize;
    let mut total = 0usize;
    for query in ctx.query_subset(Some(15)) {
        let truth = ctx.true_cardinalities(query);
        let injected = InjectedCardinalities::new(&truth, pg.as_ref());
        let truth_planner =
            Planner::new(ctx.db(), query, &model, &injected, PlannerConfig::default());
        let Ok(optimal) = qob_enumerate::dpccp::optimize_bushy(&truth_planner) else {
            continue;
        };
        let Ok(estimated) = ctx.optimize(query, pg.as_ref(), PlannerConfig::default()) else {
            continue;
        };
        let optimal_true_cost = truth_planner.cost_of(&optimal.plan);
        let estimated_true_cost = truth_planner.cost_of(&estimated.plan);
        assert!(
            estimated_true_cost >= optimal_true_cost,
            "{}: estimate-based plan cannot beat the true-cardinality optimum",
            query.name
        );
        total += 1;
        if estimated_true_cost > optimal_true_cost * 1.05 {
            worse += 1;
        }
    }
    assert!(total >= 10, "enough queries evaluated");
    // Misestimation leads at least some queries to genuinely worse plans.
    assert!(worse >= 1, "at least one query should get a worse plan from estimates");
}

#[test]
fn table2_right_deep_trees_are_the_worst_restriction() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let results = tree_shape_experiment(&ctx, Some(15));
    assert_eq!(results.len(), 3);
    let get = |shape: ShapeRestriction| results.iter().find(|r| r.shape == shape).unwrap();
    let zig = get(ShapeRestriction::ZigZag);
    let left = get(ShapeRestriction::LeftDeep);
    let right = get(ShapeRestriction::RightDeep);
    // All ratios are at least 1 (bushy is optimal by construction).
    for r in &results {
        assert!(r.ratios.iter().all(|x| *x >= 1.0));
        assert!(!r.ratios.is_empty());
    }
    // Zig-zag ⊇ left-deep, so its optimum can only be at least as good.
    assert!(zig.median() <= left.median() + 1e-9);
    // Right-deep is the weakest class (Table 2's ordering).
    assert!(right.median() + 1e-9 >= zig.median());
    assert!(right.max() + 1e-9 >= left.max());
}

#[test]
fn table3_dp_beats_heuristics_and_true_cards_beat_estimates() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let results = enumeration_experiment(&ctx, Some(12), 200, 7);
    assert_eq!(results.len(), 6);
    let get = |a: EnumerationAlgorithm, truth: bool| {
        results.iter().find(|r| r.algorithm == a && r.true_cardinalities == truth).unwrap()
    };
    // With true cardinalities, exhaustive DP is exactly optimal.
    let dp_truth = get(EnumerationAlgorithm::DynamicProgramming, true);
    assert!((dp_truth.median() - 1.0).abs() < 1e-6);
    assert!(dp_truth.max() < 1.0 + 1e-6);
    // Heuristics never beat DP under the same cardinalities.
    for alg in [EnumerationAlgorithm::Quickpick1000, EnumerationAlgorithm::Goo] {
        let h = get(alg, true);
        assert!(h.median() + 1e-9 >= dp_truth.median(), "{}", alg.label());
        assert!(h.max() + 1e-9 >= dp_truth.max(), "{}", alg.label());
    }
    // Planning from estimates costs something for DP as well (its median
    // ratio is at least the true-cardinality one).
    let dp_est = get(EnumerationAlgorithm::DynamicProgramming, false);
    assert!(dp_est.median() + 1e-9 >= dp_truth.median());
    assert!(dp_est.max() + 1e-9 >= dp_truth.max());
}

/// Folds one chosen plan into a digest buffer: the query, the exact cost
/// bits, the rendered tree and the full structure (join keys included).
fn fold_plan(buf: &mut Vec<u8>, label: &str, query: &QuerySpec, chosen: &OptimizedPlan) {
    buf.extend_from_slice(query.name.as_bytes());
    buf.extend_from_slice(label.as_bytes());
    buf.extend_from_slice(&chosen.cost.to_bits().to_le_bytes());
    buf.extend_from_slice(chosen.plan.render(query).as_bytes());
    buf.extend_from_slice(format!("{:?}", chosen.plan).as_bytes());
}

/// Plan identity, pinned: for every index configuration × estimator × cost
/// model, the FNV-1a digest of `(name, cost bits, plan)` over the bushy
/// optimum of all 113 JOB queries, and over the left-deep / right-deep /
/// zig-zag optima of the queries with at most 10 relations.
///
/// The constants were computed with the enumerator as it stood *before* the
/// DP table stopped holding plans (PR 18); that change — and any later
/// enumerator or estimator performance work — must leave them alone.  A
/// digest may only be re-pinned by a change that *means* to choose
/// different plans, and says so.
#[test]
fn plan_identity_digests_are_pinned() {
    const EXPECTED: [(&str, u64, u64); 12] = [
        ("pk/PostgreSQL/simple", 0xa6b3a912bb41fd22, 0xf26391717bb1c7ad),
        ("pk/PostgreSQL/postgres", 0xc37a70e124668b44, 0xaeca2e6a236c2722),
        ("pk/HyPer/simple", 0x076d231043413adf, 0x3b083a4bc623b317),
        ("pk/HyPer/postgres", 0xa3fd162571330684, 0xdcae8786eaa95143),
        ("pk/DBMS A/simple", 0x6de4f38e0f3ac74e, 0x5bd9a8f679eb0f29),
        ("pk/DBMS A/postgres", 0x955017449057ada4, 0x7589c1b7aea13eb7),
        ("pkfk/PostgreSQL/simple", 0xa6b3a912bb41fd22, 0xf26391717bb1c7ad),
        ("pkfk/PostgreSQL/postgres", 0xd5cc6b7626616bea, 0x7730e518902ac881),
        ("pkfk/HyPer/simple", 0x076d231043413adf, 0x3b083a4bc623b317),
        ("pkfk/HyPer/postgres", 0x321c1b2a0531a710, 0xd07ea8d7d5b3ff82),
        ("pkfk/DBMS A/simple", 0x6de4f38e0f3ac74e, 0x5bd9a8f679eb0f29),
        ("pkfk/DBMS A/postgres", 0x8aa344d64ccf848a, 0x9aed376484e804ad),
    ];
    let shapes =
        [ShapeRestriction::LeftDeep, ShapeRestriction::RightDeep, ShapeRestriction::ZigZag];
    let simple = SimpleCostModel::new();
    let postgres = PostgresCostModel::default();
    let models: [(&str, &dyn CostModel); 2] = [("simple", &simple), ("postgres", &postgres)];

    let mut actual = Vec::new();
    for (index_label, index_config) in
        [("pk", IndexConfig::PrimaryKeyOnly), ("pkfk", IndexConfig::PrimaryAndForeignKey)]
    {
        let ctx = BenchmarkContext::new(Scale::tiny(), index_config).unwrap();
        assert_eq!(ctx.queries().len(), 113);
        // DBMS A is the profile that sorts selectivities (exponential backoff).
        for kind in [EstimatorKind::Postgres, EstimatorKind::HyPer, EstimatorKind::DbmsA] {
            let estimator = ctx.estimator(kind);
            for (model_label, model) in models {
                let (mut bushy, mut restricted) = (Vec::new(), Vec::new());
                for query in ctx.queries() {
                    let planner = Planner::new(
                        ctx.db(),
                        query,
                        model,
                        estimator.as_ref(),
                        PlannerConfig::default(),
                    );
                    let chosen = qob_enumerate::dpccp::optimize_bushy(&planner).unwrap();
                    fold_plan(&mut bushy, "bushy", query, &chosen);
                    if query.rel_count() <= 10 {
                        for shape in shapes {
                            let chosen = optimize_restricted(&planner, shape).unwrap();
                            fold_plan(&mut restricted, shape.label(), query, &chosen);
                        }
                    }
                }
                actual.push((
                    format!("{index_label}/{}/{model_label}", kind.label()),
                    fnv1a64(&bushy),
                    fnv1a64(&restricted),
                ));
            }
        }
    }

    let rendered: Vec<String> = actual
        .iter()
        .map(|(cell, bushy, restricted)| {
            format!("        (\"{cell}\", {bushy:#018x}, {restricted:#018x}),")
        })
        .collect();
    let matches = actual.len() == EXPECTED.len()
        && actual.iter().zip(EXPECTED).all(|((cell, bushy, restricted), expected)| {
            (cell.as_str(), *bushy, *restricted) == expected
        });
    assert!(matches, "plan identity changed; the optimizer now chooses:\n{}", rendered.join("\n"));
}
