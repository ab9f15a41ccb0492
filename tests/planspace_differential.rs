//! Differential test pinning the exhaustive plan-space enumerator
//! ([`qob_enumerate::space`]) to the DPccp optimizer and to the planner's
//! cost rule, on every JOB query small enough to enumerate exhaustively and
//! under all three cost models:
//!
//! * the minimum of the *complete* cost vector equals, to the bit, the cost
//!   DPccp reports for its chosen plan — DPccp cannot be beaten by any plan
//!   the space contains, and the space cannot contain a cost DPccp missed;
//! * where the space has at most 5 000 plans, building every tree by brute
//!   force and re-costing it with [`Planner::cost_of`] gives exactly the
//!   space's cost vector — so `space`'s cross-sum factorisation adds costs
//!   the way the planner does, plan for plan.

use std::collections::HashMap;

use qob_core::{BenchmarkContext, EstimatorKind};
use qob_cost::{CostModel, PostgresCostModel, SimpleCostModel};
use qob_datagen::Scale;
use qob_enumerate::dpccp::optimize_bushy;
use qob_enumerate::space::{explore, PlanSpaceOptions};
use qob_enumerate::{ccp_pairs, Entry, Planner, PlannerConfig};
use qob_plan::{PhysicalPlan, RelSet};
use qob_storage::IndexConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every cross-product-free bushy tree over `set`, by brute-force recursion
/// over its csg-cmp splits.  Each join is oriented and typed the way the
/// plan space does it: [`Planner::cheapest_join`] of the two sides as
/// zero-cost entries.
fn all_trees(
    planner: &Planner<'_>,
    splits: &HashMap<RelSet, Vec<(RelSet, RelSet)>>,
    set: RelSet,
) -> Vec<PhysicalPlan> {
    let Some(pairs) = splits.get(&set) else {
        return vec![PhysicalPlan::scan(set.min_rel().expect("a non-empty set"))];
    };
    let free = |set| Entry { set, cost: 0.0, rows: planner.rows(set), join: None };
    let mut trees = Vec::new();
    for &(a, b) in pairs {
        let joined = planner.cheapest_join(&free(a), &free(b), planner.rows(set));
        let (build, probe, algorithm) = joined.join.expect("a join entry");
        let rights = all_trees(planner, splits, probe);
        for left in all_trees(planner, splits, build) {
            for right in &rights {
                let keys = planner.join_keys(build, probe);
                trees.push(PhysicalPlan::join(algorithm, left.clone(), right.clone(), keys));
            }
        }
    }
    trees
}

#[test]
fn exhaustive_minimum_equals_dpccp_cost_on_small_job_queries() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let simple = SimpleCostModel::new();
    let postgres = PostgresCostModel::standard();
    let postgres_mm = PostgresCostModel::tuned_for_main_memory();
    let models: [&dyn CostModel; 3] = [&simple, &postgres, &postgres_mm];
    let options = PlanSpaceOptions::default();
    let mut rng = StdRng::seed_from_u64(0);

    let (mut checked, mut brute_forced) = (0usize, 0usize);
    for model in models {
        for query in ctx.queries() {
            if query.rel_count() > options.max_exhaustive_relations {
                continue;
            }
            let name = format!("{} under the {}", query.name, model.name());
            let planner =
                Planner::new(ctx.db(), query, model, pg.as_ref(), PlannerConfig::default());
            let space = explore(&planner, &options, &mut rng)
                .unwrap_or_else(|e| panic!("{name}: exploration failed: {e}"));
            assert!(space.exhaustive, "{name}: expected an exhaustive space");
            assert_eq!(
                space.costs.len() as u128,
                space.plan_count,
                "{name}: cost vector does not cover the whole space"
            );

            let best = optimize_bushy(&planner).unwrap_or_else(|e| panic!("{name}: {e}"));
            let space_min = space.min_cost().expect("non-empty cost vector");
            assert_eq!(
                space_min.to_bits(),
                best.cost.to_bits(),
                "{name}: exhaustive minimum {space_min} != DPccp cost {} over {} plans",
                best.cost,
                space.plan_count
            );
            checked += 1;

            if space.plan_count > 5_000 {
                continue;
            }
            let mut splits: HashMap<RelSet, Vec<(RelSet, RelSet)>> = HashMap::new();
            for (a, b) in ccp_pairs(query) {
                splits.entry(a.union(b)).or_default().push((a, b));
            }
            let trees = all_trees(&planner, &splits, query.all_rels());
            assert_eq!(trees.len() as u128, space.plan_count, "{name}: brute-force tree count");
            let mut tree_costs: Vec<u64> = trees
                .iter()
                .map(|tree| {
                    tree.validate(query).unwrap_or_else(|e| panic!("{name}: {e}"));
                    planner.cost_of(tree).to_bits()
                })
                .collect();
            let mut space_costs: Vec<u64> = space.costs.iter().map(|c| c.to_bits()).collect();
            // Costs are non-negative, so their bit patterns sort like them.
            tree_costs.sort_unstable();
            space_costs.sort_unstable();
            assert!(
                tree_costs == space_costs,
                "{name}: the space's {} costs are not its trees' costs",
                space.plan_count
            );
            brute_forced += 1;
        }
    }
    assert!(checked >= 3 * 30, "only {checked} (query, model) spaces checked — filter is wrong");
    assert!(brute_forced >= 3 * 30, "only {brute_forced} spaces brute-forced");
}
