//! The Quickpick randomised plan generator (Waas & Pellenkoft), used by the
//! paper both to visualise the plan-space cost distribution (Figure 9,
//! 10 000 random plans per query) and as the "Quickpick-1000" heuristic
//! competitor of Table 3 (best of 1000 random plans).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::planner::{EnumerationError, OptimizedPlan, Planner, Sub};

/// Generates one random plan: join edges are picked in random order and the
/// components they connect are merged until a single plan covers the query.
pub fn random_plan(
    planner: &Planner<'_>,
    rng: &mut impl Rng,
) -> Result<OptimizedPlan, EnumerationError> {
    planner.check_query()?;
    let query = planner.query;
    let mut components: Vec<Sub> = (0..query.rel_count()).map(|r| planner.leaf_sub(r)).collect();
    let mut edge_order: Vec<usize> = (0..query.joins.len()).collect();
    edge_order.shuffle(rng);
    for edge_idx in edge_order {
        if components.len() == 1 {
            break;
        }
        let edge = query.joins[edge_idx];
        let a = components.iter().position(|c| c.entry.set.contains(edge.left));
        let b = components.iter().position(|c| c.entry.set.contains(edge.right));
        let (Some(a), Some(b)) = (a, b) else { continue };
        if a == b {
            continue;
        }
        // Remove the higher index first so the lower one stays valid.
        let (first, second) = if a > b { (a, b) } else { (b, a) };
        let right = components.swap_remove(first);
        let left = components.swap_remove(second);
        components.push(planner.join_subs(left, right));
    }
    debug_assert_eq!(components.len(), 1, "connected queries always reduce to one component");
    let result = components.pop().ok_or(EnumerationError::EmptyQuery)?;
    Ok(OptimizedPlan { plan: result.plan, cost: result.entry.cost })
}

/// Runs Quickpick `runs` times and returns every generated plan (used for
/// the Figure 9 cost-distribution visualisation).
pub fn quickpick_plans(
    planner: &Planner<'_>,
    runs: usize,
    rng: &mut impl Rng,
) -> Result<Vec<OptimizedPlan>, EnumerationError> {
    (0..runs).map(|_| random_plan(planner, rng)).collect()
}

/// The "Quickpick-N" heuristic: the cheapest (under the planner's cost model
/// and cardinality source) of `runs` random plans.
pub fn quickpick_best(
    planner: &Planner<'_>,
    runs: usize,
    rng: &mut impl Rng,
) -> Result<OptimizedPlan, EnumerationError> {
    let mut best: Option<OptimizedPlan> = None;
    for _ in 0..runs {
        let candidate = random_plan(planner, rng)?;
        if best.as_ref().map(|b| candidate.cost < b.cost).unwrap_or(true) {
            best = Some(candidate);
        }
    }
    best.ok_or(EnumerationError::EmptyQuery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpccp::optimize_bushy;
    use crate::planner::test_support::star_fixture;
    use crate::planner::PlannerConfig;
    use qob_cost::SimpleCostModel;
    use qob_storage::IndexConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_plans_are_valid_and_complete() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let plans = quickpick_plans(&planner, 50, &mut rng).unwrap();
        assert_eq!(plans.len(), 50);
        for p in &plans {
            assert!(p.plan.validate(&q).is_ok());
            assert!(p.cost > 0.0);
        }
        // Random join orders produce a spread of costs.
        let min = plans.iter().map(|p| p.cost).fold(f64::INFINITY, f64::min);
        let max = plans.iter().map(|p| p.cost).fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min, "the plan space is not a single point");
    }

    #[test]
    fn quickpick_best_is_never_better_than_exhaustive_dp() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let optimal = optimize_bushy(&planner).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let qp = quickpick_best(&planner, 200, &mut rng).unwrap();
        assert!(qp.cost >= optimal.cost);
        // With 200 tries on a 4-relation query it should actually find the optimum.
        assert!(qp.cost <= optimal.cost * 1.5, "qp={} dp={}", qp.cost, optimal.cost);
    }

    #[test]
    fn more_runs_never_hurt() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let few = quickpick_best(&planner, 5, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let many = quickpick_best(&planner, 100, &mut rng).unwrap();
        assert!(many.cost <= few.cost);
    }

    #[test]
    fn deterministic_with_fixed_seed() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let pa = quickpick_plans(&planner, 10, &mut a).unwrap();
        let pb = quickpick_plans(&planner, 10, &mut b).unwrap();
        let costs_a: Vec<f64> = pa.iter().map(|p| p.cost).collect();
        let costs_b: Vec<f64> = pb.iter().map(|p| p.cost).collect();
        assert_eq!(costs_a, costs_b);
    }

    #[test]
    fn single_relation_query_is_trivial() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let single = qob_plan::QuerySpec::new("one", vec![q.relations[0].clone()], vec![]);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &single, &model, &cards, PlannerConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_plan(&planner, &mut rng).unwrap();
        assert!(p.plan.is_leaf());
    }
}
