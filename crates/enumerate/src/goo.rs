//! Greedy Operator Ordering (Fegaras), the deterministic greedy heuristic of
//! the paper's Table 3.
//!
//! GOO maintains a forest of join trees, initially one per base relation, and
//! repeatedly merges the pair of trees whose join produces the smallest
//! (estimated) intermediate result, until a single tree remains.

use crate::planner::{EnumerationError, OptimizedPlan, Planner, Sub};

/// Runs Greedy Operator Ordering.
pub fn optimize_goo(planner: &Planner<'_>) -> Result<OptimizedPlan, EnumerationError> {
    planner.check_query()?;
    let query = planner.query;
    let mut forest: Vec<Sub> = (0..query.rel_count()).map(|r| planner.leaf_sub(r)).collect();
    while forest.len() > 1 {
        // Find the joinable pair with the smallest estimated output.
        let mut best_pair: Option<(usize, usize, f64)> = None;
        for i in 0..forest.len() {
            for j in i + 1..forest.len() {
                let (a, b) = (forest[i].entry.set, forest[j].entry.set);
                if !query.joins.iter().any(|e| e.connects(a, b)) {
                    continue;
                }
                let out = planner.rows(a.union(b));
                if best_pair.map(|(_, _, r)| out < r).unwrap_or(true) {
                    best_pair = Some((i, j, out));
                }
            }
        }
        let Some((i, j, _)) = best_pair else {
            // No joinable pair left although more than one tree remains: the
            // query graph is disconnected.
            return Err(EnumerationError::DisconnectedQuery);
        };
        // `i < j`: remove the higher index first so the lower one stays valid.
        let b = forest.swap_remove(j);
        let a = forest.swap_remove(i);
        forest.push(planner.join_subs(a, b));
    }
    let result = forest.pop().ok_or(EnumerationError::EmptyQuery)?;
    Ok(OptimizedPlan { plan: result.plan, cost: result.entry.cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpccp::optimize_bushy;
    use crate::planner::test_support::star_fixture;
    use crate::planner::PlannerConfig;
    use qob_cost::SimpleCostModel;
    use qob_storage::IndexConfig;

    #[test]
    fn goo_produces_a_valid_plan() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let goo = optimize_goo(&planner).unwrap();
        assert!(goo.plan.validate(&q).is_ok());
        assert_eq!(goo.plan.rels(), q.all_rels());
    }

    #[test]
    fn goo_is_never_better_than_exhaustive_dp() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let dp = optimize_bushy(&planner).unwrap();
        let goo = optimize_goo(&planner).unwrap();
        assert!(goo.cost >= dp.cost, "goo={} dp={}", goo.cost, dp.cost);
    }

    #[test]
    fn goo_is_deterministic() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let a = optimize_goo(&planner).unwrap();
        let b = optimize_goo(&planner).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn goo_rejects_disconnected_queries() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let mut disconnected = q.clone();
        disconnected.joins.clear();
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &disconnected, &model, &cards, PlannerConfig::default());
        assert_eq!(optimize_goo(&planner).unwrap_err(), EnumerationError::DisconnectedQuery);
    }

    #[test]
    fn goo_handles_single_relation() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let single = qob_plan::QuerySpec::new("one", vec![q.relations[2].clone()], vec![]);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &single, &model, &cards, PlannerConfig::default());
        let plan = optimize_goo(&planner).unwrap();
        assert!(plan.plan.is_leaf());
    }
}
