//! Shape-restricted dynamic programming: left-deep, right-deep and zig-zag
//! trees (Section 6.2 / Table 2 of the paper).
//!
//! The restriction is structural:
//!
//! * **left-deep** — every join's probe (right) input is a base relation, so
//!   a new hash table is built from the result of each join;
//! * **right-deep** — every join's build (left) input is a base relation, so
//!   hash tables are built from base relations only and probing is pipelined;
//! * **zig-zag** — each join has at least one base-relation input (the union
//!   of the two classes).

use qob_plan::RelSet;

use crate::dpccp::{optimized_plan, seed_table};
use crate::planner::{Entry, EnumerationError, OptimizedPlan, Planner, ShapeRestriction};

/// Dynamic programming over connected subsets where every step extends the
/// current subplan by exactly one base relation, respecting `shape`.  Among
/// equally cheap candidates for a set the first one (lowest relation index
/// split off, composite-on-the-left first for zig-zag) wins.
pub fn optimize_restricted(
    planner: &Planner<'_>,
    shape: ShapeRestriction,
) -> Result<OptimizedPlan, EnumerationError> {
    if shape == ShapeRestriction::Bushy {
        return crate::dpccp::optimize_bushy(planner);
    }
    let query = planner.query;
    let mut table = seed_table(planner, &[])?;
    let adjacency = query.adjacency();
    for set in query.connected_subexpressions().into_iter().filter(|s| s.len() >= 2) {
        let rows = planner.rows(set);
        let mut best: Option<Entry> = None;
        for rel in set.iter() {
            let leaf = &table[&RelSet::single(rel)];
            let rest = set.minus(leaf.set);
            if !query.is_connected(rest, &adjacency) {
                continue;
            }
            let Some(rest) = table.get(&rest) else { continue };
            let candidate = match shape {
                // Composite on the left (build), base on the right (probe).
                ShapeRestriction::LeftDeep => planner.join(rest, leaf, rows),
                // Base on the left (build), composite on the right.
                ShapeRestriction::RightDeep => planner.join(leaf, rest, rows),
                ShapeRestriction::ZigZag => planner.cheapest_join(rest, leaf, rows),
                ShapeRestriction::Bushy => unreachable!("handled above"),
            };
            if best.is_none_or(|b| candidate.cost < b.cost) {
                best = Some(candidate);
            }
        }
        if let Some(best) = best {
            table.insert(set, best);
        }
    }
    optimized_plan(planner, &table, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::test_support::star_fixture;
    use crate::planner::PlannerConfig;
    use qob_cost::SimpleCostModel;
    use qob_plan::PlanShape;
    use qob_storage::IndexConfig;

    fn all_shapes() -> [ShapeRestriction; 3] {
        [ShapeRestriction::LeftDeep, ShapeRestriction::RightDeep, ShapeRestriction::ZigZag]
    }

    #[test]
    fn restricted_plans_have_the_requested_shape() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        for shape in all_shapes() {
            let result = optimize_restricted(&planner, shape).unwrap();
            assert!(result.plan.validate(&q).is_ok(), "{shape:?}");
            let got = result.plan.shape();
            match shape {
                ShapeRestriction::LeftDeep => assert_eq!(got, PlanShape::LeftDeep),
                ShapeRestriction::RightDeep => {
                    assert!(
                        got == PlanShape::RightDeep || got == PlanShape::LeftDeep,
                        "a 2-level right-deep tree also classifies as left-deep, got {got:?}"
                    )
                }
                ShapeRestriction::ZigZag => assert!(
                    got == PlanShape::ZigZag
                        || got == PlanShape::LeftDeep
                        || got == PlanShape::RightDeep
                ),
                ShapeRestriction::Bushy => unreachable!(),
            }
        }
    }

    #[test]
    fn zigzag_is_no_worse_than_left_or_right_deep() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let zig = optimize_restricted(&planner, ShapeRestriction::ZigZag).unwrap().cost;
        let left = optimize_restricted(&planner, ShapeRestriction::LeftDeep).unwrap().cost;
        let right = optimize_restricted(&planner, ShapeRestriction::RightDeep).unwrap().cost;
        assert!(zig <= left + 1e-9);
        assert!(zig <= right + 1e-9);
    }

    #[test]
    fn bushy_is_no_worse_than_zigzag() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let bushy = optimize_restricted(&planner, ShapeRestriction::Bushy).unwrap().cost;
        let zig = optimize_restricted(&planner, ShapeRestriction::ZigZag).unwrap().cost;
        assert!(bushy <= zig + 1e-9);
    }

    #[test]
    fn right_deep_cannot_use_index_lookups_above_the_bottom_join() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let right = optimize_restricted(&planner, ShapeRestriction::RightDeep).unwrap();
        // Index-nested-loop joins need a base relation on the *right*; in a
        // right-deep tree only the bottom-most join has one.
        let inl_count = right.plan.count_algorithm(qob_plan::JoinAlgorithm::IndexNestedLoop);
        assert!(inl_count <= 1, "at most the bottom join can be an INL, got {inl_count}");
    }

    #[test]
    fn single_relation_short_circuits() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let single = qob_plan::QuerySpec::new("one", vec![q.relations[0].clone()], vec![]);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &single, &model, &cards, PlannerConfig::default());
        for shape in all_shapes() {
            let plan = optimize_restricted(&planner, shape).unwrap();
            assert!(plan.plan.is_leaf());
        }
    }
}
