//! Exhaustive bushy-tree dynamic programming via connected-subgraph /
//! complement-pair (csg-cmp-pair) enumeration — DPccp (Moerkotte & Neumann),
//! the algorithm class the paper relies on for exhaustive enumeration
//! ("exhaustive dynamic programming", citations [29, 12]).

use std::collections::hash_map::Entry::{Occupied, Vacant};

use qob_plan::{PhysicalPlan, QuerySpec, RelSet};

use crate::planner::{Entry, EnumerationError, OptimizedPlan, PlanTable, Planner};

/// An already-executed plan prefix that re-planning must keep atomic: the
/// relation set it covers, the subplan that produced it (grafted unchanged
/// into any plan the enumerator returns) and its *observed* output rows.
///
/// Adaptive re-optimization builds one group per materialised intermediate
/// and treats each as a zero-cost virtual base relation — its work is sunk.
#[derive(Debug, Clone)]
pub struct PrefixGroup {
    /// The relations the prefix covers (must be a connected subgraph).
    pub set: RelSet,
    /// The executed subplan producing the prefix.
    pub plan: PhysicalPlan,
    /// The observed (true) output cardinality of the prefix.
    pub rows: f64,
}

/// Enumerates every connected subgraph reachable by extending `s` with
/// subsets of its neighbourhood, excluding `x` (the standard
/// `EnumerateCsgRec`).
fn enumerate_csg_rec(
    query: &QuerySpec,
    adjacency: &[RelSet],
    s: RelSet,
    x: RelSet,
    emit: &mut impl FnMut(RelSet),
) {
    let n = query.neighbors(s, adjacency).minus(x);
    if n.is_empty() {
        return;
    }
    for s_prime in n.subsets() {
        emit(s.union(s_prime));
    }
    for s_prime in n.subsets() {
        enumerate_csg_rec(query, adjacency, s.union(s_prime), x.union(n), emit);
    }
}

/// Enumerates all connected subgraphs of the query's join graph
/// (`EnumerateCsg`).
fn enumerate_csg(query: &QuerySpec, adjacency: &[RelSet], emit: &mut impl FnMut(RelSet)) {
    let n = query.rel_count();
    for i in (0..n).rev() {
        let v = RelSet::single(i);
        emit(v);
        enumerate_csg_rec(query, adjacency, v, RelSet::first_n(i + 1), emit);
    }
}

/// Enumerates all connected complements of `s1` (`EnumerateCmp`).
fn enumerate_cmp(
    query: &QuerySpec,
    adjacency: &[RelSet],
    s1: RelSet,
    emit: &mut impl FnMut(RelSet),
) {
    let min = s1.min_rel().expect("non-empty csg");
    let x = RelSet::first_n(min + 1).union(s1);
    let neighbors = query.neighbors(s1, adjacency).minus(x);
    let mut rest = neighbors;
    while let Some(vi) = rest.max_rel() {
        let v = RelSet::single(vi);
        rest = rest.minus(v);
        emit(v);
        let below_vi = RelSet::first_n(vi + 1);
        enumerate_csg_rec(query, adjacency, v, x.union(below_vi.intersect(neighbors)), emit);
    }
}

/// Calls `emit(A, B)` for every csg-cmp pair of the query's join graph:
/// each unordered pair of disjoint, connected, edge-connected subgraphs
/// exactly once, with `A` the side that holds the pair's lowest relation.
///
/// Pairs come in DPccp's own order (`EnumerateCsg`, and for each csg its
/// `EnumerateCmp`), which is a valid dynamic-programming order: when a pair
/// comes up, every pair whose union is `A` or `B` has already come up.
pub fn for_each_ccp_pair(query: &QuerySpec, mut emit: impl FnMut(RelSet, RelSet)) {
    let adjacency = query.adjacency();
    enumerate_csg(query, &adjacency, &mut |s1| {
        enumerate_cmp(query, &adjacency, s1, &mut |s2| emit(s1, s2));
    });
}

/// All csg-cmp pairs of the query's join graph ([`for_each_ccp_pair`]),
/// sorted by increasing size of the union, then union bits, then left-side
/// bits: all splits of one set are adjacent, and every pair comes after the
/// pairs that build its sides.  The plan-space module walks this list.
pub fn ccp_pairs(query: &QuerySpec) -> Vec<(RelSet, RelSet)> {
    let mut pairs = Vec::new();
    for_each_ccp_pair(query, |s1, s2| pairs.push((s1, s2)));
    pairs.sort_unstable_by_key(|(a, b)| {
        let u = a.union(*b);
        (u.len(), u.bits(), a.bits())
    });
    pairs
}

/// Exhaustive bushy dynamic programming over the csg-cmp pairs.
///
/// Each pair is priced as DPccp emits it ([`for_each_ccp_pair`]), whose order
/// guarantees that both sides of every pair already carry their optimal
/// subplan.
pub fn optimize_bushy(planner: &Planner<'_>) -> Result<OptimizedPlan, EnumerationError> {
    optimize_bushy_with_prefixes(planner, &[])
}

/// [`optimize_bushy`] with fixed plan prefixes: each [`PrefixGroup`] enters
/// the dynamic-programming table as an atomic unit — its subplan appears
/// unchanged in the result, its cost is sunk to zero (the work is done), and
/// its observed rows replace the estimate.  Relations inside a group are
/// *not* seeded as individual leaves, so no enumerated pair can tear a
/// group apart: every table entry is, by induction, a union of whole groups
/// and free relations.
///
/// This is the re-planning half of adaptive execution: materialised
/// intermediates become virtual base relations and the enumerator picks the
/// best join order for everything that has not run yet.
pub fn optimize_bushy_with_prefixes(
    planner: &Planner<'_>,
    groups: &[PrefixGroup],
) -> Result<OptimizedPlan, EnumerationError> {
    optimized_plan(planner, &optimize_bushy_table(planner, groups)?, groups)
}

/// The complete dynamic-programming table behind
/// [`optimize_bushy_with_prefixes`]: the optimal cost, rows and winning split
/// of *every* connected union of whole groups and free relations — no plans.
/// Without groups those are the per-subexpression optima the plan-space
/// metrics (subplan optimality, OptMark-style) compare candidate subtrees
/// against.
pub fn optimize_bushy_table(
    planner: &Planner<'_>,
    groups: &[PrefixGroup],
) -> Result<PlanTable, EnumerationError> {
    let mut table = seed_table(planner, groups)?;
    // A single group (or a single-relation query) may already cover
    // everything: then nothing is left to enumerate.
    if !table.contains_key(&planner.query.all_rels()) {
        for_each_ccp_pair(planner.query, |a, b| relax(planner, &mut table, a, b));
    }
    Ok(table)
}

/// Validates the query and the groups, and seeds a table with the atomic
/// inputs: every prefix group, and every relation outside all groups.
pub(crate) fn seed_table(
    planner: &Planner<'_>,
    groups: &[PrefixGroup],
) -> Result<PlanTable, EnumerationError> {
    planner.check_query()?;
    let mut grouped = RelSet::empty();
    let mut table = PlanTable::default();
    for group in groups {
        if !group.set.is_disjoint(grouped) {
            return Err(EnumerationError::OverlappingPrefixes);
        }
        grouped = grouped.union(group.set);
        let rows = group.rows.max(1.0);
        table.insert(group.set, Entry { set: group.set, cost: 0.0, rows, join: None });
    }
    for rel in planner.query.all_rels().minus(grouped).iter() {
        table.insert(RelSet::single(rel), planner.leaf(rel));
    }
    Ok(table)
}

/// The DP over a list of csg-cmp pairs in any valid dynamic-programming
/// order: each pair is priced if both its sides are in the table, and
/// replaces the entry of its union on a lower cost, or on an equal cost and
/// a smaller `bits(A)` (the step [`optimize_bushy_table`] takes as DPccp
/// emits each pair).  The plan-space module runs it over the sorted
/// [`ccp_pairs`]; it fills the same table as [`optimize_bushy_table`],
/// entry for entry.
pub fn fill_table(planner: &Planner<'_>, table: &mut PlanTable, pairs: &[(RelSet, RelSet)]) {
    for &(a, b) in pairs {
        relax(planner, table, a, b);
    }
}

/// The one dynamic-programming step: prices the csg-cmp pair `(a, b)` if
/// both sides are in the table (under prefix groups some are not) and keeps
/// it for `a ∪ b` if it beats the incumbent.  `a` holds the set's lowest
/// relation.  The candidate wins on a lower cost, or on an equal cost and a
/// smaller `bits(a)` — so the winner of a set is the minimum by
/// `(cost, bits(a))` whatever order its pairs arrive in, the same winner as
/// "the earliest of the sorted pairs wins ties".  The union is estimated
/// once, by its first pair.
fn relax(planner: &Planner<'_>, table: &mut PlanTable, a: RelSet, b: RelSet) {
    let (Some(&left), Some(&right)) = (table.get(&a), table.get(&b)) else {
        return;
    };
    let set = a.union(b);
    match table.entry(set) {
        Occupied(mut incumbent) => {
            // An atomic input (a leaf or a prefix group) is never split.
            let Some((build, probe, _)) = incumbent.get().join else {
                return;
            };
            let lowest = set.min_rel().expect("a non-empty union");
            let incumbent_a = if build.contains(lowest) { build } else { probe };
            let incumbent_cost = incumbent.get().cost;
            let candidate = planner.cheapest_join(&left, &right, incumbent.get().rows);
            if candidate.cost < incumbent_cost
                || (candidate.cost == incumbent_cost && a.bits() < incumbent_a.bits())
            {
                incumbent.insert(candidate);
            }
        }
        Vacant(slot) => {
            slot.insert(planner.cheapest_join(&left, &right, planner.rows(set)));
        }
    }
}

/// The full query's entry of a filled table as a plan with its cost.
pub(crate) fn optimized_plan(
    planner: &Planner<'_>,
    table: &PlanTable,
    groups: &[PrefixGroup],
) -> Result<OptimizedPlan, EnumerationError> {
    let all = planner.query.all_rels();
    let cost = table.get(&all).ok_or(EnumerationError::DisconnectedQuery)?.cost;
    Ok(OptimizedPlan { plan: build_plan(planner, table, groups, all), cost })
}

/// Rebuilds the operator tree of `set` top-down from the winning splits:
/// scans for free relations, the group's own subplan (unchanged) for a
/// prefix group, and join keys derived once per chosen join.
fn build_plan(
    planner: &Planner<'_>,
    table: &PlanTable,
    groups: &[PrefixGroup],
    set: RelSet,
) -> PhysicalPlan {
    match table[&set].join {
        Some((left, right, algorithm)) => PhysicalPlan::join(
            algorithm,
            build_plan(planner, table, groups, left),
            build_plan(planner, table, groups, right),
            planner.join_keys(left, right),
        ),
        None => match groups.iter().find(|group| group.set == set) {
            Some(group) => group.plan.clone(),
            None => PhysicalPlan::scan(set.min_rel().expect("atomic entries are non-empty")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::test_support::star_fixture;
    use crate::planner::PlannerConfig;
    use qob_cost::SimpleCostModel;
    use qob_plan::{BaseRelation, JoinEdge, PlanShape};
    use qob_storage::{ColumnId, IndexConfig, TableId};

    fn chain_query(n: usize) -> QuerySpec {
        QuerySpec::new(
            format!("chain{n}"),
            (0..n).map(|i| BaseRelation::unfiltered(TableId(0), format!("r{i}"))).collect(),
            (0..n - 1)
                .map(|i| JoinEdge {
                    left: i,
                    left_column: ColumnId(0),
                    right: i + 1,
                    right_column: ColumnId(1),
                })
                .collect(),
        )
    }

    fn clique_query(n: usize) -> QuerySpec {
        let mut joins = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                joins.push(JoinEdge {
                    left: i,
                    left_column: ColumnId(0),
                    right: j,
                    right_column: ColumnId(1),
                });
            }
        }
        QuerySpec::new(
            format!("clique{n}"),
            (0..n).map(|i| BaseRelation::unfiltered(TableId(0), format!("r{i}"))).collect(),
            joins,
        )
    }

    /// Number of csg-cmp pairs for a chain of n relations is
    /// `(n³ − n) / 6` counting each unordered pair once.
    #[test]
    fn ccp_count_matches_formula_for_chains() {
        for n in 2..=8 {
            let q = chain_query(n);
            let pairs = ccp_pairs(&q);
            let expected = (n * n * n - n) / 6;
            assert_eq!(pairs.len(), expected, "chain of {n}");
            // Every pair is disjoint, connected and edge-connected.
            let adjacency = q.adjacency();
            for (a, b) in &pairs {
                assert!(a.is_disjoint(*b));
                assert!(q.is_connected(*a, &adjacency));
                assert!(q.is_connected(*b, &adjacency));
                assert!(!q.edges_between(*a, *b).is_empty());
            }
        }
    }

    /// For a clique of n relations the count is `(3^n − 2^(n+1) + 1) / 2`.
    #[test]
    fn ccp_count_matches_formula_for_cliques() {
        for n in 2..=6usize {
            let q = clique_query(n);
            let pairs = ccp_pairs(&q);
            let expected = (3usize.pow(n as u32) - 2usize.pow(n as u32 + 1)).div_ceil(2);
            assert_eq!(pairs.len(), expected, "clique of {n}");
        }
    }

    #[test]
    fn no_duplicate_pairs() {
        let q = chain_query(6);
        let pairs = ccp_pairs(&q);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in pairs {
            let key = if a.bits() < b.bits() { (a.bits(), b.bits()) } else { (b.bits(), a.bits()) };
            assert!(seen.insert(key), "duplicate pair {a} / {b}");
        }
    }

    #[test]
    fn dp_finds_a_valid_optimal_plan() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let result = optimize_bushy(&planner).unwrap();
        assert!(result.plan.validate(&q).is_ok());
        assert_eq!(result.plan.rels(), q.all_rels());
        assert!(result.cost > 0.0);
    }

    #[test]
    fn dp_is_no_worse_than_any_left_deep_order() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let bushy = optimize_bushy(&planner).unwrap();
        let left_deep = crate::restricted::optimize_restricted(
            &planner,
            crate::planner::ShapeRestriction::LeftDeep,
        )
        .unwrap();
        assert!(
            bushy.cost <= left_deep.cost,
            "bushy DP ({}) must not lose to the left-deep optimum ({})",
            bushy.cost,
            left_deep.cost
        );
    }

    #[test]
    fn single_relation_query() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let single = QuerySpec::new("one", vec![q.relations[1].clone()], vec![]);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &single, &model, &cards, PlannerConfig::default());
        let plan = optimize_bushy(&planner).unwrap();
        assert!(plan.plan.is_leaf());
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let mut disconnected = q.clone();
        disconnected.joins.clear();
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &disconnected, &model, &cards, PlannerConfig::default());
        assert_eq!(optimize_bushy(&planner).unwrap_err(), EnumerationError::DisconnectedQuery);
    }

    #[test]
    fn prefix_groups_stay_atomic_and_carry_zero_cost() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        // Pretend f ⋈ d2 already executed as a hash join with 9000 observed
        // rows (the true-cardinality table says 9000 for {0,2}).
        let executed = PhysicalPlan::join(
            qob_plan::JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(2),
            vec![qob_plan::JoinKey {
                left_rel: 0,
                left_column: ColumnId(2),
                right_rel: 2,
                right_column: ColumnId(0),
            }],
        );
        let group =
            PrefixGroup { set: RelSet::from_iter([0, 2]), plan: executed.clone(), rows: 9000.0 };
        let result = optimize_bushy_with_prefixes(&planner, &[group]).unwrap();
        assert!(result.plan.validate(&q).is_ok());
        // The executed prefix appears unchanged as a subtree.
        assert_eq!(result.plan.subplan(RelSet::from_iter([0, 2])), Some(&executed));
        // Its cost is sunk: the total must not exceed a from-scratch plan
        // that still pays for scanning f and d2.
        let scratch = optimize_bushy(&planner).unwrap();
        assert!(result.cost <= scratch.cost + 1e-9, "{} vs {}", result.cost, scratch.cost);
    }

    #[test]
    fn a_prefix_covering_everything_is_returned_as_is() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let whole = optimize_bushy(&planner).unwrap();
        let group = PrefixGroup { set: q.all_rels(), plan: whole.plan.clone(), rows: 123.0 };
        let result = optimize_bushy_with_prefixes(&planner, &[group]).unwrap();
        assert_eq!(result.plan, whole.plan);
        assert_eq!(result.cost, 0.0, "everything already ran");
    }

    #[test]
    fn overlapping_prefixes_are_rejected() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let a =
            PrefixGroup { set: RelSet::from_iter([0, 1]), plan: PhysicalPlan::scan(0), rows: 1.0 };
        let b =
            PrefixGroup { set: RelSet::from_iter([0, 2]), plan: PhysicalPlan::scan(0), rows: 1.0 };
        assert_eq!(
            optimize_bushy_with_prefixes(&planner, &[a, b]).unwrap_err(),
            EnumerationError::OverlappingPrefixes
        );
    }

    #[test]
    fn bushy_plans_emerge_when_beneficial() {
        // With a chain a–b–c–d where both ends are tiny and the middle is
        // huge, the optimal plan joins (a⋈b) and (c⋈d) first — a bushy tree.
        use qob_cardest::TrueCardinalities;
        use qob_storage::{ColumnMeta, DataType, Database, TableBuilder, Value};
        let mut db = Database::new();
        for (name, rows) in [("a", 10usize), ("b", 10_000), ("c", 10_000), ("d", 10)] {
            let mut t = TableBuilder::new(
                name,
                vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("fk", DataType::Int)],
            );
            for i in 0..rows.min(50) {
                t.push_row(vec![Value::Int(i as i64), Value::Int(i as i64)]).unwrap();
            }
            db.add_table(t.finish()).unwrap();
        }
        let q = QuerySpec::new(
            "bushy",
            ["a", "b", "c", "d"]
                .iter()
                .map(|n| BaseRelation::unfiltered(db.table_id(n).unwrap(), *n))
                .collect(),
            vec![
                JoinEdge { left: 0, left_column: ColumnId(0), right: 1, right_column: ColumnId(1) },
                JoinEdge { left: 1, left_column: ColumnId(0), right: 2, right_column: ColumnId(1) },
                JoinEdge { left: 2, left_column: ColumnId(0), right: 3, right_column: ColumnId(1) },
            ],
        );
        let mut cards = TrueCardinalities::new();
        cards.insert(RelSet::single(0), 10.0);
        cards.insert(RelSet::single(1), 10_000.0);
        cards.insert(RelSet::single(2), 10_000.0);
        cards.insert(RelSet::single(3), 10.0);
        cards.insert(RelSet::from_iter([0, 1]), 20.0);
        cards.insert(RelSet::from_iter([1, 2]), 1_000_000.0);
        cards.insert(RelSet::from_iter([2, 3]), 20.0);
        cards.insert(RelSet::from_iter([0, 1, 2]), 2_000.0);
        cards.insert(RelSet::from_iter([1, 2, 3]), 2_000.0);
        cards.insert(RelSet::from_iter([0, 1, 2, 3]), 40.0);
        let model = SimpleCostModel::new();
        let cfg = PlannerConfig { allow_index_nested_loop: false, ..Default::default() };
        let planner = Planner::new(&db, &q, &model, &cards, cfg);
        let bushy = optimize_bushy(&planner).unwrap();
        assert_eq!(bushy.plan.shape(), PlanShape::Bushy, "plan: {}", bushy.plan);
        let left_deep = crate::restricted::optimize_restricted(
            &planner,
            crate::planner::ShapeRestriction::LeftDeep,
        )
        .unwrap();
        assert!(bushy.cost < left_deep.cost, "the bushy plan must be strictly cheaper here");
    }
}
