//! The enumerator does exactly the work it has to, and rebuilds exactly the
//! plan it priced.
//!
//! DPccp keeps a table of `{cost, rows, winning split}` per relation set and
//! builds one operator tree at the end, so three things need pinning from
//! outside the crate: every connected subexpression is estimated exactly
//! once (a count, not a timing); the rebuilt tree is valid, complete, and
//! re-costs to the table's cost; fixed prefixes come back unchanged; and
//! pricing pairs in DPccp's emission order fills the same table as pricing
//! them sorted.

use std::cell::Cell;
use std::collections::HashMap;

use qob_cardest::CardinalityEstimator;
use qob_core::{BenchmarkContext, EstimatorKind};
use qob_cost::{plan_cost, CostContext, SimpleCostModel};
use qob_datagen::Scale;
use qob_enumerate::dpccp::optimize_bushy;
use qob_enumerate::goo::optimize_goo;
use qob_enumerate::{
    ccp_pairs, fill_table, for_each_ccp_pair, optimize_bushy_table, optimize_bushy_with_prefixes,
    EnumerationError, PlanTable, Planner, PlannerConfig, PrefixGroup,
};
use qob_plan::{JoinEdge, PhysicalPlan, QuerySpec, RelSet};
use qob_plangrid::{generate_many, GeneratorOptions};
use qob_storage::IndexConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts every call into the wrapped estimator.
struct Counting<'a> {
    inner: &'a dyn CardinalityEstimator,
    calls: Cell<usize>,
}

impl CardinalityEstimator for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        self.calls.set(self.calls.get() + 1);
        self.inner.estimate(query, set)
    }
}

/// Optimizes `query` and checks the work done and the plan rebuilt; returns
/// the number of estimator calls.
fn check_exact_work(
    ctx: &BenchmarkContext,
    query: &QuerySpec,
    estimator: &dyn CardinalityEstimator,
) -> usize {
    let model = SimpleCostModel::new();
    let counting = Counting { inner: estimator, calls: Cell::new(0) };
    let planner = Planner::new(ctx.db(), query, &model, &counting, PlannerConfig::default());
    let chosen = optimize_bushy(&planner).unwrap_or_else(|e| panic!("{}: {e}", query.name));
    let calls = counting.calls.get();
    let connected = query.connected_subexpressions().len();
    assert_eq!(
        calls, connected,
        "{}: one estimate per connected subexpression, no more, no fewer",
        query.name
    );
    // The plan-free table holds every connected set, agrees with the plan's
    // cost to the bit, and a second pass on one planner estimates nothing.
    let table = optimize_bushy_table(&planner, &[]).unwrap();
    assert_eq!(table.len(), connected, "{}", query.name);
    assert_eq!(table[&query.all_rels()].cost.to_bits(), chosen.cost.to_bits(), "{}", query.name);
    assert_eq!(counting.calls.get(), calls, "{}: the planner forgot an estimate", query.name);

    chosen.plan.validate(query).unwrap_or_else(|e| panic!("{}: {e}", query.name));
    assert_eq!(chosen.plan.rels(), query.all_rels(), "{}", query.name);
    let recosted = plan_cost(&model, &CostContext::new(ctx.db(), query), &chosen.plan, estimator);
    assert!(
        (recosted - chosen.cost).abs() <= 1e-9 * chosen.cost.abs().max(1.0),
        "{}: the rebuilt plan costs {recosted}, the table said {}",
        query.name,
        chosen.cost
    );
    calls
}

/// Adds one implied join edge that closes a cycle: two edges that share an
/// endpoint column `b.k` (`a.x = b.k`, `c.y = b.k`) imply `a.x = c.y`.
fn close_a_cycle(query: &mut QuerySpec) -> bool {
    let other_end = |e: &JoinEdge, rel: usize, column| {
        if (e.left, e.left_column) == (rel, column) {
            Some((e.right, e.right_column))
        } else if (e.right, e.right_column) == (rel, column) {
            Some((e.left, e.left_column))
        } else {
            None
        }
    };
    for (i, first) in query.joins.iter().enumerate() {
        for (rel, column) in [(first.left, first.left_column), (first.right, first.right_column)] {
            let (a, a_column) = other_end(first, rel, column).expect("an endpoint of the edge");
            for second in &query.joins[i + 1..] {
                let Some((c, c_column)) = other_end(second, rel, column) else { continue };
                let joined = RelSet::from_iter([a, c]);
                if a != c && !query.joins.iter().any(|e| e.rels() == joined) {
                    query.joins.push(JoinEdge {
                        left: a,
                        left_column: a_column,
                        right: c,
                        right_column: c_column,
                    });
                    return true;
                }
            }
        }
    }
    false
}

/// 200 generated queries over the fixture's FK graph; every other one that
/// has room for it gets a cycle closed.
fn generated_queries(ctx: &BenchmarkContext) -> Vec<QuerySpec> {
    let options = GeneratorOptions { max_relations: 9, ..Default::default() };
    let generated = generate_many(ctx.db(), &options, 200, 0x18, "g").unwrap();
    let mut cyclic = 0usize;
    let queries: Vec<QuerySpec> = generated
        .into_iter()
        .enumerate()
        .map(|(i, generated)| {
            let mut query = generated.spec;
            // The generator walks the FK graph into a tree.
            if i % 2 == 0 && close_a_cycle(&mut query) {
                assert!(query.joins.len() >= query.rel_count(), "{}: not cyclic", query.name);
                cyclic += 1;
            }
            query
        })
        .collect();
    assert!(cyclic >= 30, "only {cyclic} of 200 generated queries could be made cyclic");
    queries
}

/// DPccp prices each csg-cmp pair as it is emitted; `fill_table` over the
/// sorted pair list is the reference.  Every emitted pair's sides must be
/// final when it comes up (no later pair builds them), and the two tables
/// must agree entry for entry, to the bit.
fn check_emission_order(
    ctx: &BenchmarkContext,
    query: &QuerySpec,
    estimator: &dyn CardinalityEstimator,
) {
    let mut emitted = Vec::new();
    for_each_ccp_pair(query, |a, b| emitted.push((a, b)));
    let last_built: HashMap<RelSet, usize> =
        emitted.iter().enumerate().map(|(i, (a, b))| (a.union(*b), i)).collect();
    for (i, (a, b)) in emitted.iter().enumerate() {
        for side in [a, b] {
            if let Some(&built) = last_built.get(side) {
                assert!(
                    built < i,
                    "{}: pair {i} uses {side}, built again by pair {built}",
                    query.name
                );
            }
        }
    }

    // C_mm prices Hash and SortMerge alike and ignores orientation, so
    // equally cheap splits are common: the tie rule is exercised.
    let model = SimpleCostModel::new();
    let planner = Planner::new(ctx.db(), query, &model, estimator, PlannerConfig::default());
    let table = optimize_bushy_table(&planner, &[]).unwrap();
    let mut reference: PlanTable =
        (0..query.rel_count()).map(|rel| (RelSet::single(rel), planner.leaf(rel))).collect();
    fill_table(&planner, &mut reference, &ccp_pairs(query));
    assert_eq!(table.len(), reference.len(), "{}", query.name);
    let bits = |set: &RelSet, table: &PlanTable| {
        let entry = table.get(set).unwrap_or_else(|| panic!("{}: no entry for {set}", query.name));
        (entry.cost.to_bits(), entry.rows.to_bits(), entry.join)
    };
    for set in reference.keys() {
        assert_eq!(bits(set, &table), bits(set, &reference), "{}: {set}", query.name);
    }
}

#[test]
fn emission_order_fills_the_same_table_as_the_sorted_pairs() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let estimator = ctx.estimator(EstimatorKind::Postgres);
    for query in ctx.queries().iter().chain(&generated_queries(&ctx)) {
        check_emission_order(&ctx, query, estimator.as_ref());
    }
}

#[test]
fn dpccp_estimates_each_connected_subexpression_of_every_job_query_once() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let estimator = ctx.estimator(EstimatorKind::Postgres);
    let total: usize =
        ctx.queries().iter().map(|q| check_exact_work(&ctx, q, estimator.as_ref())).sum();
    // The sum over the 113 join graphs — the benchmark's
    // `cardest.estimate_calls` on `job_plan` and `job_exec`.
    assert_eq!(total, 46_202);
}

#[test]
fn dpccp_does_exact_work_on_generated_queries_cyclic_ones_included() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let estimator = ctx.estimator(EstimatorKind::Postgres);
    for query in generated_queries(&ctx) {
        check_exact_work(&ctx, &query, estimator.as_ref());
    }
}

#[test]
fn prefix_groups_come_back_unchanged_and_overlaps_are_rejected() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let estimator = ctx.estimator(EstimatorKind::Postgres);
    let model = SimpleCostModel::new();
    let mut rng = StdRng::seed_from_u64(0x18);
    let (mut with_groups, mut overlaps) = (0usize, 0usize);
    for query in ctx.queries().iter().filter(|q| (4..=12).contains(&q.rel_count())) {
        let planner =
            Planner::new(ctx.db(), query, &model, estimator.as_ref(), PlannerConfig::default());
        // Prefixes the DP would not have built itself: random disjoint
        // subtrees of the greedy plan, plus one bare scan.
        let greedy = optimize_goo(&planner).unwrap().plan;
        let mut taken = RelSet::empty();
        let mut groups = Vec::new();
        for set in greedy.join_rel_sets() {
            if set != query.all_rels() && set.is_disjoint(taken) && rng.gen_bool(0.4) {
                taken = taken.union(set);
                let plan = greedy.subplan(set).expect("a subtree of the plan").clone();
                groups.push(PrefixGroup { set, plan, rows: rng.gen_range(1..100_000) as f64 });
            }
        }
        if let Some(rel) = query.all_rels().minus(taken).min_rel() {
            let (set, plan) = (RelSet::single(rel), PhysicalPlan::scan(rel));
            groups.push(PrefixGroup { set, plan, rows: 7.0 });
        }

        let chosen = optimize_bushy_with_prefixes(&planner, &groups)
            .unwrap_or_else(|e| panic!("{}: {e}", query.name));
        chosen.plan.validate(query).unwrap_or_else(|e| panic!("{}: {e}", query.name));
        assert_eq!(chosen.plan.rels(), query.all_rels(), "{}", query.name);
        for group in &groups {
            assert_eq!(
                chosen.plan.subplan(group.set),
                Some(&group.plan),
                "{}: prefix {} was not grafted unchanged",
                query.name,
                group.set
            );
        }
        with_groups += usize::from(groups.len() >= 2);

        // A second group over relations already claimed is refused.
        if let Some(first) = groups.iter().find(|g| g.set.len() >= 2).cloned() {
            let rel = first.set.min_rel().expect("non-empty");
            let clash =
                PrefixGroup { set: RelSet::single(rel), plan: PhysicalPlan::scan(rel), rows: 1.0 };
            assert_eq!(
                optimize_bushy_with_prefixes(&planner, &[first, clash]).unwrap_err(),
                EnumerationError::OverlappingPrefixes,
                "{}",
                query.name
            );
            overlaps += 1;
        }
    }
    assert!(with_groups >= 40, "only {with_groups} queries planned around two or more prefixes");
    assert!(overlaps >= 40, "only {overlaps} overlap rejections exercised");
}
