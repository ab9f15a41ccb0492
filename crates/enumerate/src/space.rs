//! Plan-space exploration: the cost of **every** bushy join tree of a query,
//! or an unbiased uniform sample of them (OptMark-style, Li et al.).
//!
//! The paper compares an optimizer's choice against the plans it *could*
//! have chosen (Figure 9 samples that space with Quickpick).  This module
//! makes the comparison exact: it enumerates the whole cross-product-free
//! bushy plan space and reports where any candidate plan ranks in it.
//!
//! Two properties keep exhaustive enumeration tractable:
//!
//! 1. **Join costs factor over sets.**  Every cost model prices a join from
//!    the cardinalities and base-relation status of its two inputs — never
//!    from their internal shape — so the cost of joining the subtrees over
//!    sets `A` and `B` is a pure function of `(A, B)`
//!    ([`Planner::cheapest_join`] of two zero-cost inputs).  The multiset of
//!    tree costs over a set `S` therefore satisfies
//!    `costs(S) = ⋃ over csg-cmp splits {A,B} of S: { a + b + jc(A,B) : a ∈ costs(A), b ∈ costs(B) }`,
//!    which is a dynamic program over the same csg-cmp pairs DPccp uses —
//!    costing all `T(S)` trees in `O(Σ |costs(A)|·|costs(B)|)` additions
//!    instead of rebuilding each tree.
//! 2. **Tree counts satisfy the same recurrence** with `+` for `⋃` and `×`
//!    for the cross sum, which yields both the exact size of the space and
//!    the split weights the uniform sampler needs.
//!
//! A "plan" here is an unordered bushy join tree over connected
//! subgraphs, with each join's orientation (build/probe) and algorithm
//! chosen cost-minimally for its pair of input sets — the same physical
//! selection and the same DP step DPccp applies (over the sorted pair list
//! here, in emission order there; both fill the same table), so the minimum
//! of the enumerated space coincides with
//! [`crate::dpccp::optimize_bushy`] (a differential test pins this on every
//! small JOB query).

use std::collections::HashMap;

use qob_plan::{QuerySpec, RelSet};
use rand::Rng;

use crate::dpccp::{ccp_pairs, fill_table, optimized_plan, seed_table};
use crate::planner::{Entry, EnumerationError, OptimizedPlan, PlanTable, Planner};

/// Limits for [`explore`]: when the space is exhausted vs. sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpaceOptions {
    /// Enumerate exhaustively only for queries with at most this many
    /// relations (the issue of scale the paper hits at ~10 relations).
    pub max_exhaustive_relations: usize,
    /// Enumerate exhaustively only when the total number of materialised
    /// subtree costs (Σ over connected sets of their tree counts) stays
    /// under this bound; larger spaces are sampled instead.
    pub max_exhaustive_plans: u128,
    /// Number of uniform samples drawn when the space is too large.
    pub samples: usize,
}

impl Default for PlanSpaceOptions {
    fn default() -> Self {
        PlanSpaceOptions {
            max_exhaustive_relations: 8,
            max_exhaustive_plans: 2_000_000,
            samples: 1_000,
        }
    }
}

/// The explored plan space of one query under one cost model and one
/// cardinality source.
#[derive(Debug, Clone)]
pub struct PlanSpace {
    /// True if `costs` holds *every* plan of the space; false if it holds
    /// `samples` uniform draws.
    pub exhaustive: bool,
    /// Exact number of plans in the space (bushy trees without cross
    /// products), regardless of whether they were all materialised.
    pub plan_count: u128,
    /// The cost population: all plan costs (exhaustive) or the sampled ones.
    pub costs: Vec<f64>,
    /// The optimum of the space, found by dynamic programming.
    pub optimum: OptimizedPlan,
    /// The DP table the optimum was rebuilt from: the optimal cost of every
    /// connected subexpression, used for subplan-optimality metrics.
    pub table: PlanTable,
}

impl PlanSpace {
    /// The rank of a plan with total cost `cost` in the population, as the
    /// fraction of plans *strictly* cheaper than it (0.0 = optimal, values
    /// near 1.0 = among the worst).  A relative tolerance absorbs the
    /// floating-point noise between tree-walk costing and the DP's
    /// accumulation order.
    pub fn rank_of(&self, cost: f64) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        let cheaper = self.costs.iter().filter(|&&c| c < cost * (1.0 - 1e-9)).count();
        cheaper as f64 / self.costs.len() as f64
    }

    /// Minimum cost present in the population (`None` when empty).
    pub fn min_cost(&self) -> Option<f64> {
        self.costs.iter().copied().min_by(f64::total_cmp)
    }
}

/// The number of cross-product-free bushy join trees of `query` (`1` for a
/// single relation).  Saturates at `u128::MAX` for astronomically large
/// spaces.
pub fn count_plans(query: &QuerySpec) -> u128 {
    let counts = tree_counts(query, &ccp_pairs(query));
    counts.get(&query.all_rels()).copied().unwrap_or(0)
}

/// Explores the plan space of the planner's query: exhaustively within
/// [`PlanSpaceOptions`] limits, by unbiased uniform sampling beyond them.
///
/// The sampler draws each tree with probability exactly `1 / plan_count`:
/// a tree for set `S` is built top-down by picking the csg-cmp split
/// `{A, B}` with probability `T(A)·T(B) / T(S)` and recursing — the product
/// of the choice probabilities along any complete tree telescopes to
/// `1 / T(root)`.
pub fn explore(
    planner: &Planner<'_>,
    options: &PlanSpaceOptions,
    rng: &mut impl Rng,
) -> Result<PlanSpace, EnumerationError> {
    let query = planner.query;
    let pairs = ccp_pairs(query);
    let mut table = seed_table(planner, &[])?;
    fill_table(planner, &mut table, &pairs);
    let optimum = optimized_plan(planner, &table, &[])?;

    let all = query.all_rels();
    let counts = tree_counts(query, &pairs);
    let plan_count = counts.get(&all).copied().unwrap_or(0);
    let total_materialised: u128 = counts.values().fold(0u128, |acc, &c| acc.saturating_add(c));

    // The join operator alone: the cheapest join of the two sides as
    // zero-cost inputs.
    let free = |set: RelSet| Entry { cost: 0.0, ..table[&set] };
    let pair_costs: HashMap<(RelSet, RelSet), f64> = pairs
        .iter()
        .map(|&(a, b)| {
            let joined = planner.cheapest_join(&free(a), &free(b), table[&a.union(b)].rows);
            ((a, b), joined.cost)
        })
        .collect();

    let exhaustive = query.rel_count() <= options.max_exhaustive_relations
        && total_materialised <= options.max_exhaustive_plans;
    let costs = if exhaustive {
        exhaustive_costs(query, &pairs, &pair_costs, &table)
    } else {
        let splits = splits_by_union(&pairs);
        (0..options.samples)
            .map(|_| sample_tree_cost(all, &splits, &counts, &pair_costs, &table, rng))
            .collect()
    };
    Ok(PlanSpace { exhaustive, plan_count, costs, optimum, table })
}

/// Tree counts per connected set: `T({r}) = 1`,
/// `T(S) = Σ over splits {A,B}: T(A)·T(B)` (saturating).
fn tree_counts(query: &QuerySpec, pairs: &[(RelSet, RelSet)]) -> HashMap<RelSet, u128> {
    let mut counts: HashMap<RelSet, u128> = HashMap::new();
    for rel in 0..query.rel_count() {
        counts.insert(RelSet::single(rel), 1);
    }
    for &(a, b) in pairs {
        let product = counts
            .get(&a)
            .copied()
            .unwrap_or(0)
            .saturating_mul(counts.get(&b).copied().unwrap_or(0));
        let entry = counts.entry(a.union(b)).or_insert(0);
        *entry = entry.saturating_add(product);
    }
    counts
}

/// Splits grouped by the set they produce, preserving the sorted pair order.
fn splits_by_union(pairs: &[(RelSet, RelSet)]) -> HashMap<RelSet, Vec<(RelSet, RelSet)>> {
    let mut splits: HashMap<RelSet, Vec<(RelSet, RelSet)>> = HashMap::new();
    for &(a, b) in pairs {
        splits.entry(a.union(b)).or_default().push((a, b));
    }
    splits
}

/// Materialises the cost of every tree over every connected set and returns
/// the full query's cost vector.
fn exhaustive_costs(
    query: &QuerySpec,
    pairs: &[(RelSet, RelSet)],
    pair_costs: &HashMap<(RelSet, RelSet), f64>,
    table: &PlanTable,
) -> Vec<f64> {
    let mut costs: HashMap<RelSet, Vec<f64>> = HashMap::new();
    for leaf in (0..query.rel_count()).map(RelSet::single) {
        costs.insert(leaf, vec![table[&leaf].cost]);
    }
    for &(a, b) in pairs {
        let jc = pair_costs[&(a, b)];
        let sums: Vec<f64> = {
            let (Some(va), Some(vb)) = (costs.get(&a), costs.get(&b)) else { continue };
            va.iter().flat_map(|&ca| vb.iter().map(move |&cb| ca + cb + jc)).collect()
        };
        costs.entry(a.union(b)).or_default().extend(sums);
    }
    costs.remove(&query.all_rels()).unwrap_or_default()
}

/// One uniform draw from the trees over `set`, returned as its total cost.
fn sample_tree_cost(
    set: RelSet,
    splits: &HashMap<RelSet, Vec<(RelSet, RelSet)>>,
    counts: &HashMap<RelSet, u128>,
    pair_costs: &HashMap<(RelSet, RelSet), f64>,
    table: &PlanTable,
    rng: &mut impl Rng,
) -> f64 {
    if set.len() == 1 {
        return table[&set].cost;
    }
    let total = counts.get(&set).copied().unwrap_or(0).max(1);
    let mut remaining = uniform_u128(rng, total);
    for &(a, b) in splits.get(&set).map(Vec::as_slice).unwrap_or(&[]) {
        let weight = counts
            .get(&a)
            .copied()
            .unwrap_or(0)
            .saturating_mul(counts.get(&b).copied().unwrap_or(0));
        if remaining < weight {
            let jc = pair_costs[&(a, b)];
            return sample_tree_cost(a, splits, counts, pair_costs, table, rng)
                + sample_tree_cost(b, splits, counts, pair_costs, table, rng)
                + jc;
        }
        remaining -= weight;
    }
    unreachable!("split weights sum to the tree count of the set");
}

/// Exact uniform draw from `[0, n)` by rejection sampling over 128-bit
/// words — no modulo bias.
fn uniform_u128(rng: &mut impl Rng, n: u128) -> u128 {
    debug_assert!(n > 0);
    if n == 1 {
        return 0;
    }
    // 2^128 mod n, computed without representing 2^128.
    let rem = (u128::MAX % n + 1) % n;
    // Accept x ≤ limit: exactly 2^128 − rem values, a multiple of n.
    let limit = u128::MAX - rem;
    loop {
        let x = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
        if x <= limit {
            return x % n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpccp::optimize_bushy;
    use crate::planner::test_support::star_fixture;
    use crate::planner::PlannerConfig;
    use qob_cost::SimpleCostModel;
    use qob_plan::{BaseRelation, JoinEdge, QuerySpec};
    use qob_storage::{ColumnId, IndexConfig, TableId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// For a chain of n relations the bushy cross-product-free tree count is
    /// the Catalan number C(n−1); for a star of n it is (n−1)!.
    #[test]
    fn plan_counts_match_closed_forms() {
        let catalan = [1u128, 1, 2, 5, 14, 42, 132, 429];
        for n in 2..=8usize {
            assert_eq!(count_plans(&chain_query(n)), catalan[n - 1], "chain of {n}");
        }
        let (_, star, _) = star_fixture(IndexConfig::PrimaryKeyOnly);
        assert_eq!(count_plans(&star), 6, "star of 4: 3! orders");
    }

    #[test]
    fn exhaustive_space_minimum_is_the_dp_optimum() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let space = explore(&planner, &PlanSpaceOptions::default(), &mut rng).unwrap();
        assert!(space.exhaustive);
        assert_eq!(space.plan_count, 6);
        assert_eq!(space.costs.len(), 6, "all plans materialised");
        let dp = optimize_bushy(&planner).unwrap();
        let min = space.min_cost().unwrap();
        assert!(
            (min - dp.cost).abs() <= 1e-9 * dp.cost.max(1.0),
            "space min {min} vs dp {}",
            dp.cost
        );
        assert!((space.optimum.cost - dp.cost).abs() <= 1e-9 * dp.cost.max(1.0));
        // The optimum ranks at the very bottom of its own space.
        assert_eq!(space.rank_of(space.optimum.cost), 0.0);
        // The DP table carries every connected subexpression.
        for sub in q.connected_subexpressions() {
            assert!(space.table.contains_key(&sub), "missing optimum for {sub}");
        }
    }

    #[test]
    fn sampling_kicks_in_beyond_the_limits_and_stays_within_the_space() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let exhaustive = explore(&planner, &PlanSpaceOptions::default(), &mut rng).unwrap();
        let options =
            PlanSpaceOptions { max_exhaustive_relations: 2, samples: 400, ..Default::default() };
        let sampled = explore(&planner, &options, &mut rng).unwrap();
        assert!(!sampled.exhaustive);
        assert_eq!(sampled.plan_count, exhaustive.plan_count);
        assert_eq!(sampled.costs.len(), 400);
        // Every sampled cost is one of the six true plan costs.
        let mut all = exhaustive.costs.clone();
        all.sort_by(f64::total_cmp);
        for &cost in &sampled.costs {
            assert!(
                all.iter().any(|&c| (c - cost).abs() <= 1e-9 * c.abs().max(1.0)),
                "sampled cost {cost} not in the exhaustive space"
            );
        }
        // Uniformity (coarse): with 400 draws over 6 plans, every plan
        // appears, and no plan hogs the sample.
        for &c in &all {
            let hits =
                sampled.costs.iter().filter(|&&s| (s - c).abs() <= 1e-9 * c.abs().max(1.0)).count();
            assert!(hits > 0, "plan with cost {c} never sampled");
        }
        // No sampled plan can beat the DP optimum.
        let min = sampled.min_cost().unwrap();
        assert!(min >= sampled.optimum.cost * (1.0 - 1e-9));
    }

    #[test]
    fn single_relation_space_is_the_scan() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let single = QuerySpec::new("one", vec![q.relations[0].clone()], vec![]);
        let model = SimpleCostModel::new();
        let planner = Planner::new(&db, &single, &model, &cards, PlannerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let space = explore(&planner, &PlanSpaceOptions::default(), &mut rng).unwrap();
        assert!(space.exhaustive);
        assert_eq!(space.plan_count, 1);
        assert_eq!(space.costs.len(), 1);
        assert_eq!(space.rank_of(space.costs[0]), 0.0);
    }

    #[test]
    fn uniform_u128_covers_small_ranges_without_bias_artifacts() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [0usize; 5];
        for _ in 0..5_000 {
            seen[uniform_u128(&mut rng, 5) as usize] += 1;
        }
        for (value, &count) in seen.iter().enumerate() {
            assert!(count > 800, "value {value} drawn only {count}/5000 times");
        }
        assert_eq!(uniform_u128(&mut rng, 1), 0);
    }
}
