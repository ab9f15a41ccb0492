//! The effectiveness grid: estimator × cost-model × enumerator, each cell
//! ranked against the true plan-space optimum.
//!
//! For every query the runner first explores the plan space **under true
//! cardinalities** (runtime truth from [`BenchmarkContext`] overlaid exactly
//! via [`FeedbackEstimator`]) — exhaustively for small queries, by unbiased
//! uniform sampling beyond [`PlanSpaceOptions`] limits — to find the true
//! optimum and the cost population.  It then lets every estimator ×
//! cost-model × enumerator combination pick its plan, re-costs that plan
//! under the *truth*, and reports per cell:
//!
//! * **optimal-plan ratio** — the fraction of queries where the chosen plan
//!   costs no more than the true optimum (OptMark's effectiveness metric),
//! * **cost ratio** — chosen-plan true cost over optimum cost (geometric
//!   mean across queries),
//! * **plan-rank percentile** — the fraction of the explored space that is
//!   strictly cheaper than the chosen plan (0 = optimal),
//! * **subplan optimality** — the fraction of the chosen plan's join
//!   subtrees that are themselves optimal for their relation set.
//!
//! Under the `true` estimator with the `dpccp` enumerator the chosen plan
//! *is* the space optimum by construction, so the optimal-plan ratio must
//! be exactly 1.0 — the CI smoke asserts this invariant on every push.

use std::fmt;

use qob_cardest::{nearest_rank_percentile, CardinalityEstimator, FeedbackEstimator};
use qob_core::{geometric_mean, BenchmarkContext, EstimatorKind};
use qob_cost::{CostModel, PostgresCostModel, SimpleCostModel};
use qob_enumerate::space::{explore, PlanSpaceOptions};
use qob_enumerate::{
    dpccp, goo, quickpick, restricted, EnumerationError, PlanTable, Planner, PlannerConfig,
    ShapeRestriction,
};
use qob_plan::{PhysicalPlan, QuerySpec};
use qob_storage::encoding::fnv1a64;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Relative tolerance for "costs the same as the optimum" in the
/// optimal-plan and subplan-optimality metrics.  The DP and the re-costing
/// share one cost rule, so the optimum itself compares exactly equal; the
/// tolerance is part of the metrics' definition (plans within it of the
/// optimum count as optimal), and the report's numbers depend on it.
const COST_EPS: f64 = 1e-9;

/// The enumerators the grid exercises, in reporting order.
pub const ENUMERATORS: [&str; 4] = ["dpccp", "left-deep", "goo", "quickpick"];

/// The cost models the grid exercises, in reporting order.
pub const COST_MODELS: [&str; 3] = ["cmm", "postgres", "postgres-mm"];

/// Knobs for [`run_grid`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridOptions {
    /// Master seed: drives plan-space sampling and Quickpick. Two runs with
    /// the same seed, queries and context produce identical reports.
    pub seed: u64,
    /// When the plan space is exhausted vs. sampled.
    pub space: PlanSpaceOptions,
    /// Random plans per query for the `quickpick` enumerator.
    pub quickpick_runs: usize,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions { seed: 0, space: PlanSpaceOptions::default(), quickpick_runs: 100 }
    }
}

/// One query × estimator × cost-model × enumerator measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCell {
    /// Query name.
    pub query: String,
    /// Estimator wire name (`true`, `postgres`, `hyper`, ...).
    pub estimator: &'static str,
    /// Cost model wire name (`cmm`, `postgres`, `postgres-mm`).
    pub cost_model: &'static str,
    /// Enumerator wire name (`dpccp`, `left-deep`, `goo`, `quickpick`).
    pub enumerator: &'static str,
    /// Chosen-plan true cost over the space optimum's cost (≥ 1 up to
    /// floating-point noise).
    pub cost_ratio: f64,
    /// Fraction of the explored space strictly cheaper than the chosen plan.
    pub rank: f64,
    /// Fraction of the chosen plan's join subtrees that are optimal for
    /// their relation set.
    pub subplan_optimality: f64,
    /// True when the chosen plan costs no more than the optimum.
    pub optimal: bool,
}

/// Aggregate over all queries for one estimator × cost-model × enumerator.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Estimator wire name.
    pub estimator: &'static str,
    /// Cost model wire name.
    pub cost_model: &'static str,
    /// Enumerator wire name.
    pub enumerator: &'static str,
    /// Queries measured.
    pub queries: usize,
    /// Queries where the chosen plan matched the optimum cost.
    pub optimal_queries: usize,
    /// `optimal_queries / queries` — OptMark's optimal-plan ratio.
    pub optimal_plan_ratio: f64,
    /// Geometric mean of the per-query cost ratios.
    pub geo_mean_cost_ratio: f64,
    /// Median (nearest-rank) plan-rank percentile.
    pub median_rank: f64,
    /// Arithmetic mean of per-query subplan optimality.
    pub mean_subplan_optimality: f64,
}

/// How one query's plan space was explored under one cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSummary {
    /// Query name.
    pub query: String,
    /// Cost model wire name.
    pub cost_model: &'static str,
    /// Number of relations joined.
    pub relations: usize,
    /// True when every plan of the space was costed.
    pub exhaustive: bool,
    /// Exact size of the bushy cross-product-free plan space.
    pub plan_count: u128,
    /// Number of plan costs in the explored population.
    pub explored: usize,
}

/// The full grid report, ready for JSON serialisation by the CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// One aggregate per estimator × cost-model × enumerator.
    pub cells: Vec<CellMetrics>,
    /// Every individual measurement.
    pub per_query: Vec<QueryCell>,
    /// How each query's space was explored, per cost model.
    pub spaces: Vec<SpaceSummary>,
}

/// Why the grid run failed.
#[derive(Debug)]
pub enum GridError {
    /// True cardinalities could not be extracted for a query.
    Truth {
        /// The query that failed.
        query: String,
        /// The execution error, rendered.
        detail: String,
    },
    /// An enumerator failed on a query.
    Enumeration {
        /// The query that failed.
        query: String,
        /// The underlying error.
        error: EnumerationError,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Truth { query, detail } => {
                write!(f, "true cardinalities unavailable for `{query}`: {detail}")
            }
            GridError::Enumeration { query, error } => {
                write!(f, "enumeration failed for `{query}`: {error:?}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Wire name of a cardinality estimator profile, matching
/// [`EstimatorKind::parse`].
fn wire_name(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::Postgres => "postgres",
        EstimatorKind::PostgresTrueDistinct => "true-distinct",
        EstimatorKind::HyPer => "hyper",
        EstimatorKind::DbmsA => "dbms-a",
        EstimatorKind::DbmsB => "dbms-b",
        EstimatorKind::DbmsC => "dbms-c",
    }
}

/// The estimator profiles the grid exercises, in reporting order: `true`
/// (runtime truth overlay) first, then every synthetic profile.
const ESTIMATOR_KINDS: [EstimatorKind; 6] = [
    EstimatorKind::Postgres,
    EstimatorKind::PostgresTrueDistinct,
    EstimatorKind::HyPer,
    EstimatorKind::DbmsA,
    EstimatorKind::DbmsB,
    EstimatorKind::DbmsC,
];

/// All estimator wire names in reporting order (`true` + profiles).
pub fn estimator_names() -> Vec<&'static str> {
    let mut names = vec!["true"];
    names.extend(ESTIMATOR_KINDS.iter().map(|&k| wire_name(k)));
    names
}

/// FNV-1a over the query name folded with the master seed and a per-cell
/// salt — gives every (query, model, cell) its own deterministic RNG stream.
fn cell_seed(seed: u64, name: &str, model: usize, salt: u64) -> u64 {
    fnv1a64(name.as_bytes()) ^ seed.rotate_left(17) ^ ((model as u64) << 8) ^ salt
}

/// Runs the grid over `queries` (JOB or generated), exploring each query's
/// plan space under truth once per cost model.
pub fn run_grid(
    ctx: &BenchmarkContext,
    queries: &[QuerySpec],
    options: &GridOptions,
) -> Result<GridReport, GridError> {
    let models: Vec<(&'static str, Box<dyn CostModel>)> = vec![
        ("cmm", Box::new(SimpleCostModel::new())),
        ("postgres", Box::new(PostgresCostModel::standard())),
        ("postgres-mm", Box::new(PostgresCostModel::tuned_for_main_memory())),
    ];
    let config = PlannerConfig::default();
    let mut per_query: Vec<QueryCell> = Vec::new();
    let mut spaces: Vec<SpaceSummary> = Vec::new();

    for query in queries {
        let truth = ctx
            .try_true_cardinalities(query)
            .map_err(|e| GridError::Truth { query: query.name.clone(), detail: e.to_string() })?;
        let fallback = ctx.estimator(EstimatorKind::Postgres);
        let truth_est = FeedbackEstimator::new(truth.as_ref(), fallback.as_ref());
        let profiles: Vec<(&'static str, Box<dyn CardinalityEstimator + '_>)> =
            ESTIMATOR_KINDS.iter().map(|&k| (wire_name(k), ctx.estimator(k))).collect();

        for (mi, (model_name, model)) in models.iter().enumerate() {
            let truth_planner = Planner::new(ctx.db(), query, model.as_ref(), &truth_est, config);
            let mut space_rng = StdRng::seed_from_u64(cell_seed(options.seed, &query.name, mi, 0));
            let space = explore(&truth_planner, &options.space, &mut space_rng)
                .map_err(|error| GridError::Enumeration { query: query.name.clone(), error })?;
            spaces.push(SpaceSummary {
                query: query.name.clone(),
                cost_model: model_name,
                relations: query.rel_count(),
                exhaustive: space.exhaustive,
                plan_count: space.plan_count,
                explored: space.costs.len(),
            });
            let opt_cost = space.optimum.cost;

            let mut estimators: Vec<(&'static str, &dyn CardinalityEstimator)> =
                vec![("true", &truth_est)];
            estimators.extend(
                profiles.iter().map(|(n, b)| (*n, b.as_ref() as &dyn CardinalityEstimator)),
            );
            for (ei, (est_name, est)) in estimators.iter().enumerate() {
                let planner = Planner::new(ctx.db(), query, model.as_ref(), *est, config);
                for (ni, &enum_name) in ENUMERATORS.iter().enumerate() {
                    let chosen = match enum_name {
                        "dpccp" => dpccp::optimize_bushy(&planner),
                        "left-deep" => {
                            restricted::optimize_restricted(&planner, ShapeRestriction::LeftDeep)
                        }
                        "goo" => goo::optimize_goo(&planner),
                        _ => {
                            let salt = 1 + (ei as u64) * ENUMERATORS.len() as u64 + ni as u64;
                            let mut rng = StdRng::seed_from_u64(cell_seed(
                                options.seed,
                                &query.name,
                                mi,
                                salt,
                            ));
                            quickpick::quickpick_best(&planner, options.quickpick_runs, &mut rng)
                        }
                    }
                    .map_err(|error| GridError::Enumeration { query: query.name.clone(), error })?;
                    let true_cost = truth_planner.cost_of(&chosen.plan);
                    let cost_ratio = if opt_cost > 0.0 { true_cost / opt_cost } else { 1.0 };
                    per_query.push(QueryCell {
                        query: query.name.clone(),
                        estimator: est_name,
                        cost_model: model_name,
                        enumerator: enum_name,
                        cost_ratio,
                        rank: space.rank_of(true_cost),
                        subplan_optimality: subplan_optimality(
                            &truth_planner,
                            &chosen.plan,
                            &space.table,
                        ),
                        optimal: true_cost <= opt_cost * (1.0 + COST_EPS),
                    });
                }
            }
        }
    }

    Ok(GridReport { cells: aggregate(&per_query), per_query, spaces })
}

/// Fraction of `plan`'s join subtrees whose cost under `truth` (a planner
/// over true cardinalities) matches the optimal cost of their relation set
/// (1.0 for a plan with no joins).
fn subplan_optimality(truth: &Planner<'_>, plan: &PhysicalPlan, optimal: &PlanTable) -> f64 {
    let sets = plan.join_rel_sets();
    if sets.is_empty() {
        return 1.0;
    }
    let optimal = sets
        .iter()
        .filter(|&&set| {
            let sub = plan.subplan(set).expect("join sets come from the plan itself");
            let cost = truth.cost_of(sub);
            optimal.get(&set).is_some_and(|best| cost <= best.cost * (1.0 + COST_EPS))
        })
        .count();
    optimal as f64 / sets.len() as f64
}

/// One aggregate per estimator × cost-model × enumerator, in reporting
/// order.
fn aggregate(per_query: &[QueryCell]) -> Vec<CellMetrics> {
    let mut cells = Vec::new();
    for est_name in estimator_names() {
        for model_name in COST_MODELS {
            for enum_name in ENUMERATORS {
                let rows: Vec<&QueryCell> = per_query
                    .iter()
                    .filter(|c| {
                        c.estimator == est_name
                            && c.cost_model == model_name
                            && c.enumerator == enum_name
                    })
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                let ratios: Vec<f64> = rows.iter().map(|c| c.cost_ratio).collect();
                let ranks: Vec<f64> = rows.iter().map(|c| c.rank).collect();
                let optimal_queries = rows.iter().filter(|c| c.optimal).count();
                cells.push(CellMetrics {
                    estimator: est_name,
                    cost_model: model_name,
                    enumerator: enum_name,
                    queries: rows.len(),
                    optimal_queries,
                    optimal_plan_ratio: optimal_queries as f64 / rows.len() as f64,
                    geo_mean_cost_ratio: geometric_mean(&ratios),
                    median_rank: nearest_rank_percentile(&ranks, 0.5).unwrap_or(0.0),
                    mean_subplan_optimality: rows.iter().map(|c| c.subplan_optimality).sum::<f64>()
                        / rows.len() as f64,
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_datagen::Scale;
    use qob_storage::IndexConfig;

    fn small_queries(ctx: &BenchmarkContext, n: usize) -> Vec<QuerySpec> {
        ctx.queries().iter().filter(|q| q.rel_count() <= 5).take(n).cloned().collect()
    }

    #[test]
    fn true_estimates_with_dpccp_always_find_the_optimum() {
        let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
        let queries = small_queries(&ctx, 2);
        assert!(!queries.is_empty());
        let report = run_grid(&ctx, &queries, &GridOptions::default()).unwrap();
        for cell in &report.cells {
            assert!(cell.queries == queries.len());
            if cell.estimator == "true" && cell.enumerator == "dpccp" {
                assert_eq!(
                    cell.optimal_plan_ratio, 1.0,
                    "dpccp under truth must find the optimum ({} model)",
                    cell.cost_model
                );
                assert_eq!(cell.median_rank, 0.0);
                assert_eq!(cell.mean_subplan_optimality, 1.0);
            }
            assert!(cell.geo_mean_cost_ratio >= 1.0, "ratios never beat the optimum");
        }
        for cell in &report.per_query {
            assert!((0.0..=1.0).contains(&cell.rank));
            assert!((0.0..=1.0).contains(&cell.subplan_optimality));
            assert!(cell.cost_ratio >= 1.0);
        }
        // 7 estimators × 3 models × 4 enumerators, all present.
        assert_eq!(report.cells.len(), 7 * 3 * 4);
        assert_eq!(report.spaces.len(), queries.len() * 3);
        for space in &report.spaces {
            assert!(space.exhaustive, "≤ 5-relation queries are exhausted");
        }
    }

    #[test]
    fn grid_is_deterministic_for_a_fixed_seed() {
        let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
        let queries = small_queries(&ctx, 1);
        let options = GridOptions { seed: 99, ..Default::default() };
        let a = run_grid(&ctx, &queries, &options).unwrap();
        let b = run_grid(&ctx, &queries, &options).unwrap();
        assert_eq!(a.per_query, b.per_query);
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.spaces, b.spaces);
    }
}
