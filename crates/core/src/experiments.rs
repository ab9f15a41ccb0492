//! One driver per table/figure of the paper.
//!
//! Every function returns plain data; the `qob-bench` binaries format the
//! paper-style tables, and the integration tests assert the qualitative
//! findings (who wins, by roughly what factor) rather than absolute numbers.

use qob_cardest::{
    percentile, q_error, signed_ratio, CardinalityEstimator, InjectedCardinalities, QErrorSummary,
};
use qob_cost::{CostModel, PostgresCostModel, SimpleCostModel};
use qob_enumerate::{Planner, PlannerConfig, ShapeRestriction};
use qob_exec::operators::scan;
use qob_exec::ExecutionOptions;
use qob_plan::QuerySpec;
use qob_storage::IndexConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::{BenchmarkContext, EstimatorKind};
use crate::slowdown::{geometric_mean, SlowdownDistribution};

// ---------------------------------------------------------------------------
// Table 1: q-errors of base table selections.
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct BaseTableQuality {
    /// System label.
    pub system: String,
    /// Q-error percentiles over all base-table selections of the workload.
    pub summary: QErrorSummary,
}

/// Reproduces Table 1: the q-error distribution of base-table selection
/// estimates, per system.
pub fn base_table_quality(
    ctx: &BenchmarkContext,
    query_limit: Option<usize>,
) -> Vec<BaseTableQuality> {
    let queries = ctx.query_subset(query_limit);
    // The true size of every filtered base relation, scanned once (by the
    // engine's own scan) and shared by every system.
    let truths: Vec<(&QuerySpec, usize, f64)> = queries
        .into_iter()
        .flat_map(|query| {
            (0..query.relations.len())
                .filter(|&rel| !query.relations[rel].predicates.is_empty())
                .map(move |rel| (query, rel, scan(ctx.db(), query, rel).len() as f64))
        })
        .collect();
    let mut results = Vec::new();
    for kind in EstimatorKind::paper_systems() {
        let estimator = ctx.estimator(kind);
        let errors: Vec<f64> = truths
            .iter()
            .map(|&(query, rel, truth)| q_error(estimator.estimate_base(query, rel), truth))
            .collect();
        if let Some(summary) = QErrorSummary::from_errors(&errors) {
            results.push(BaseTableQuality { system: kind.label().to_owned(), summary });
        }
    }
    results
}

// ---------------------------------------------------------------------------
// Figures 3, 4 and 5: join estimate quality by number of joins.
// ---------------------------------------------------------------------------

/// The five-number summary drawn as one boxplot in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlot {
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Number of samples.
    pub count: usize,
}

impl BoxPlot {
    /// Summarises a sample (None for an empty sample).
    pub fn from_values(values: &[f64]) -> Option<BoxPlot> {
        if values.is_empty() {
            return None;
        }
        Some(BoxPlot {
            p5: percentile(values, 5.0)?,
            p25: percentile(values, 25.0)?,
            median: percentile(values, 50.0)?,
            p75: percentile(values, 75.0)?,
            p95: percentile(values, 95.0)?,
            count: values.len(),
        })
    }
}

/// Signed estimate/truth ratios grouped by join count, for one system.
#[derive(Debug, Clone)]
pub struct EstimateQuality {
    /// System label.
    pub system: String,
    /// `ratios_by_joins[j]` holds the signed ratios of all subexpressions
    /// with exactly `j` joins (index 0 = base tables).
    pub ratios_by_joins: Vec<Vec<f64>>,
}

impl EstimateQuality {
    /// The boxplot for subexpressions with `joins` joins.
    pub fn boxplot(&self, joins: usize) -> Option<BoxPlot> {
        self.ratios_by_joins.get(joins).and_then(|v| BoxPlot::from_values(v))
    }

    /// Fraction of estimates at `joins` joins that are off by at least
    /// `factor` (in either direction).
    pub fn fraction_off_by(&self, joins: usize, factor: f64) -> f64 {
        match self.ratios_by_joins.get(joins) {
            Some(v) if !v.is_empty() => {
                v.iter().filter(|r| **r >= factor || **r <= 1.0 / factor).count() as f64
                    / v.len() as f64
            }
            _ => 0.0,
        }
    }
}

fn collect_ratios(
    truth_and_estimates: impl Iterator<Item = (usize, f64, f64)>,
    max_joins: usize,
) -> Vec<Vec<f64>> {
    let mut by_joins = vec![Vec::new(); max_joins + 1];
    for (joins, estimate, truth) in truth_and_estimates {
        let slot = joins.min(max_joins);
        by_joins[slot].push(signed_ratio(estimate, truth));
    }
    by_joins
}

/// Estimate/truth ratios for every connected subexpression of one query under
/// one estimator (the per-query series of Figure 4).
pub fn query_estimate_ratios(
    ctx: &BenchmarkContext,
    query: &QuerySpec,
    estimator: &dyn CardinalityEstimator,
    max_joins: usize,
) -> Vec<Vec<f64>> {
    let truth = ctx.true_cardinalities(query);
    let subexpressions = query.connected_subexpressions();
    collect_ratios(
        subexpressions.iter().filter_map(|&set| {
            let t = truth.get(set)?;
            Some((set.join_count(), estimator.estimate(query, set), t))
        }),
        max_joins,
    )
}

/// Reproduces Figure 3: join-estimate quality by join count for the five
/// systems (capped at `max_joins`, the paper uses 6).
pub fn join_estimate_quality(
    ctx: &BenchmarkContext,
    query_limit: Option<usize>,
    max_joins: usize,
) -> Vec<EstimateQuality> {
    let queries = ctx.query_subset(query_limit);
    EstimatorKind::paper_systems()
        .into_iter()
        .map(|kind| {
            let estimator = ctx.estimator(kind);
            let mut by_joins = vec![Vec::new(); max_joins + 1];
            for query in &queries {
                let ratios = query_estimate_ratios(ctx, query, estimator.as_ref(), max_joins);
                for (j, values) in ratios.into_iter().enumerate() {
                    by_joins[j].extend(values);
                }
            }
            EstimateQuality { system: kind.label().to_owned(), ratios_by_joins: by_joins }
        })
        .collect()
}

/// Reproduces Figure 5: PostgreSQL estimates with default vs exact distinct
/// counts.  Returns `(default, true_distinct)`.
pub fn distinct_count_experiment(
    ctx: &BenchmarkContext,
    query_limit: Option<usize>,
    max_joins: usize,
) -> (EstimateQuality, EstimateQuality) {
    let queries = ctx.query_subset(query_limit);
    let collect = |kind: EstimatorKind| {
        let estimator = ctx.estimator(kind);
        let mut by_joins = vec![Vec::new(); max_joins + 1];
        for query in &queries {
            let ratios = query_estimate_ratios(ctx, query, estimator.as_ref(), max_joins);
            for (j, values) in ratios.into_iter().enumerate() {
                by_joins[j].extend(values);
            }
        }
        EstimateQuality { system: kind.label().to_owned(), ratios_by_joins: by_joins }
    };
    (collect(EstimatorKind::Postgres), collect(EstimatorKind::PostgresTrueDistinct))
}

/// Per-query estimate ratios: `(query name, ratios by join count)`.
pub type QueryRatioSeries = Vec<(String, Vec<Vec<f64>>)>;

/// The Figure 4 data: JOB and TPC-H ratio series, plus every TPC-H query
/// whose ground-truth extraction *failed* — recorded by name and error
/// instead of silently contributing an empty ratio series (the same
/// truth-loss discipline [`BenchmarkContext::try_true_cardinalities`]
/// applies on the JOB side).
#[derive(Debug, Clone)]
pub struct TpchContrast {
    /// PostgreSQL estimate ratios for the selected JOB queries.
    pub job: QueryRatioSeries,
    /// PostgreSQL estimate ratios for the TPC-H-shaped queries whose truth
    /// extraction succeeded.
    pub tpch: QueryRatioSeries,
    /// TPC-H queries skipped because truth extraction failed (timeout or
    /// memory guard), with the recorded failure.
    pub tpch_truth_failures: Vec<(String, qob_exec::ExecutionError)>,
}

/// Reproduces Figure 4: PostgreSQL estimate ratios for a handful of JOB
/// queries and the TPC-H-shaped queries.  A TPC-H query whose ground truth
/// cannot be extracted is skipped and surfaced in
/// [`TpchContrast::tpch_truth_failures`] — never folded in as an empty
/// truth map, which would fabricate an empty (and misleadingly clean)
/// ratio series.
pub fn tpch_contrast(
    ctx: &BenchmarkContext,
    job_query_names: &[&str],
    tpch_scale: qob_datagen::Scale,
    max_joins: usize,
) -> TpchContrast {
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let mut job_series = Vec::new();
    for name in job_query_names {
        if let Some(query) = ctx.query(name) {
            job_series.push((
                query.name.clone(),
                query_estimate_ratios(ctx, &query, pg.as_ref(), max_joins),
            ));
        }
    }

    // The TPC-H side uses its own uniform database and statistics.
    let tpch_db = qob_datagen::generate_tpch(&tpch_scale).expect("tpch generation");
    let tpch_stats = qob_stats::analyze_database(&tpch_db, &qob_stats::AnalyzeOptions::default());
    let est_ctx = qob_cardest::EstimatorContext::new(&tpch_db, &tpch_stats);
    let tpch_pg = qob_cardest::PostgresEstimator::new(est_ctx);
    let truth_options = qob_exec::TrueCardinalityOptions::default();
    let mut tpch_series = Vec::new();
    let mut tpch_truth_failures = Vec::new();
    for query in qob_workload::tpch_queries(&tpch_db) {
        let truth_map = match qob_exec::true_cardinalities(&tpch_db, &query, &truth_options) {
            Ok(map) => map,
            Err(error) => {
                tpch_truth_failures.push((query.name.clone(), error));
                continue;
            }
        };
        let ratios = collect_ratios(
            query.connected_subexpressions().into_iter().filter_map(|set| {
                let t = truth_map.get(&set).copied()? as f64;
                Some((set.join_count(), tpch_pg.estimate(&query, set), t))
            }),
            max_joins,
        );
        tpch_series.push((query.name.clone(), ratios));
    }
    TpchContrast { job: job_series, tpch: tpch_series, tpch_truth_failures }
}

// ---------------------------------------------------------------------------
// Section 4.1 table, Figure 6 and Figure 7: runtime risk of relying on
// estimates.
// ---------------------------------------------------------------------------

/// Knobs of the runtime-slowdown experiments.
#[derive(Debug, Clone)]
pub struct RiskOptions {
    /// Allow plain nested-loop joins during planning (Figure 6a vs 6b).
    pub allow_nested_loop: bool,
    /// Resize hash tables at runtime (Figure 6b vs 6c).
    pub enable_rehash: bool,
    /// Query subset limit.
    pub query_limit: Option<usize>,
    /// Per-query execution timeout.
    pub timeout: std::time::Duration,
    /// Slowdown assigned to a query that timed out or exhausted memory.
    pub failure_slowdown: f64,
    /// Worker threads: drives parallel execution of each plan and the warm-up
    /// of the ground-truth cache across queries.
    pub threads: usize,
}

impl Default for RiskOptions {
    fn default() -> Self {
        RiskOptions {
            allow_nested_loop: false,
            enable_rehash: true,
            query_limit: None,
            timeout: std::time::Duration::from_secs(10),
            failure_slowdown: 1000.0,
            threads: qob_exec::default_threads(),
        }
    }
}

/// Slowdown distribution of one injected estimate source.
#[derive(Debug, Clone)]
pub struct RiskResult {
    /// System whose estimates were injected.
    pub system: String,
    /// Slowdown of each query w.r.t. the true-cardinality plan.
    pub distribution: SlowdownDistribution,
}

/// Reproduces the Section 4.1 table and Figures 6/7: optimize each query once
/// with the true cardinalities and once with each system's estimates, execute
/// both plans on the same engine, and report the slowdown distribution.
pub fn risk_of_estimates(
    ctx: &BenchmarkContext,
    systems: &[EstimatorKind],
    options: &RiskOptions,
) -> Vec<RiskResult> {
    let queries = ctx.query_subset(options.query_limit);
    let planner_config =
        PlannerConfig { allow_nested_loop: options.allow_nested_loop, ..PlannerConfig::default() };
    let exec_options = ExecutionOptions {
        enable_rehash: options.enable_rehash,
        timeout: Some(options.timeout),
        threads: options.threads.max(1),
        ..ExecutionOptions::default()
    };
    // Harvest the ground truth for the whole subset up front, whole queries
    // in parallel — the cost floor of every runtime experiment.
    ctx.precompute_true_cardinalities(options.query_limit, options.threads.max(1));
    let pg_fallback = ctx.estimator(EstimatorKind::Postgres);

    // Reference runtimes with true cardinalities.
    let mut reference = Vec::new();
    for query in &queries {
        let truth = ctx.true_cardinalities(query);
        let injected = InjectedCardinalities::new(&truth, pg_fallback.as_ref());
        let runtime = ctx
            .optimize(query, &injected, planner_config)
            .ok()
            .and_then(|plan| ctx.execute(query, &plan.plan, &injected, &exec_options).ok())
            .map(|r| r.elapsed.as_secs_f64().max(1e-6));
        reference.push(runtime);
    }

    let mut results = Vec::new();
    for &kind in systems {
        let estimator = ctx.estimator(kind);
        let mut distribution = SlowdownDistribution::new();
        for (query, reference_runtime) in queries.iter().zip(&reference) {
            let Some(reference_runtime) = reference_runtime else { continue };
            let estimate_runtime = ctx
                .optimize(query, estimator.as_ref(), planner_config)
                .ok()
                .and_then(|plan| {
                    ctx.execute(query, &plan.plan, estimator.as_ref(), &exec_options).ok()
                })
                .map(|r| r.elapsed.as_secs_f64().max(1e-6));
            match estimate_runtime {
                Some(rt) => distribution.push(rt / reference_runtime),
                None => distribution.push(options.failure_slowdown),
            }
        }
        results.push(RiskResult { system: kind.label().to_owned(), distribution });
    }
    results
}

// ---------------------------------------------------------------------------
// Figure 8: cost model vs runtime correlation.
// ---------------------------------------------------------------------------

/// Which cost model a Figure 8 panel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModelKind {
    /// PostgreSQL's disk-oriented model.
    Standard,
    /// The main-memory tuned variant (CPU costs × 50).
    Tuned,
    /// The paper's simple `C_mm` model.
    Simple,
}

impl CostModelKind {
    /// All models in the paper's order.
    pub fn all() -> [CostModelKind; 3] {
        [CostModelKind::Standard, CostModelKind::Tuned, CostModelKind::Simple]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            CostModelKind::Standard => "standard cost model",
            CostModelKind::Tuned => "tuned cost model",
            CostModelKind::Simple => "simple cost model",
        }
    }

    /// Instantiates the model.
    pub fn build(&self) -> Box<dyn CostModel> {
        match self {
            CostModelKind::Standard => Box::new(PostgresCostModel::standard()),
            CostModelKind::Tuned => Box::new(PostgresCostModel::tuned_for_main_memory()),
            CostModelKind::Simple => Box::new(SimpleCostModel::new()),
        }
    }
}

/// One panel of Figure 8: (cost, runtime) points plus a linear-fit error.
#[derive(Debug, Clone)]
pub struct CostRuntimePanel {
    /// Cost model used.
    pub model: CostModelKind,
    /// True if true cardinalities were injected (right column of Figure 8).
    pub true_cardinalities: bool,
    /// `(predicted cost, measured runtime in seconds)` per query.
    pub points: Vec<(f64, f64)>,
    /// Median absolute relative error of the linear cost→runtime fit.
    pub median_fit_error: f64,
    /// Geometric mean of the measured runtimes (Section 5.4 comparison).
    pub geometric_mean_runtime: f64,
}

fn linear_fit_median_error(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let var: f64 = points.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    let slope = if var.abs() < 1e-30 { 0.0 } else { cov / var };
    let intercept = mean_y - slope * mean_x;
    let mut errors: Vec<f64> = points
        .iter()
        .map(|(x, y)| {
            let predicted = slope * x + intercept;
            ((y - predicted).abs() / y.max(1e-9)).min(1e6)
        })
        .collect();
    errors.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    errors[errors.len() / 2]
}

/// Reproduces Figure 8: for each cost model and cardinality source, optimize
/// every query, execute the resulting plan and record (cost, runtime).
pub fn cost_model_correlation(
    ctx: &BenchmarkContext,
    query_limit: Option<usize>,
    timeout: std::time::Duration,
) -> Vec<CostRuntimePanel> {
    let queries = ctx.query_subset(query_limit);
    let exec_options = ExecutionOptions { timeout: Some(timeout), ..ExecutionOptions::default() };
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let mut panels = Vec::new();
    for model_kind in CostModelKind::all() {
        let model = model_kind.build();
        for use_truth in [false, true] {
            let mut points = Vec::new();
            for query in &queries {
                let truth = ctx.true_cardinalities(query);
                let injected = InjectedCardinalities::new(&truth, pg.as_ref());
                let cards: &dyn CardinalityEstimator =
                    if use_truth { &injected } else { pg.as_ref() };
                let Ok(plan) =
                    ctx.optimize_with_model(query, cards, model.as_ref(), PlannerConfig::default())
                else {
                    continue;
                };
                let Ok(result) = ctx.execute(query, &plan.plan, cards, &exec_options) else {
                    continue;
                };
                points.push((plan.cost, result.elapsed.as_secs_f64().max(1e-6)));
            }
            let median_fit_error = linear_fit_median_error(&points);
            let geometric_mean_runtime =
                geometric_mean(&points.iter().map(|(_, y)| *y).collect::<Vec<_>>());
            panels.push(CostRuntimePanel {
                model: model_kind,
                true_cardinalities: use_truth,
                points,
                median_fit_error,
                geometric_mean_runtime,
            });
        }
    }
    panels
}

// ---------------------------------------------------------------------------
// Figure 9 and Section 6.1: the plan space.
// ---------------------------------------------------------------------------

/// Quickpick cost distribution of one query under one index configuration.
#[derive(Debug, Clone)]
pub struct PlanSpaceDistribution {
    /// Query name.
    pub query: String,
    /// Index configuration.
    pub index_config: IndexConfig,
    /// Costs of random plans, normalised by the optimal (DP, true
    /// cardinalities) plan of the *reference* configuration.
    pub normalized_costs: Vec<f64>,
}

impl PlanSpaceDistribution {
    /// Fraction of random plans within `factor`× of the optimum.
    pub fn fraction_within(&self, factor: f64) -> f64 {
        if self.normalized_costs.is_empty() {
            return 0.0;
        }
        self.normalized_costs.iter().filter(|c| **c <= factor).count() as f64
            / self.normalized_costs.len() as f64
    }

    /// Ratio between the most and least expensive random plan.
    pub fn width(&self) -> f64 {
        let min = self.normalized_costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.normalized_costs.iter().copied().fold(0.0f64, f64::max);
        if min > 0.0 && min.is_finite() {
            max / min
        } else {
            1.0
        }
    }
}

/// Reproduces one row of Figure 9 for the context's *current* index
/// configuration: `runs` Quickpick plans per named query, costs normalised by
/// `reference_cost` per query (pass the optimum of the PK+FK configuration,
/// as the paper does).
pub fn plan_space_distributions(
    ctx: &BenchmarkContext,
    query_names: &[&str],
    runs: usize,
    seed: u64,
    reference_costs: &[(String, f64)],
) -> Vec<PlanSpaceDistribution> {
    let model = SimpleCostModel::new();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let mut out = Vec::new();
    for name in query_names {
        let Some(query) = ctx.query(name) else { continue };
        let truth = ctx.true_cardinalities(&query);
        let injected = InjectedCardinalities::new(&truth, pg.as_ref());
        let planner = Planner::new(ctx.db(), &query, &model, &injected, PlannerConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(plans) = qob_enumerate::quickpick::quickpick_plans(&planner, runs, &mut rng) else {
            continue;
        };
        let reference = reference_costs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(1.0)
            .max(1e-9);
        out.push(PlanSpaceDistribution {
            query: query.name.clone(),
            index_config: ctx.db().index_config(),
            normalized_costs: plans.iter().map(|p| p.cost / reference).collect(),
        });
    }
    out
}

/// The optimal (exhaustive DP, true cardinalities) cost of each named query
/// under the context's current index configuration — used as the Figure 9
/// normalisation reference.
pub fn optimal_costs(ctx: &BenchmarkContext, query_names: &[&str]) -> Vec<(String, f64)> {
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let mut out = Vec::new();
    for name in query_names {
        let Some(query) = ctx.query(name) else { continue };
        let truth = ctx.true_cardinalities(&query);
        let injected = InjectedCardinalities::new(&truth, pg.as_ref());
        if let Ok(plan) = ctx.optimize(&query, &injected, PlannerConfig::default()) {
            out.push((query.name.clone(), plan.cost));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Table 2: restricted tree shapes.
// ---------------------------------------------------------------------------

/// Slowdown summary of one tree-shape restriction.
#[derive(Debug, Clone)]
pub struct TreeShapeResult {
    /// The restriction.
    pub shape: ShapeRestriction,
    /// Per-query cost ratios (restricted optimum / bushy optimum).
    pub ratios: Vec<f64>,
}

impl TreeShapeResult {
    /// Median ratio.
    pub fn median(&self) -> f64 {
        percentile(&self.ratios, 50.0).unwrap_or(1.0)
    }

    /// 95th percentile ratio.
    pub fn p95(&self) -> f64 {
        percentile(&self.ratios, 95.0).unwrap_or(1.0)
    }

    /// Maximum ratio.
    pub fn max(&self) -> f64 {
        self.ratios.iter().copied().fold(1.0, f64::max)
    }
}

/// Reproduces Table 2 for the context's current index configuration: the cost
/// of the optimal zig-zag / left-deep / right-deep plan relative to the
/// optimal bushy plan, all under true cardinalities.
pub fn tree_shape_experiment(
    ctx: &BenchmarkContext,
    query_limit: Option<usize>,
) -> Vec<TreeShapeResult> {
    let queries = ctx.query_subset(query_limit);
    let model = SimpleCostModel::new();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let shapes =
        [ShapeRestriction::ZigZag, ShapeRestriction::LeftDeep, ShapeRestriction::RightDeep];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    for query in &queries {
        let truth = ctx.true_cardinalities(query);
        let injected = InjectedCardinalities::new(&truth, pg.as_ref());
        let planner = Planner::new(ctx.db(), query, &model, &injected, PlannerConfig::default());
        let Ok(bushy) = qob_enumerate::dpccp::optimize_bushy(&planner) else { continue };
        for (i, shape) in shapes.iter().enumerate() {
            if let Ok(restricted) = qob_enumerate::restricted::optimize_restricted(&planner, *shape)
            {
                ratios[i].push((restricted.cost / bushy.cost).max(1.0));
            }
        }
    }
    shapes
        .iter()
        .zip(ratios)
        .map(|(shape, ratios)| TreeShapeResult { shape: *shape, ratios })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3: enumeration algorithms vs heuristics.
// ---------------------------------------------------------------------------

/// The enumeration strategies compared in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumerationAlgorithm {
    /// Exhaustive dynamic programming (bushy, no cross products).
    DynamicProgramming,
    /// Best of 1000 random Quickpick plans.
    Quickpick1000,
    /// Greedy Operator Ordering.
    Goo,
}

impl EnumerationAlgorithm {
    /// All algorithms in the paper's order.
    pub fn all() -> [EnumerationAlgorithm; 3] {
        [
            EnumerationAlgorithm::DynamicProgramming,
            EnumerationAlgorithm::Quickpick1000,
            EnumerationAlgorithm::Goo,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            EnumerationAlgorithm::DynamicProgramming => "Dynamic Programming",
            EnumerationAlgorithm::Quickpick1000 => "Quickpick-1000",
            EnumerationAlgorithm::Goo => "Greedy Operator Ordering",
        }
    }
}

/// One cell group of Table 3: an algorithm's cost ratios under one
/// cardinality source (normalised by the DP-with-true-cardinalities optimum).
#[derive(Debug, Clone)]
pub struct EnumerationResult {
    /// Enumeration algorithm.
    pub algorithm: EnumerationAlgorithm,
    /// True if the algorithm planned with true cardinalities (right half of
    /// Table 3), false for PostgreSQL estimates.
    pub true_cardinalities: bool,
    /// Per-query cost ratios.
    pub ratios: Vec<f64>,
}

impl EnumerationResult {
    /// Median ratio.
    pub fn median(&self) -> f64 {
        percentile(&self.ratios, 50.0).unwrap_or(1.0)
    }

    /// 95th percentile ratio.
    pub fn p95(&self) -> f64 {
        percentile(&self.ratios, 95.0).unwrap_or(1.0)
    }

    /// Maximum ratio.
    pub fn max(&self) -> f64 {
        self.ratios.iter().copied().fold(1.0, f64::max)
    }
}

/// Reproduces Table 3 for the context's current index configuration: each
/// enumeration algorithm plans with either PostgreSQL estimates or true
/// cardinalities; the resulting plan is then *re-costed* with the true
/// cardinalities and normalised by the DP/true optimum.
pub fn enumeration_experiment(
    ctx: &BenchmarkContext,
    query_limit: Option<usize>,
    quickpick_runs: usize,
    seed: u64,
) -> Vec<EnumerationResult> {
    let queries = ctx.query_subset(query_limit);
    let model = SimpleCostModel::new();
    let pg = ctx.estimator(EstimatorKind::Postgres);
    let mut results: Vec<EnumerationResult> = EnumerationAlgorithm::all()
        .into_iter()
        .flat_map(|a| {
            [false, true].map(|t| EnumerationResult {
                algorithm: a,
                true_cardinalities: t,
                ratios: Vec::new(),
            })
        })
        .collect();

    for query in &queries {
        let truth = ctx.true_cardinalities(query);
        let injected = InjectedCardinalities::new(&truth, pg.as_ref());
        let truth_planner =
            Planner::new(ctx.db(), query, &model, &injected, PlannerConfig::default());
        let Ok(optimal) = qob_enumerate::dpccp::optimize_bushy(&truth_planner) else { continue };
        let optimal_cost = ctx.plan_cost(query, &optimal.plan, &model, &injected).max(1e-9);

        for result in &mut results {
            let cards: &dyn CardinalityEstimator =
                if result.true_cardinalities { &injected } else { pg.as_ref() };
            let planner = Planner::new(ctx.db(), query, &model, cards, PlannerConfig::default());
            let plan = match result.algorithm {
                EnumerationAlgorithm::DynamicProgramming => {
                    qob_enumerate::dpccp::optimize_bushy(&planner).ok()
                }
                EnumerationAlgorithm::Quickpick1000 => {
                    let mut rng = StdRng::seed_from_u64(seed ^ query.name.len() as u64);
                    qob_enumerate::quickpick::quickpick_best(&planner, quickpick_runs, &mut rng)
                        .ok()
                }
                EnumerationAlgorithm::Goo => qob_enumerate::goo::optimize_goo(&planner).ok(),
            };
            if let Some(plan) = plan {
                let true_cost = ctx.plan_cost(query, &plan.plan, &model, &injected);
                result.ratios.push((true_cost / optimal_cost).max(1.0));
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_datagen::Scale;

    fn ctx() -> BenchmarkContext {
        BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap()
    }

    #[test]
    fn boxplot_percentiles() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = BoxPlot::from_values(&values).unwrap();
        assert!(b.p5 < b.p25 && b.p25 < b.median && b.median < b.p75 && b.p75 < b.p95);
        assert_eq!(b.count, 100);
        assert!(BoxPlot::from_values(&[]).is_none());
    }

    #[test]
    fn base_table_quality_reports_all_five_systems() {
        let ctx = ctx();
        let results = base_table_quality(&ctx, Some(12));
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.summary.median >= 1.0);
            assert!(r.summary.max >= r.summary.p95);
            assert!(r.summary.count > 10);
        }
    }

    #[test]
    fn join_quality_groups_by_join_count() {
        let ctx = ctx();
        let results = join_estimate_quality(&ctx, Some(6), 4);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert_eq!(r.ratios_by_joins.len(), 5);
            assert!(!r.ratios_by_joins[0].is_empty(), "{} has base-table ratios", r.system);
            let _ = r.boxplot(0);
            let _ = r.fraction_off_by(1, 10.0);
        }
    }

    #[test]
    fn linear_fit_error_is_zero_for_perfect_line() {
        let points: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!(linear_fit_median_error(&points) < 1e-9);
        let noisy: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i % 5) as f64 + 1.0)).collect();
        assert!(linear_fit_median_error(&noisy) > 0.01);
        assert_eq!(linear_fit_median_error(&[]), 0.0);
    }

    #[test]
    fn cost_model_kinds_and_enumeration_labels() {
        assert_eq!(CostModelKind::all().len(), 3);
        for k in CostModelKind::all() {
            assert!(!k.label().is_empty());
            let _ = k.build();
        }
        for a in EnumerationAlgorithm::all() {
            assert!(!a.label().is_empty());
        }
    }

    #[test]
    fn plan_space_distribution_helpers() {
        let d = PlanSpaceDistribution {
            query: "6a".into(),
            index_config: IndexConfig::PrimaryKeyOnly,
            normalized_costs: vec![1.0, 1.2, 3.0, 50.0],
        };
        assert!((d.fraction_within(1.5) - 0.5).abs() < 1e-9);
        assert!((d.width() - 50.0).abs() < 1e-9);
    }
}
