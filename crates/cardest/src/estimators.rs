//! The five estimator profiles of the paper's Section 3.
//!
//! The commercial systems in the paper are anonymised; each profile below
//! reproduces the *behaviour* the paper reports for one of them (see the
//! crate-level table).  All profiles share the same independence-based join
//! skeleton ([`crate::model::independence_estimate`]) and differ in how they
//! estimate base-table selectivities and how they combine selectivities.

use qob_plan::{QuerySpec, RelSet};

use crate::model::{
    bind_independence, independence_estimate, join_edge_selectivity, CardinalityEstimator, Damping,
    EstimatorContext,
};
use crate::selectivity::{histogram_base_rows, MagicConstants};

/// What one profile plugs into the shared skeleton
/// ([`independence_estimate`]): its filtered rows per base relation and its
/// selectivity per join edge, how it combines edge selectivities, and how
/// much it shrinks per join beyond the first.
trait Profile {
    fn base_rows(&self, query: &QuerySpec, rel: usize) -> f64;

    /// The selectivity of `query.joins[edge]`.
    fn edge_selectivity(&self, query: &QuerySpec, edge: usize) -> f64;

    fn damping(&self) -> Damping {
        Damping::Independence
    }

    fn per_join_shrink(&self) -> f64 {
        1.0
    }
}

/// A profile's estimate of one set, every term computed for this call.
fn estimate_set(profile: &impl Profile, query: &QuerySpec, set: RelSet) -> f64 {
    independence_estimate(
        query,
        set,
        |rel| profile.base_rows(query, rel),
        |edge| profile.edge_selectivity(query, edge),
        profile.damping(),
        profile.per_join_shrink(),
    )
}

/// A profile bound to one query: every term computed once.
fn bind_profile<'s>(
    profile: &'s impl Profile,
    query: &'s QuerySpec,
) -> Box<dyn Fn(RelSet) -> f64 + 's> {
    bind_independence(
        query,
        |rel| profile.base_rows(query, rel),
        |edge| profile.edge_selectivity(query, edge),
        profile.damping(),
        profile.per_join_shrink(),
    )
}

/// PostgreSQL-style estimator: per-attribute histograms and MCVs,
/// independence everywhere, `1/max(dom)` join selectivity, magic constants
/// for LIKE.
pub struct PostgresEstimator<'a> {
    ctx: EstimatorContext<'a>,
    /// Use exact distinct counts instead of the sampled (Duj1) estimates —
    /// the Figure 5 ("true distinct counts") variant.
    pub use_exact_distinct: bool,
    magic: MagicConstants,
    name: &'static str,
}

impl<'a> PostgresEstimator<'a> {
    /// Creates the default-statistics PostgreSQL profile.
    pub fn new(ctx: EstimatorContext<'a>) -> Self {
        PostgresEstimator {
            ctx,
            use_exact_distinct: false,
            magic: MagicConstants::default(),
            name: "PostgreSQL",
        }
    }

    /// The Figure 5 variant that uses exact distinct counts.
    pub fn with_true_distinct_counts(ctx: EstimatorContext<'a>) -> Self {
        PostgresEstimator {
            ctx,
            use_exact_distinct: true,
            magic: MagicConstants::default(),
            name: "PostgreSQL (true distinct)",
        }
    }
}

impl Profile for PostgresEstimator<'_> {
    fn base_rows(&self, query: &QuerySpec, rel: usize) -> f64 {
        let exact = self.use_exact_distinct;
        histogram_base_rows(&self.ctx, query, rel, exact, &self.magic, Damping::Independence)
    }

    fn edge_selectivity(&self, query: &QuerySpec, edge: usize) -> f64 {
        join_edge_selectivity(&self.ctx, query, &query.joins[edge], self.use_exact_distinct)
    }
}

impl CardinalityEstimator for PostgresEstimator<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        estimate_set(self, query, set)
    }

    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        bind_profile(self, query)
    }
}

/// Sampling estimator in the style of HyPer: evaluates base-table predicates
/// on a ~1000-row sample (excellent even for correlated or LIKE predicates),
/// falls back to a magic constant when no sample row matches, and uses the
/// independence assumption for joins.
pub struct SamplingEstimator<'a> {
    ctx: EstimatorContext<'a>,
    /// Selectivity assumed when the predicate matches no sample row.
    pub zero_match_fallback: f64,
    name: &'static str,
}

impl<'a> SamplingEstimator<'a> {
    /// Creates the HyPer-style profile.
    pub fn new(ctx: EstimatorContext<'a>) -> Self {
        SamplingEstimator { ctx, zero_match_fallback: 0.0005, name: "HyPer" }
    }

    fn sample_base_rows(&self, query: &QuerySpec, rel: usize) -> f64 {
        let relation = &query.relations[rel];
        let table = self.ctx.db.table(relation.table);
        let stats = self.ctx.stats.table(relation.table);
        let rows = stats.row_count as f64;
        if relation.predicates.is_empty() {
            return rows;
        }
        match stats.sample.selectivity(table, &relation.predicates) {
            Some(sel) => rows * sel,
            None => (rows * self.zero_match_fallback).max(1.0),
        }
    }
}

impl Profile for SamplingEstimator<'_> {
    fn base_rows(&self, query: &QuerySpec, rel: usize) -> f64 {
        self.sample_base_rows(query, rel)
    }

    fn edge_selectivity(&self, query: &QuerySpec, edge: usize) -> f64 {
        join_edge_selectivity(&self.ctx, query, &query.joins[edge], false)
    }
}

impl CardinalityEstimator for SamplingEstimator<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        estimate_set(self, query, set)
    }

    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        bind_profile(self, query)
    }
}

/// "DBMS A" profile: table samples for base predicates (like HyPer) plus an
/// exponential-backoff damping factor when combining join selectivities,
/// which lifts multi-join estimates towards the truth — the best median
/// behaviour in Figure 3 at the cost of occasional overestimates.
pub struct DampedSamplingEstimator<'a> {
    inner: SamplingEstimator<'a>,
    ctx: EstimatorContext<'a>,
}

impl<'a> DampedSamplingEstimator<'a> {
    /// Creates the DBMS A-style profile.
    pub fn new(ctx: EstimatorContext<'a>) -> Self {
        let mut inner = SamplingEstimator::new(ctx);
        inner.zero_match_fallback = 0.002;
        DampedSamplingEstimator { inner, ctx }
    }
}

impl Profile for DampedSamplingEstimator<'_> {
    fn base_rows(&self, query: &QuerySpec, rel: usize) -> f64 {
        self.inner.sample_base_rows(query, rel)
    }

    fn edge_selectivity(&self, query: &QuerySpec, edge: usize) -> f64 {
        join_edge_selectivity(&self.ctx, query, &query.joins[edge], false)
    }

    fn damping(&self) -> Damping {
        Damping::ExponentialBackoff
    }
}

impl CardinalityEstimator for DampedSamplingEstimator<'_> {
    fn name(&self) -> &str {
        "DBMS A"
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        estimate_set(self, query, set)
    }

    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        bind_profile(self, query)
    }
}

/// "DBMS B" profile: histogram statistics with unhelpful magic constants and
/// an additional shrink factor per join, which makes estimates for queries
/// with more than a couple of joins collapse towards a single row — the
/// strong systematic underestimation visible for DBMS B in Figure 3.
pub struct PessimisticEstimator<'a> {
    ctx: EstimatorContext<'a>,
    magic: MagicConstants,
    /// Extra multiplicative shrink applied per join beyond the first.
    pub per_join_shrink: f64,
}

impl<'a> PessimisticEstimator<'a> {
    /// Creates the DBMS B-style profile.
    pub fn new(ctx: EstimatorContext<'a>) -> Self {
        PessimisticEstimator {
            ctx,
            magic: MagicConstants { like: 0.4, unknown_equality: 1e-4, range: 1.0 / 3.0 },
            per_join_shrink: 0.25,
        }
    }
}

impl Profile for PessimisticEstimator<'_> {
    fn base_rows(&self, query: &QuerySpec, rel: usize) -> f64 {
        histogram_base_rows(&self.ctx, query, rel, false, &self.magic, Damping::Independence)
    }

    fn edge_selectivity(&self, query: &QuerySpec, edge: usize) -> f64 {
        join_edge_selectivity(&self.ctx, query, &query.joins[edge], false)
    }

    fn per_join_shrink(&self) -> f64 {
        self.per_join_shrink
    }
}

impl CardinalityEstimator for PessimisticEstimator<'_> {
    fn name(&self) -> &str {
        "DBMS B"
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        estimate_set(self, query, set)
    }

    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        bind_profile(self, query)
    }
}

/// "DBMS C" profile: base-table estimates that largely ignore the statistics
/// and guess fixed selectivities per predicate type.  This produces the huge
/// base-table errors (both directions) of Table 1 while joins still follow
/// the independence formula.
pub struct MagicConstantEstimator<'a> {
    ctx: EstimatorContext<'a>,
    /// Selectivity guessed for every equality predicate.
    pub equality_guess: f64,
    /// Selectivity guessed for every LIKE predicate.
    pub like_guess: f64,
    /// Selectivity guessed for every range predicate.
    pub range_guess: f64,
}

impl<'a> MagicConstantEstimator<'a> {
    /// Creates the DBMS C-style profile.
    pub fn new(ctx: EstimatorContext<'a>) -> Self {
        MagicConstantEstimator {
            ctx,
            equality_guess: 0.01,
            like_guess: 0.05,
            range_guess: 1.0 / 3.0,
        }
    }

    fn guess(&self, predicate: &qob_storage::Predicate) -> f64 {
        use qob_storage::Predicate as P;
        match predicate {
            P::IntCmp { op: qob_storage::CmpOp::Eq, .. } | P::StrEq { .. } => self.equality_guess,
            P::IntCmp { op: qob_storage::CmpOp::Ne, .. } => 1.0 - self.equality_guess,
            P::IntCmp { .. } | P::IntBetween { .. } => self.range_guess,
            P::StrIn { values, .. } => (self.equality_guess * values.len() as f64).min(1.0),
            P::Like { .. } => self.like_guess,
            P::IsNull { .. } => 0.05,
            P::IsNotNull { .. } => 0.95,
            P::And(ps) => ps.iter().map(|p| self.guess(p)).product(),
            P::Or(ps) => 1.0 - ps.iter().map(|p| 1.0 - self.guess(p)).product::<f64>(),
            P::Not(p) => 1.0 - self.guess(p),
        }
    }
}

impl Profile for MagicConstantEstimator<'_> {
    fn base_rows(&self, query: &QuerySpec, rel: usize) -> f64 {
        let relation = &query.relations[rel];
        let rows = self.ctx.stats.table(relation.table).row_count as f64;
        let sel: f64 = relation.predicates.iter().map(|p| self.guess(p).clamp(0.0, 1.0)).product();
        rows * sel
    }

    fn edge_selectivity(&self, query: &QuerySpec, edge: usize) -> f64 {
        join_edge_selectivity(&self.ctx, query, &query.joins[edge], false)
    }
}

impl CardinalityEstimator for MagicConstantEstimator<'_> {
    fn name(&self) -> &str {
        "DBMS C"
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        estimate_set(self, query, set)
    }

    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        bind_profile(self, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::{BaseRelation, JoinEdge};
    use qob_stats::{analyze_database, AnalyzeOptions, DatabaseStats};
    use qob_storage::{
        CmpOp, ColumnId, ColumnMeta, DataType, Database, Predicate, TableBuilder, TableId, Value,
    };

    /// A two-table database with a correlated filter + join so that the
    /// independence assumption underestimates.
    fn correlated_db() -> (Database, DatabaseStats) {
        let mut movies = TableBuilder::new(
            "movies",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("kind", DataType::Str),
                ColumnMeta::new("year", DataType::Int),
            ],
        );
        // 2000 movies; 30% are "blockbuster" kind.
        for i in 0..2000i64 {
            let kind = if i % 10 < 3 { "blockbuster" } else { "indie" };
            movies
                .push_row(vec![
                    Value::Int(i + 1),
                    Value::Str(kind.into()),
                    Value::Int(1990 + (i % 25)),
                ])
                .unwrap();
        }
        // info rows: blockbusters have 10 each, indies 1 each (correlated fan-out).
        let mut info = TableBuilder::new(
            "info",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("movie_id", DataType::Int)],
        );
        let mut id = 1i64;
        for i in 0..2000i64 {
            let n = if i % 10 < 3 { 10 } else { 1 };
            for _ in 0..n {
                info.push_row(vec![Value::Int(id), Value::Int(i + 1)]).unwrap();
                id += 1;
            }
        }
        let mut db = Database::new();
        let m = db.add_table(movies.finish()).unwrap();
        let inf = db.add_table(info.finish()).unwrap();
        db.declare_primary_key(m, "id").unwrap();
        db.declare_primary_key(inf, "id").unwrap();
        db.declare_foreign_key(inf, "movie_id", m).unwrap();
        let stats = analyze_database(&db, &AnalyzeOptions::default());
        (db, stats)
    }

    fn join_query(db: &Database) -> QuerySpec {
        let movies = db.table_id("movies").unwrap();
        let info = db.table_id("info").unwrap();
        QuerySpec::new(
            "corr",
            vec![
                BaseRelation::filtered(
                    movies,
                    "m",
                    vec![Predicate::StrEq { column: ColumnId(1), value: "blockbuster".into() }],
                ),
                BaseRelation::unfiltered(info, "i"),
            ],
            vec![JoinEdge {
                left: 0,
                left_column: ColumnId(0),
                right: 1,
                right_column: ColumnId(1),
            }],
        )
    }

    #[test]
    fn postgres_estimator_base_tables_are_reasonable() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let est = PostgresEstimator::new(ctx);
        let q = join_query(&db);
        let base = est.estimate_base(&q, 0);
        assert!((base - 600.0).abs() < 120.0, "30% of 2000 ≈ 600, got {base}");
        assert_eq!(est.estimate_base(&q, 1), stats.table(TableId(1)).row_count as f64);
        assert_eq!(est.name(), "PostgreSQL");
    }

    #[test]
    fn independence_underestimates_correlated_join() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let est = PostgresEstimator::new(ctx);
        let q = join_query(&db);
        // True result: 600 blockbusters × 10 info rows = 6000.
        let estimate = est.estimate(&q, q.all_rels());
        assert!(
            estimate < 4000.0,
            "independence + uniform fan-out should underestimate the correlated join, got {estimate}"
        );
        assert!(estimate > 100.0, "but not absurdly so, got {estimate}");
    }

    #[test]
    fn sampling_estimator_handles_like_better_than_postgres() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let pg = PostgresEstimator::new(ctx);
        let hyper = SamplingEstimator::new(ctx);
        let movies = db.table_id("movies").unwrap();
        let q = QuerySpec::new(
            "like",
            vec![BaseRelation::filtered(
                movies,
                "m",
                vec![Predicate::Like { column: ColumnId(1), pattern: "%block%".into() }],
            )],
            vec![],
        );
        let truth = 600.0;
        let pg_err = crate::qerror::q_error(pg.estimate(&q, RelSet::single(0)), truth);
        let hyper_err = crate::qerror::q_error(hyper.estimate(&q, RelSet::single(0)), truth);
        assert!(
            hyper_err < pg_err,
            "sampling sees through LIKE (q-err {hyper_err:.2}) while magic constants do not ({pg_err:.2})"
        );
        assert_eq!(hyper.name(), "HyPer");
    }

    #[test]
    fn sampling_estimator_falls_back_on_zero_matches() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let hyper = SamplingEstimator::new(ctx);
        let movies = db.table_id("movies").unwrap();
        let q = QuerySpec::new(
            "none",
            vec![BaseRelation::filtered(
                movies,
                "m",
                vec![Predicate::StrEq { column: ColumnId(1), value: "does-not-exist".into() }],
            )],
            vec![],
        );
        let est = hyper.estimate(&q, RelSet::single(0));
        assert!((1.0..=10.0).contains(&est), "fallback should be small but non-zero, got {est}");
    }

    #[test]
    fn damped_estimator_is_at_least_the_plain_sampling_estimate() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let plain = SamplingEstimator::new(ctx);
        let damped = DampedSamplingEstimator::new(ctx);
        let q = join_query(&db);
        let all = q.all_rels();
        assert!(damped.estimate(&q, all) >= plain.estimate(&q, all) * 0.999);
        assert_eq!(damped.name(), "DBMS A");
    }

    #[test]
    fn pessimistic_estimator_collapses_deep_joins() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let pg = PostgresEstimator::new(ctx);
        let b = PessimisticEstimator::new(ctx);
        // Chain the info table twice to get 2 joins.
        let movies = db.table_id("movies").unwrap();
        let info = db.table_id("info").unwrap();
        let q = QuerySpec::new(
            "chain",
            vec![
                BaseRelation::filtered(
                    movies,
                    "m",
                    vec![Predicate::StrEq { column: ColumnId(1), value: "blockbuster".into() }],
                ),
                BaseRelation::unfiltered(info, "i1"),
                BaseRelation::unfiltered(info, "i2"),
            ],
            vec![
                JoinEdge { left: 0, left_column: ColumnId(0), right: 1, right_column: ColumnId(1) },
                JoinEdge { left: 0, left_column: ColumnId(0), right: 2, right_column: ColumnId(1) },
            ],
        );
        let all = q.all_rels();
        assert!(
            b.estimate(&q, all) < pg.estimate(&q, all),
            "DBMS B shrinks harder with more joins"
        );
        assert_eq!(b.name(), "DBMS B");
    }

    #[test]
    fn magic_constant_estimator_misestimates_selective_and_common_predicates() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let c = MagicConstantEstimator::new(ctx);
        let movies = db.table_id("movies").unwrap();
        // A common predicate (30% of rows) is underestimated at 1%.
        let q = QuerySpec::new(
            "common",
            vec![BaseRelation::filtered(
                movies,
                "m",
                vec![Predicate::StrEq { column: ColumnId(1), value: "blockbuster".into() }],
            )],
            vec![],
        );
        let est = c.estimate(&q, RelSet::single(0));
        assert!((est - 20.0).abs() < 1.0, "2000 × 0.01 = 20, got {est}");
        let err = crate::qerror::q_error(est, 600.0);
        assert!(err > 10.0, "large error on a common value, got {err}");
        // A range predicate gets the 1/3 guess regardless of bounds.
        let q = QuerySpec::new(
            "range",
            vec![BaseRelation::filtered(
                movies,
                "m",
                vec![Predicate::IntCmp { column: ColumnId(2), op: CmpOp::Ge, value: 2014 }],
            )],
            vec![],
        );
        let est = c.estimate(&q, RelSet::single(0));
        assert!((est - 2000.0 / 3.0).abs() < 1.0, "got {est}");
        assert_eq!(c.name(), "DBMS C");
    }

    #[test]
    fn true_distinct_variant_changes_join_estimates() {
        let (db, _) = correlated_db();
        // Use a small statistics sample so the Duj1 distinct estimate for the
        // skewed info.movie_id column undershoots the exact count.
        let stats =
            analyze_database(&db, &AnalyzeOptions { stats_sample_size: 300, ..Default::default() });
        let ctx = EstimatorContext::new(&db, &stats);
        let default = PostgresEstimator::new(ctx);
        let exact = PostgresEstimator::with_true_distinct_counts(ctx);
        // An n:m self-join of info on movie_id: the join domain is the
        // distinct count of movie_id on both sides, which differs between the
        // sampled and the exact statistic.
        let info = db.table_id("info").unwrap();
        let q = QuerySpec::new(
            "nm",
            vec![BaseRelation::unfiltered(info, "i1"), BaseRelation::unfiltered(info, "i2")],
            vec![JoinEdge {
                left: 0,
                left_column: ColumnId(1),
                right: 1,
                right_column: ColumnId(1),
            }],
        );
        let all = q.all_rels();
        let d = default.estimate(&q, all);
        let e = exact.estimate(&q, all);
        assert!(
            e < d,
            "the larger (exact) domain means a smaller join selectivity: exact {e} vs sampled {d}"
        );
        assert_eq!(exact.name(), "PostgreSQL (true distinct)");
    }

    #[test]
    fn estimators_are_usable_as_trait_objects() {
        let (db, stats) = correlated_db();
        let ctx = EstimatorContext::new(&db, &stats);
        let q = join_query(&db);
        let ests: Vec<Box<dyn CardinalityEstimator + '_>> = vec![
            Box::new(PostgresEstimator::new(ctx)),
            Box::new(SamplingEstimator::new(ctx)),
            Box::new(DampedSamplingEstimator::new(ctx)),
            Box::new(PessimisticEstimator::new(ctx)),
            Box::new(MagicConstantEstimator::new(ctx)),
        ];
        let names: Vec<&str> = ests.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["PostgreSQL", "HyPer", "DBMS A", "DBMS B", "DBMS C"]);
        for e in &ests {
            let est = e.estimate(&q, q.all_rels());
            assert!(est >= 1.0, "{} produced {est}", e.name());
            assert!(est.is_finite());
        }
    }
}
