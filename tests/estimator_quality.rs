//! Qualitative reproduction of the paper's Section 3 findings on the
//! synthetic IMDB-like data (shapes, not absolute numbers).

use qob_core::experiments::{
    base_table_quality, distinct_count_experiment, join_estimate_quality, tpch_contrast,
};
use qob_core::{BenchmarkContext, EstimatorKind};
use qob_datagen::Scale;
use qob_storage::encoding::fnv1a64;
use qob_storage::IndexConfig;

fn ctx() -> BenchmarkContext {
    BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap()
}

#[test]
fn table1_base_table_medians_are_near_one_but_tails_are_heavy() {
    let ctx = ctx();
    let rows = base_table_quality(&ctx, Some(40));
    assert_eq!(rows.len(), 5);
    for row in &rows {
        assert!(
            row.summary.median < 4.0,
            "{}: median base-table q-error should be small, got {}",
            row.system,
            row.summary.median
        );
        assert!(row.summary.max >= row.summary.median);
    }
    // The sampling-based profiles (DBMS A, HyPer) beat the magic-constant
    // profile (DBMS C) at the tail, as in Table 1.
    let get = |name: &str| rows.iter().find(|r| r.system == name).unwrap().summary;
    assert!(
        get("HyPer").p95 <= get("DBMS C").p95 * 1.5,
        "sampling should not have a much heavier tail than magic constants"
    );
}

#[test]
fn figure3_errors_grow_with_join_count_and_skew_to_underestimation() {
    let ctx = ctx();
    let quality = join_estimate_quality(&ctx, Some(25), 4);
    let pg = quality.iter().find(|q| q.system == "PostgreSQL").unwrap();
    // Spread grows with the number of joins.
    let spread = |joins: usize| {
        pg.boxplot(joins).map(|b| (b.p95.max(1e-12) / b.p5.max(1e-12)).log10()).unwrap_or(0.0)
    };
    let low = spread(1);
    let high = spread(3).max(spread(4));
    assert!(
        high >= low,
        "error spread should not shrink as joins are added (1 join: {low:.2} dex, deep: {high:.2} dex)"
    );
    // Multi-join medians skew towards underestimation (ratio < 1), the
    // paper's systematic-underestimation observation.
    if let Some(deep) = pg.boxplot(3) {
        assert!(deep.median <= 1.5, "deep joins should not be systematically overestimated");
    }
    // DBMS B underestimates at least as hard as PostgreSQL.
    let dbms_b = quality.iter().find(|q| q.system == "DBMS B").unwrap();
    if let (Some(b), Some(p)) = (dbms_b.boxplot(3), pg.boxplot(3)) {
        assert!(b.median <= p.median * 1.5, "DBMS B should collapse towards 1 row");
    }
}

#[test]
fn figure4_tpch_is_easier_than_job() {
    let ctx = ctx();
    let contrast = tpch_contrast(&ctx, &["6a", "16d", "17b", "25c"], Scale::tiny(), 4);
    let (job, tpch) = (contrast.job, contrast.tpch);
    assert!(
        contrast.tpch_truth_failures.is_empty(),
        "tiny-scale TPC-H truth extraction must succeed: {:?}",
        contrast.tpch_truth_failures
    );
    assert!(!job.is_empty());
    assert_eq!(tpch.len(), 3);
    let worst_error = |series: &[(String, Vec<Vec<f64>>)]| {
        series
            .iter()
            .flat_map(|(_, by_joins)| by_joins.iter().flatten())
            .map(|r| if *r >= 1.0 { *r } else { 1.0 / *r })
            .fold(1.0f64, f64::max)
    };
    let job_worst = worst_error(&job);
    let tpch_worst = worst_error(&tpch);
    assert!(
        job_worst >= tpch_worst,
        "JOB-style queries must be at least as hard as TPC-H-style ones ({job_worst:.1} vs {tpch_worst:.1})"
    );
}

#[test]
fn figure5_true_distinct_counts_do_not_fix_underestimation() {
    let ctx = ctx();
    let (default, exact) = distinct_count_experiment(&ctx, Some(20), 4);
    // Using exact distinct counts must not *increase* the estimates: the join
    // selectivity denominator can only grow, so the systematic
    // underestimation trend persists (or worsens), as in Figure 5.
    for joins in 1..=3 {
        if let (Some(d), Some(e)) = (default.boxplot(joins), exact.boxplot(joins)) {
            assert!(
                e.median <= d.median * 1.05,
                "true distinct counts should not lift the median at {joins} joins ({} vs {})",
                e.median,
                d.median
            );
        }
    }
}

/// Estimate identity, pinned: one FNV-1a digest over the bits of the
/// estimate of every connected subexpression of the 113 JOB queries (46 202
/// sets) under each of the six profiles.  Estimator performance work must
/// leave it alone; only a change that *means* to estimate differently may
/// re-pin it, and says so.  The per-query binding the planner uses
/// (`CardinalityEstimator::bind`) must return the same bits for every set.
#[test]
fn estimate_digest_is_pinned() {
    const EXPECTED: u64 = 0x015a561eaa359a6e;
    let ctx = ctx();
    let kinds = [
        EstimatorKind::Postgres,
        EstimatorKind::PostgresTrueDistinct,
        EstimatorKind::HyPer,
        EstimatorKind::DbmsA,
        EstimatorKind::DbmsB,
        EstimatorKind::DbmsC,
    ];
    let mut bits = Vec::new();
    let mut sets = 0usize;
    for kind in kinds {
        let estimator = ctx.estimator(kind);
        for query in ctx.queries() {
            let bound = estimator.bind(query);
            for set in query.connected_subexpressions() {
                let estimate = estimator.estimate(query, set);
                assert_eq!(
                    bound(set).to_bits(),
                    estimate.to_bits(),
                    "{} {}: the bound estimate of {set} differs",
                    kind.label(),
                    query.name
                );
                bits.extend_from_slice(&estimate.to_bits().to_le_bytes());
                sets += 1;
            }
        }
    }
    assert_eq!(sets, 6 * 46_202);
    let digest = fnv1a64(&bits);
    assert_eq!(digest, EXPECTED, "estimates changed; the digest is now {digest:#018x}");
}
