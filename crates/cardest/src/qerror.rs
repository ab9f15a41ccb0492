//! The q-error metric and its summaries (Section 3.1 of the paper).

/// The q-error of an estimate: the factor by which it deviates from the true
/// cardinality, `max(est/true, true/est)`.
///
/// Both quantities are clamped to at least 1 row first, following the paper's
/// treatment (estimates below one row are rounded up to 1, and empty true
/// results are treated as 1 so the ratio stays finite).
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// The signed ratio `estimate / truth` (clamped to ≥ 1 row each), used for
/// the over/underestimation axis of Figure 3: values below 1 are
/// underestimates, above 1 overestimates.
pub fn signed_ratio(estimate: f64, truth: f64) -> f64 {
    estimate.max(1.0) / truth.max(1.0)
}

/// The `p`-th percentile (0–100) of a sample, using linear interpolation
/// between closest ranks.  NaN values are ignored (one corrupt estimate must
/// not abort a whole figure run); returns `None` if no finite-or-infinite
/// value remains.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted_finite(values)?;
    let p = p.clamp(0.0, 100.0) / 100.0;
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// The nearest-rank `q`-quantile (`q` in 0–1) of a sample: the smallest
/// element with at least `⌈q·n⌉` values at or below it — the convention
/// latency reports use (`p50`, `p95`, `p99`), where the answer is always an
/// observed sample point.  NaN values are ignored like in [`percentile`];
/// returns `None` if nothing remains.
///
/// This is the one nearest-rank implementation over unsorted `f64` samples;
/// `qob-plangrid` takes its median plan rank from it.
pub fn nearest_rank_percentile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted_finite(values)?;
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The NaN-filtered, totally-ordered sample both percentile flavours share.
fn sorted_finite(values: &[f64]) -> Option<Vec<f64>> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    Some(sorted)
}

/// Summary of a q-error distribution in the shape of the paper's Table 1
/// (median / 90th / 95th / max percentiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QErrorSummary {
    /// 50th percentile.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
    /// Number of samples the percentiles were computed over (NaN excluded).
    pub count: usize,
    /// Number of NaN samples that were dropped before summarising — surfaced
    /// so a run with corrupt estimates is visible rather than silently
    /// cleaned up.
    pub nan_count: usize,
}

impl QErrorSummary {
    /// Summarises a set of q-errors.  NaN values are dropped (and counted in
    /// [`QErrorSummary::nan_count`]); returns `None` if no valid sample
    /// remains.
    pub fn from_errors(errors: &[f64]) -> Option<Self> {
        let valid: Vec<f64> = errors.iter().copied().filter(|v| !v.is_nan()).collect();
        if valid.is_empty() {
            return None;
        }
        Some(QErrorSummary {
            median: percentile(&valid, 50.0)?,
            p90: percentile(&valid, 90.0)?,
            p95: percentile(&valid, 95.0)?,
            max: valid.iter().copied().fold(f64::MIN, f64::max),
            count: valid.len(),
            nan_count: errors.len() - valid.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_symmetric_and_at_least_one() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(1000.0, 100.0), 10.0);
        assert!(q_error(0.0, 5.0) >= 1.0, "zero estimate clamps to 1");
        assert_eq!(q_error(0.5, 1.0), 1.0);
        assert_eq!(q_error(1.0, 0.0), 1.0, "empty true result treated as 1");
    }

    #[test]
    fn signed_ratio_direction() {
        assert!(signed_ratio(10.0, 100.0) < 1.0, "underestimate");
        assert!(signed_ratio(1000.0, 100.0) > 1.0, "overestimate");
        assert_eq!(signed_ratio(100.0, 100.0), 1.0);
        assert_eq!(signed_ratio(0.0, 0.0), 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 100.0), Some(5.0));
        assert_eq!(percentile(&values, 50.0), Some(3.0));
        assert_eq!(percentile(&values, 25.0), Some(2.0));
        assert_eq!(percentile(&values, 10.0), Some(1.4));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let values = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&values, 50.0), Some(3.0));
    }

    #[test]
    fn percentile_ignores_nans_instead_of_panicking() {
        let values = vec![5.0, f64::NAN, 1.0, 3.0, f64::NAN, 2.0, 4.0];
        assert_eq!(percentile(&values, 50.0), Some(3.0));
        assert_eq!(percentile(&values, 100.0), Some(5.0));
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), None);
    }

    #[test]
    fn nearest_rank_edge_ranks() {
        // n = 1: every quantile is the single sample.
        assert_eq!(nearest_rank_percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(nearest_rank_percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(nearest_rank_percentile(&[7.0], 1.0), Some(7.0));
        // Nearest rank picks an observed sample point, never interpolates.
        let values = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank_percentile(&values, 0.5), Some(2.0));
        assert_eq!(nearest_rank_percentile(&values, 0.51), Some(3.0));
        assert_eq!(nearest_rank_percentile(&values, 0.95), Some(4.0));
        // Ties: the duplicated value owns its whole rank range.
        let ties = vec![1.0, 2.0, 2.0, 2.0, 5.0];
        assert_eq!(nearest_rank_percentile(&ties, 0.4), Some(2.0));
        assert_eq!(nearest_rank_percentile(&ties, 0.8), Some(2.0));
        assert_eq!(nearest_rank_percentile(&ties, 0.99), Some(5.0));
        // NaN-safety: all-NaN yields None, partial NaN is filtered.
        assert_eq!(nearest_rank_percentile(&[f64::NAN, f64::NAN], 0.5), None);
        assert_eq!(nearest_rank_percentile(&[], 0.5), None);
        assert_eq!(nearest_rank_percentile(&[f64::NAN, 3.0], 0.5), Some(3.0));
        // Out-of-range quantiles clamp.
        assert_eq!(nearest_rank_percentile(&values, -1.0), Some(1.0));
        assert_eq!(nearest_rank_percentile(&values, 2.0), Some(4.0));
    }

    #[test]
    fn summary_matches_percentiles() {
        let errors: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = QErrorSummary::from_errors(&errors).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.nan_count, 0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 0.01);
        assert!((s.p90 - 90.1).abs() < 0.01);
        assert!((s.p95 - 95.05).abs() < 0.01);
        assert!(QErrorSummary::from_errors(&[]).is_none());
    }

    #[test]
    fn summary_surfaces_dropped_nans() {
        let mut errors: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        errors.push(f64::NAN);
        errors.push(f64::NAN);
        let s = QErrorSummary::from_errors(&errors).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.nan_count, 2);
        assert_eq!(s.max, 10.0);
        assert!(QErrorSummary::from_errors(&[f64::NAN]).is_none());
    }
}
