//! # qob-bench
//!
//! The experiment binaries: one per table/figure of the paper (run with
//! `cargo run --release -p qob-bench --bin <name>`).  Performance numbers
//! come from the `benchmark/` harness instead.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — base-table q-error percentiles per system |
//! | `figure3` | Figure 3 — join estimate errors by join count per system |
//! | `figure4` | Figure 4 — JOB vs TPC-H estimate errors |
//! | `figure5` | Figure 5 — default vs exact distinct counts |
//! | `table_risk` | Section 4.1 table — slowdown of injected estimates |
//! | `figure6` | Figure 6 — NL-join / rehash ablations |
//! | `figure7` | Figure 7 — PK vs PK+FK index slowdowns |
//! | `figure8` | Figure 8 — cost vs runtime for three cost models |
//! | `figure9` | Figure 9 — Quickpick plan-space distributions |
//! | `table2` | Table 2 — tree-shape restrictions |
//! | `table3` | Table 3 — DP vs Quickpick-1000 vs GOO |
//!
//! All binaries accept the environment variables `QOB_MOVIES` (scale, default
//! 1000 movies), `QOB_QUERY_LIMIT` (number of queries, default: all 113) and
//! `QOB_SEED`.

use qob_core::experiments::{BoxPlot, EstimateQuality};
use qob_core::{BenchmarkContext, SlowdownBucket, SlowdownDistribution};
use qob_datagen::Scale;
use qob_storage::IndexConfig;

/// Scale taken from `QOB_MOVIES` (default 1000 movies ≈ laptop-friendly).
pub fn scale_from_env() -> Scale {
    let movies = std::env::var("QOB_MOVIES").ok().and_then(|v| v.parse().ok()).unwrap_or(1_000);
    let seed = std::env::var("QOB_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    Scale::with_movies(movies).with_seed(seed)
}

/// Query limit taken from `QOB_QUERY_LIMIT` (default: the whole workload).
pub fn query_limit_from_env() -> Option<usize> {
    std::env::var("QOB_QUERY_LIMIT").ok().and_then(|v| v.parse().ok())
}

/// Builds the benchmark context for a harness binary, printing what it does.
pub fn build_context(index_config: IndexConfig) -> BenchmarkContext {
    let scale = scale_from_env();
    eprintln!(
        "[qob-bench] generating IMDB-like database ({} movies, seed {}), {} ...",
        scale.movies,
        scale.seed,
        index_config.label()
    );
    let ctx = BenchmarkContext::new(scale, index_config).expect("database generation");
    eprintln!(
        "[qob-bench] {} tables, {} rows, {} queries",
        ctx.db().table_count(),
        ctx.db().total_rows(),
        ctx.queries().len()
    );
    ctx
}

/// Formats a ratio the way the paper's figures label their log axes
/// (`12x` overestimation, `0.01x` → `100x` underestimation).
pub fn format_ratio(ratio: f64) -> String {
    if ratio >= 1.0 {
        format!("{ratio:.1}x over")
    } else {
        format!("{:.1}x under", 1.0 / ratio.max(1e-12))
    }
}

/// Prints one Figure 3 style panel (boxplots per join count) as text.
pub fn print_estimate_quality(quality: &EstimateQuality, max_joins: usize) {
    println!("--- {} ---", quality.system);
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "joins", "count", "5th", "25th", "median", "75th", "95th"
    );
    for joins in 0..=max_joins {
        if let Some(BoxPlot { p5, p25, median, p75, p95, count }) = quality.boxplot(joins) {
            println!(
                "{:>6} {:>8} {:>14} {:>14} {:>14} {:>14} {:>14}",
                joins,
                count,
                format_ratio(p5),
                format_ratio(p25),
                format_ratio(median),
                format_ratio(p75),
                format_ratio(p95)
            );
        }
    }
    println!();
}

/// Prints a slowdown histogram row in the paper's bucket format.
pub fn print_slowdown_row(label: &str, distribution: &SlowdownDistribution) {
    print!("{label:<22}");
    for bucket in SlowdownBucket::all() {
        print!(" {:>9.1}%", distribution.fraction(bucket) * 100.0);
    }
    println!("   ({} queries)", distribution.len());
}

/// Prints the header matching [`print_slowdown_row`].
pub fn print_slowdown_header() {
    print!("{:<22}", "");
    for bucket in SlowdownBucket::all() {
        print!(" {:>10}", bucket.label());
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(format_ratio(10.0), "10.0x over");
        assert_eq!(format_ratio(0.1), "10.0x under");
        assert_eq!(format_ratio(1.0), "1.0x over");
    }

    #[test]
    fn env_defaults() {
        // Without env vars set the defaults apply.
        std::env::remove_var("QOB_MOVIES");
        std::env::remove_var("QOB_QUERY_LIMIT");
        assert_eq!(scale_from_env().movies, 1_000);
        assert_eq!(query_limit_from_env(), None);
    }
}
