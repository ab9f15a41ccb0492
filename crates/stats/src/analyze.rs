//! The ANALYZE pipeline: computes per-table and per-column statistics.

use std::cmp::Reverse;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qob_storage::{DataType, Database, EncodedColumn, TableId, Value};

use crate::histogram::EquiDepthHistogram;
use crate::sample::TableSample;

/// Knobs of the statistics collection, mirroring PostgreSQL's
/// `default_statistics_target` machinery.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Rows sampled per table for histogram / MCV / distinct estimation
    /// (PostgreSQL samples `300 × statistics_target` rows).
    pub stats_sample_size: usize,
    /// Rows kept per table for the sampling-based estimators (HyPer uses
    /// 1000 rows per table).
    pub estimator_sample_size: usize,
    /// Maximum number of most-common values tracked per column.
    pub mcv_entries: usize,
    /// Number of histogram buckets per integer column.
    pub histogram_buckets: usize,
    /// Whether to also compute exact distinct counts (Figure 5 experiment).
    pub exact_distinct: bool,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            stats_sample_size: 3_000,
            estimator_sample_size: 1_000,
            mcv_entries: 10,
            histogram_buckets: 100,
            exact_distinct: true,
            seed: 0x5eed,
        }
    }
}

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Fraction of NULL rows (from the stats sample).
    pub null_frac: f64,
    /// Distinct-count estimate from the sample (PostgreSQL's Duj1 estimator).
    pub distinct_sampled: f64,
    /// Exact distinct count over the whole column, if
    /// [`AnalyzeOptions::exact_distinct`] was set (0 otherwise).
    pub distinct_exact: usize,
    /// Most common values with their frequency (fraction of all rows).
    pub mcv: Vec<(Value, f64)>,
    /// Equi-depth histogram over the non-null values (integer columns only).
    pub histogram: Option<EquiDepthHistogram>,
    /// Minimum non-null value (integer columns only).
    pub min: Option<i64>,
    /// Maximum non-null value (integer columns only).
    pub max: Option<i64>,
}

impl ColumnStats {
    /// The distinct count the estimator should use.
    ///
    /// `use_exact` selects the exact count when available — the knob behind
    /// the paper's Figure 5 ("true distinct counts") experiment.
    pub fn distinct(&self, use_exact: bool) -> f64 {
        if use_exact && self.distinct_exact > 0 {
            self.distinct_exact as f64
        } else {
            self.distinct_sampled.max(1.0)
        }
    }

    /// The frequency of `value` if it is a tracked most-common value.
    pub fn mcv_frequency(&self, value: &Value) -> Option<f64> {
        self.mcv.iter().find(|(v, _)| v == value).map(|(_, f)| *f)
    }

    /// Sum of all tracked MCV frequencies.
    pub fn mcv_total_frequency(&self) -> f64 {
        self.mcv.iter().map(|(_, f)| *f).sum()
    }
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total rows in the table.
    pub row_count: usize,
    /// Per-column statistics (indexed by column position).
    pub columns: Vec<ColumnStats>,
    /// The estimator sample (~1000 rows) used by sampling-based estimators.
    pub sample: TableSample,
}

/// Statistics for a whole database.
#[derive(Debug, Clone)]
pub struct DatabaseStats {
    tables: Vec<TableStats>,
    options: AnalyzeOptions,
}

impl DatabaseStats {
    /// Statistics of one table.
    pub fn table(&self, id: TableId) -> &TableStats {
        &self.tables[id.index()]
    }

    /// The options the statistics were computed with.
    pub fn options(&self) -> &AnalyzeOptions {
        &self.options
    }

    /// Number of analysed tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// PostgreSQL's Duj1 distinct estimator (Haas & Stokes).
///
/// `n` = sample size, `big_n` = table size, `d` = distinct values in the
/// sample, `f1` = number of values occurring exactly once in the sample.
///
/// For skewed columns this systematically underestimates the distinct count —
/// exactly the behaviour the paper observes for PostgreSQL on IMDB
/// (Section 3.4).
pub fn duj1_distinct(n: usize, big_n: usize, d: usize, f1: usize) -> f64 {
    if n == 0 || d == 0 {
        return 0.0;
    }
    if n >= big_n {
        // Sampled the whole table: the sample count is exact.
        return d as f64;
    }
    let n = n as f64;
    let big_n = big_n as f64;
    let d = d as f64;
    let f1 = f1 as f64;
    let denom = n - f1 + f1 * n / big_n;
    let estimate = if denom <= 0.0 { d } else { n * d / denom };
    estimate.clamp(d, big_n)
}

fn analyze_column(
    col: &EncodedColumn,
    sample_rows: &[u32],
    total_rows: usize,
    options: &AnalyzeOptions,
) -> ColumnStats {
    let mut null_count = 0usize;
    let mut freq: HashMap<Value, usize> = HashMap::new();
    let mut int_values: Vec<i64> = Vec::new();
    for &row in sample_rows {
        let r = row as usize;
        if col.is_null(r) {
            null_count += 1;
            continue;
        }
        let v = col.value_at(r);
        if let Value::Int(i) = v {
            int_values.push(i);
        }
        *freq.entry(v).or_insert(0) += 1;
    }
    let sample_n = sample_rows.len();
    let non_null = sample_n - null_count;
    let null_frac = if sample_n == 0 { 0.0 } else { null_count as f64 / sample_n as f64 };

    let d = freq.len();
    let f1 = freq.values().filter(|&&c| c == 1).count();
    // Scale the population to non-null rows.
    let non_null_total = ((1.0 - null_frac) * total_rows as f64).round() as usize;
    let distinct_sampled = duj1_distinct(non_null, non_null_total.max(non_null), d, f1);

    // Most common values: keep values occurring at least twice in the
    // sample, most frequent first; equal counts order by display form
    // (`10` before `9`), so truncation never depends on hash order.
    let mut by_count: Vec<(Value, usize)> = freq.into_iter().filter(|&(_, c)| c >= 2).collect();
    by_count.sort_by_cached_key(|(v, c)| (Reverse(*c), v.to_string()));
    let mcv: Vec<(Value, f64)> = by_count
        .into_iter()
        .take(options.mcv_entries)
        .map(|(v, c)| (v, c as f64 / sample_n.max(1) as f64))
        .collect();

    let (histogram, min, max) = if col.data_type() == DataType::Int && !int_values.is_empty() {
        let min = int_values.iter().copied().min();
        let max = int_values.iter().copied().max();
        (EquiDepthHistogram::build(int_values, options.histogram_buckets), min, max)
    } else {
        (None, None, None)
    };

    let distinct_exact = if options.exact_distinct { col.distinct_count_exact() } else { 0 };

    ColumnStats { null_frac, distinct_sampled, distinct_exact, mcv, histogram, min, max }
}

/// Runs ANALYZE over every table of the database.
pub fn analyze_database(db: &Database, options: &AnalyzeOptions) -> DatabaseStats {
    let mut tables = Vec::with_capacity(db.table_count());
    for (tid, table) in db.tables() {
        let mut stats_rng =
            StdRng::seed_from_u64(options.seed ^ (tid.0 as u64).wrapping_mul(0x9E37_79B9));
        let stats_sample = TableSample::draw(table, options.stats_sample_size, &mut stats_rng);
        let mut est_rng =
            StdRng::seed_from_u64(options.seed ^ (tid.0 as u64).wrapping_mul(0xA24B_AED4));
        let estimator_sample =
            TableSample::draw(table, options.estimator_sample_size, &mut est_rng);
        let columns = (0..table.column_count())
            .map(|c| {
                analyze_column(
                    table.column(qob_storage::ColumnId(c as u32)),
                    stats_sample.rows(),
                    table.row_count(),
                    options,
                )
            })
            .collect();
        tables.push(TableStats { row_count: table.row_count(), columns, sample: estimator_sample });
    }
    DatabaseStats { tables, options: *options }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_storage::{ColumnId, ColumnMeta, TableBuilder};

    fn skewed_table(rows: usize) -> Database {
        let mut b = TableBuilder::new(
            "t",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("skewed", DataType::Int),
                ColumnMeta::new("label", DataType::Str),
                ColumnMeta::new("mostly_null", DataType::Int),
            ],
        );
        for i in 0..rows {
            // skewed: 70% zeros, the rest unique-ish.
            let skewed = if i % 10 < 7 { 0 } else { i as i64 };
            let label = if i % 3 == 0 { "common" } else { "rare" };
            let mostly_null = if i % 4 == 0 { Value::Int(i as i64) } else { Value::Null };
            b.push_row(vec![
                Value::Int(i as i64),
                Value::Int(skewed),
                Value::Str(label.to_owned()),
                mostly_null,
            ])
            .unwrap();
        }
        let mut db = Database::new();
        db.add_table(b.finish()).unwrap();
        db
    }

    #[test]
    fn duj1_properties() {
        // Whole table sampled: exact.
        assert_eq!(duj1_distinct(100, 100, 40, 10), 40.0);
        // Empty inputs.
        assert_eq!(duj1_distinct(0, 1000, 0, 0), 0.0);
        // All sample values unique in a big table: estimate well above d.
        let est = duj1_distinct(100, 100_000, 100, 100);
        assert!(est > 100.0);
        assert!(est <= 100_000.0);
        // No singletons: estimate equals d (every value repeated => few distincts).
        let est = duj1_distinct(100, 100_000, 10, 0);
        assert!((est - 10.0).abs() < 1e-9);
        // Estimate is clamped to [d, N].
        let est = duj1_distinct(10, 20, 10, 10);
        assert!((10.0..=20.0).contains(&est));
    }

    #[test]
    fn analyze_computes_null_fraction_and_distincts() {
        let db = skewed_table(2000);
        let stats = analyze_database(&db, &AnalyzeOptions::default());
        assert_eq!(stats.table_count(), 1);
        let t = stats.table(TableId(0));
        assert_eq!(t.row_count, 2000);

        let id_stats = &t.columns[0];
        assert!(id_stats.null_frac.abs() < 1e-9);
        assert!(id_stats.distinct(true) as usize == 2000);
        assert!(
            id_stats.distinct(false) > 500.0,
            "unique column distinct estimate should be large"
        );

        let null_stats = &t.columns[3];
        assert!(
            (null_stats.null_frac - 0.75).abs() < 0.05,
            "≈75% nulls, got {}",
            null_stats.null_frac
        );

        let label_stats = &t.columns[2];
        assert_eq!(label_stats.distinct_exact, 2);
        assert!(label_stats.mcv_frequency(&Value::Str("common".into())).is_some());
        assert!(label_stats.mcv_total_frequency() > 0.9, "both labels are MCVs");
    }

    #[test]
    fn skewed_column_underestimates_distinct_count() {
        // 10k rows, 70% zeros, ~3000 distinct values; a 1000-row sample makes
        // Duj1 underestimate, like PostgreSQL on IMDB.
        let db = skewed_table(10_000);
        let opts = AnalyzeOptions { stats_sample_size: 1_000, ..Default::default() };
        let stats = analyze_database(&db, &opts);
        let skewed = &stats.table(TableId(0)).columns[1];
        let exact = skewed.distinct_exact as f64;
        assert!(exact > 2500.0);
        assert!(
            skewed.distinct(false) < exact * 0.9,
            "sampled estimate {} should undershoot exact {}",
            skewed.distinct(false),
            exact
        );
        assert!(skewed.distinct(true) == exact);
    }

    #[test]
    fn histograms_and_min_max_only_for_int_columns() {
        let db = skewed_table(500);
        let stats = analyze_database(&db, &AnalyzeOptions::default());
        let t = stats.table(TableId(0));
        assert!(t.columns[0].histogram.is_some());
        assert_eq!(t.columns[0].min, Some(0));
        assert_eq!(t.columns[0].max, Some(499));
        assert!(t.columns[2].histogram.is_none());
        assert!(t.columns[2].min.is_none());
    }

    #[test]
    fn mcv_ties_break_by_display_form() {
        // Twelve values twice each and `9` a third time: more equal-count
        // candidates than `mcv_entries`, so the tie order decides which stay.
        let mut b = TableBuilder::new("t", vec![ColumnMeta::new("v", DataType::Int)]);
        for v in (1..=12).chain(1..=12).chain([9]) {
            b.push_row(vec![Value::Int(v)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(b.finish()).unwrap();
        let stats = analyze_database(&db, &AnalyzeOptions::default());
        let mcv: Vec<&Value> =
            stats.table(TableId(0)).columns[0].mcv.iter().map(|(v, _)| v).collect();
        let expected: Vec<Value> = [9, 1, 10, 11, 12, 2, 3, 4, 5, 6].map(Value::Int).into();
        assert_eq!(mcv, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn estimator_sample_size_is_respected() {
        let db = skewed_table(5_000);
        let opts = AnalyzeOptions { estimator_sample_size: 100, ..Default::default() };
        let stats = analyze_database(&db, &opts);
        assert_eq!(stats.table(TableId(0)).sample.len(), 100);
        assert_eq!(stats.options().estimator_sample_size, 100);
    }

    #[test]
    fn exact_distinct_can_be_disabled() {
        let db = skewed_table(500);
        let opts = AnalyzeOptions { exact_distinct: false, ..Default::default() };
        let stats = analyze_database(&db, &opts);
        let c = &stats.table(TableId(0)).columns[0];
        assert_eq!(c.distinct_exact, 0);
        // Falls back to the sampled estimate even when exact is requested.
        assert_eq!(c.distinct(true), c.distinct(false));
    }

    #[test]
    fn analyze_is_deterministic() {
        let db = skewed_table(3000);
        let a = analyze_database(&db, &AnalyzeOptions::default());
        let b = analyze_database(&db, &AnalyzeOptions::default());
        let ca = &a.table(TableId(0)).columns[1];
        let cb = &b.table(TableId(0)).columns[1];
        assert_eq!(ca.distinct_sampled, cb.distinct_sampled);
        assert_eq!(ca.null_frac, cb.null_frac);
        assert_eq!(a.table(TableId(0)).sample.rows(), b.table(TableId(0)).sample.rows());
        let _ = a.table(TableId(0)).columns[0].histogram.as_ref().map(|h| h.bounds().len());
        let _ = ColumnId(0);
    }
}
