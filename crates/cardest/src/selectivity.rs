//! PostgreSQL-style base-table selectivity estimation from per-attribute
//! statistics (histograms, most-common values, distinct counts, null
//! fractions) plus the "magic constants" used when statistics do not apply.

use qob_plan::QuerySpec;
use qob_stats::ColumnStats;
use qob_storage::{CmpOp, Predicate, Value};

use crate::model::{combine_selectivities, Damping, EstimatorContext};

/// The magic constants a histogram-based estimator falls back to when its
/// statistics cannot handle a predicate (Section 2.3: "ad hoc methods that
/// are not theoretically grounded").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagicConstants {
    /// Selectivity assumed for `LIKE` patterns.
    pub like: f64,
    /// Selectivity assumed for an equality with an unknown (non-MCV) value
    /// when no distinct count is usable.
    pub unknown_equality: f64,
    /// Selectivity assumed for a range predicate without a histogram.
    pub range: f64,
}

impl Default for MagicConstants {
    fn default() -> Self {
        // PostgreSQL's DEFAULT_MATCH_SEL = 0.005, DEFAULT_EQ_SEL = 0.005,
        // DEFAULT_INEQ_SEL = 0.3333.
        MagicConstants { like: 0.005, unknown_equality: 0.005, range: 1.0 / 3.0 }
    }
}

/// Estimates the selectivity of one predicate over one base table using
/// histogram/MCV statistics, in the style of PostgreSQL's clause selectivity
/// functions.
pub fn histogram_predicate_selectivity(
    stats: &ColumnStats,
    predicate: &Predicate,
    use_exact_distinct: bool,
    magic: &MagicConstants,
) -> f64 {
    let non_null = (1.0 - stats_null_frac(stats, predicate)).max(0.0);
    let sel = match predicate {
        Predicate::IntCmp { op: CmpOp::Eq, value, .. } => {
            equality_selectivity(stats, &Value::Int(*value), use_exact_distinct, magic)
        }
        Predicate::IntCmp { op: CmpOp::Ne, value, .. } => {
            (1.0 - equality_selectivity(stats, &Value::Int(*value), use_exact_distinct, magic))
                * non_null
        }
        Predicate::IntCmp { op, value, .. } => match &stats.histogram {
            Some(h) => h.selectivity(*op, *value) * non_null,
            None => magic.range,
        },
        Predicate::IntBetween { low, high, .. } => match &stats.histogram {
            Some(h) => h.selectivity_between(*low, *high) * non_null,
            None => magic.range * magic.range,
        },
        Predicate::StrEq { value, .. } => {
            equality_given_mcv(stats, str_mcv_frequency(stats, value), use_exact_distinct, magic)
        }
        Predicate::StrIn { values, .. } => values
            .iter()
            .map(|v| {
                equality_given_mcv(stats, str_mcv_frequency(stats, v), use_exact_distinct, magic)
            })
            .sum::<f64>()
            .min(1.0),
        Predicate::Like { .. } => magic.like,
        Predicate::IsNull { .. } => stats.null_frac,
        Predicate::IsNotNull { .. } => 1.0 - stats.null_frac,
        Predicate::And(ps) => combine_selectivities(
            ps.iter().map(|p| histogram_predicate_selectivity(stats, p, use_exact_distinct, magic)),
            Damping::Independence,
        ),
        Predicate::Or(ps) => {
            let mut not_matching = 1.0;
            for p in ps {
                not_matching *=
                    1.0 - histogram_predicate_selectivity(stats, p, use_exact_distinct, magic);
            }
            1.0 - not_matching
        }
        Predicate::Not(p) => {
            1.0 - histogram_predicate_selectivity(stats, p, use_exact_distinct, magic)
        }
    };
    sel.clamp(0.0, 1.0)
}

fn stats_null_frac(stats: &ColumnStats, predicate: &Predicate) -> f64 {
    match predicate {
        Predicate::IsNull { .. } | Predicate::IsNotNull { .. } => 0.0,
        _ => stats.null_frac,
    }
}

/// Equality selectivity in the PostgreSQL style: use the MCV frequency when
/// the literal is a tracked common value, otherwise distribute the remaining
/// (non-MCV, non-null) mass uniformly over the remaining distinct values.
pub fn equality_selectivity(
    stats: &ColumnStats,
    value: &Value,
    use_exact_distinct: bool,
    magic: &MagicConstants,
) -> f64 {
    equality_given_mcv(stats, stats.mcv_frequency(value), use_exact_distinct, magic)
}

/// The MCV frequency of a string literal, compared in place (the estimator
/// runs once per relation set; cloning the literal into a [`Value`] each
/// time was most of its cost on string predicates).
fn str_mcv_frequency(stats: &ColumnStats, literal: &str) -> Option<f64> {
    stats.mcv.iter().find(|(v, _)| matches!(v, Value::Str(s) if s == literal)).map(|(_, f)| *f)
}

/// [`equality_selectivity`] once the literal's MCV frequency is known.
fn equality_given_mcv(
    stats: &ColumnStats,
    mcv_frequency: Option<f64>,
    use_exact_distinct: bool,
    magic: &MagicConstants,
) -> f64 {
    if let Some(freq) = mcv_frequency {
        return freq.clamp(0.0, 1.0);
    }
    let distinct = stats.distinct(use_exact_distinct);
    if distinct <= 0.0 {
        return magic.unknown_equality;
    }
    let mcv_count = stats.mcv.len() as f64;
    let remaining_frac = (1.0 - stats.null_frac - stats.mcv_total_frequency()).max(0.0);
    let remaining_distinct = (distinct - mcv_count).max(1.0);
    let sel = remaining_frac / remaining_distinct;
    if sel <= 0.0 {
        magic.unknown_equality
    } else {
        sel.clamp(0.0, 1.0)
    }
}

/// Estimates the output rows of one base relation of a query by combining
/// the relation's predicates under the chosen damping rule (this is the
/// per-relation part of every histogram-based estimator profile).
pub fn histogram_base_rows(
    ctx: &EstimatorContext<'_>,
    query: &QuerySpec,
    rel: usize,
    use_exact_distinct: bool,
    magic: &MagicConstants,
    damping: Damping,
) -> f64 {
    let relation = &query.relations[rel];
    let table_stats = ctx.stats.table(relation.table);
    let rows = table_stats.row_count as f64;
    if relation.predicates.is_empty() {
        return rows;
    }
    let sels = relation.predicates.iter().map(|p| {
        // A predicate references exactly one column of the relation; use
        // that column's statistics (composite AND/OR predicates in JOB
        // always target a single column).
        let col = p.referenced_columns().first().copied();
        match col {
            Some(c) => histogram_predicate_selectivity(
                &table_stats.columns[c.index()],
                p,
                use_exact_distinct,
                magic,
            ),
            None => 1.0,
        }
    });
    rows * combine_selectivities(sels, damping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_stats::{analyze_database, AnalyzeOptions};
    use qob_storage::{ColumnId, ColumnMeta, DataType, Database, TableBuilder, TableId};

    /// 1000 rows: kind is 'movie' for 70%, 'tv' for 20%, ten rare kinds for
    /// the rest; year uniform in 1950..2010 with 10% nulls.
    fn db_and_stats() -> (Database, qob_stats::DatabaseStats) {
        let mut b = TableBuilder::new(
            "title",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("kind", DataType::Str),
                ColumnMeta::new("production_year", DataType::Int),
            ],
        );
        for i in 0..1000i64 {
            let kind = if i % 10 < 7 {
                "movie".to_owned()
            } else if i % 10 < 9 {
                "tv".to_owned()
            } else {
                format!("rare{}", i % 100)
            };
            let year = if i % 10 == 3 { Value::Null } else { Value::Int(1950 + (i % 60)) };
            b.push_row(vec![Value::Int(i), Value::Str(kind), year]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(b.finish()).unwrap();
        let stats = analyze_database(&db, &AnalyzeOptions::default());
        (db, stats)
    }

    fn kind_stats(stats: &qob_stats::DatabaseStats) -> &ColumnStats {
        &stats.table(TableId(0)).columns[1]
    }

    fn year_stats(stats: &qob_stats::DatabaseStats) -> &ColumnStats {
        &stats.table(TableId(0)).columns[2]
    }

    #[test]
    fn mcv_equality_is_accurate() {
        let (_, stats) = db_and_stats();
        let magic = MagicConstants::default();
        let sel =
            equality_selectivity(kind_stats(&stats), &Value::Str("movie".into()), false, &magic);
        assert!((sel - 0.7).abs() < 0.05, "movie ≈ 70%, got {sel}");
        let sel = equality_selectivity(kind_stats(&stats), &Value::Str("tv".into()), false, &magic);
        assert!((sel - 0.2).abs() < 0.05, "tv ≈ 20%, got {sel}");
    }

    #[test]
    fn non_mcv_equality_uses_remaining_mass() {
        let (_, stats) = db_and_stats();
        let magic = MagicConstants::default();
        let sel =
            equality_selectivity(kind_stats(&stats), &Value::Str("rare42".into()), false, &magic);
        assert!(sel < 0.05, "rare kinds get a small selectivity, got {sel}");
        assert!(sel > 0.0);
    }

    #[test]
    fn range_predicates_use_histogram() {
        let (_, stats) = db_and_stats();
        let magic = MagicConstants::default();
        let pred = Predicate::IntCmp { column: ColumnId(2), op: CmpOp::Ge, value: 1980 };
        let sel = histogram_predicate_selectivity(year_stats(&stats), &pred, false, &magic);
        // Half the non-null years are >= 1980; non-null fraction is 0.9.
        assert!((sel - 0.45).abs() < 0.08, "expected ≈ 0.45, got {sel}");
        let between = Predicate::IntBetween { column: ColumnId(2), low: 1950, high: 2010 };
        let sel = histogram_predicate_selectivity(year_stats(&stats), &between, false, &magic);
        assert!(sel > 0.8, "full range covers all non-null rows, got {sel}");
    }

    #[test]
    fn null_predicates_use_null_fraction() {
        let (_, stats) = db_and_stats();
        let magic = MagicConstants::default();
        let p = Predicate::IsNull { column: ColumnId(2) };
        let sel = histogram_predicate_selectivity(year_stats(&stats), &p, false, &magic);
        assert!((sel - 0.1).abs() < 0.03);
        let p = Predicate::IsNotNull { column: ColumnId(2) };
        let sel = histogram_predicate_selectivity(year_stats(&stats), &p, false, &magic);
        assert!((sel - 0.9).abs() < 0.03);
    }

    #[test]
    fn like_uses_magic_constant() {
        let (_, stats) = db_and_stats();
        let magic = MagicConstants::default();
        let p = Predicate::Like { column: ColumnId(1), pattern: "%movie%".into() };
        let sel = histogram_predicate_selectivity(kind_stats(&stats), &p, false, &magic);
        assert_eq!(sel, magic.like, "LIKE ignores the true match fraction");
    }

    #[test]
    fn boolean_composition() {
        let (_, stats) = db_and_stats();
        let magic = MagicConstants::default();
        let movie = Predicate::StrEq { column: ColumnId(1), value: "movie".into() };
        let tv = Predicate::StrEq { column: ColumnId(1), value: "tv".into() };
        let or = Predicate::Or(vec![movie.clone(), tv.clone()]);
        let sel_or = histogram_predicate_selectivity(kind_stats(&stats), &or, false, &magic);
        // OR under independence: 1 − (1−0.7)(1−0.2) = 0.76.
        assert!(sel_or > 0.7 && sel_or <= 1.0, "got {sel_or}");
        let and = Predicate::And(vec![movie.clone(), tv]);
        let sel_and = histogram_predicate_selectivity(kind_stats(&stats), &and, false, &magic);
        let sel_movie = histogram_predicate_selectivity(kind_stats(&stats), &movie, false, &magic);
        assert!(sel_and < sel_movie, "AND is more selective than either conjunct");
        let not = Predicate::Not(Box::new(movie));
        let sel_not = histogram_predicate_selectivity(kind_stats(&stats), &not, false, &magic);
        assert!((sel_not + sel_movie - 1.0).abs() < 1e-9);
    }

    #[test]
    fn base_rows_combines_relation_predicates() {
        let (db, stats) = db_and_stats();
        let ctx = EstimatorContext::new(&db, &stats);
        let magic = MagicConstants::default();
        let query = QuerySpec::new(
            "q",
            vec![qob_plan::BaseRelation::filtered(
                TableId(0),
                "t",
                vec![
                    Predicate::StrEq { column: ColumnId(1), value: "movie".into() },
                    Predicate::IntCmp { column: ColumnId(2), op: CmpOp::Ge, value: 1980 },
                ],
            )],
            vec![],
        );
        let rows = histogram_base_rows(&ctx, &query, 0, false, &magic, Damping::Independence);
        // 1000 * 0.7 * 0.45 ≈ 315 (independence; the true joint count differs).
        assert!(rows > 200.0 && rows < 450.0, "got {rows}");
        let damped =
            histogram_base_rows(&ctx, &query, 0, false, &magic, Damping::ExponentialBackoff);
        assert!(damped >= rows, "backoff never decreases the estimate");

        let unfiltered =
            QuerySpec::new("q2", vec![qob_plan::BaseRelation::unfiltered(TableId(0), "t")], vec![]);
        assert_eq!(
            histogram_base_rows(&ctx, &unfiltered, 0, false, &magic, Damping::Independence),
            1000.0
        );
    }
}
