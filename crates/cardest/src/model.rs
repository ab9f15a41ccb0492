//! The estimator trait and the shared "selectivity × independence" skeleton
//! that all profile estimators build on.

use qob_plan::{JoinEdge, QuerySpec, RelSet};
use qob_stats::DatabaseStats;
use qob_storage::Database;

/// A cardinality estimator: maps a connected subexpression (identified by its
/// [`RelSet`]) of a query to an estimated result cardinality in rows.
pub trait CardinalityEstimator {
    /// Short display name (used as the system label in experiment output).
    fn name(&self) -> &str;

    /// Estimated cardinality of the subexpression joining exactly the
    /// relations in `set`, with all base-table predicates of those relations
    /// applied.
    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64;

    /// Convenience: the estimate for a single base relation.
    fn estimate_base(&self, query: &QuerySpec, rel: usize) -> f64 {
        self.estimate(query, RelSet::single(rel))
    }

    /// This estimator bound to one query: a function that returns, for any
    /// relation set of `query`, exactly the bits [`Self::estimate`] would.
    ///
    /// A caller about to ask for many sets of one query binds once — the
    /// statement's planner does, in its constructor — so that an estimator
    /// can do its per-query work once instead of once per set.  The
    /// default answers every set with [`Self::estimate`]; the five
    /// profiles of [`crate::estimators`] override it to compute each
    /// relation's base rows and each join edge's selectivity once
    /// ([`bind_independence`]).  Wrappers that implement only `estimate`
    /// (a counting or timing decorator) keep the per-set path, which is
    /// what they observe.
    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        Box::new(move |set| self.estimate(query, set))
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for &T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        (**self).estimate(query, set)
    }
    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        (**self).bind(query)
    }
}

impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        (**self).estimate(query, set)
    }
    fn bind<'s>(&'s self, query: &'s QuerySpec) -> Box<dyn Fn(RelSet) -> f64 + 's> {
        (**self).bind(query)
    }
}

/// Shared read-only context: the catalog and its statistics.
#[derive(Clone, Copy)]
pub struct EstimatorContext<'a> {
    /// The database catalog (table row counts, schemas).
    pub db: &'a Database,
    /// The ANALYZE statistics.
    pub stats: &'a DatabaseStats,
}

impl<'a> EstimatorContext<'a> {
    /// Creates a context.
    pub fn new(db: &'a Database, stats: &'a DatabaseStats) -> Self {
        EstimatorContext { db, stats }
    }

    /// Total rows of the table backing relation `rel` of `query`.
    pub fn base_table_rows(&self, query: &QuerySpec, rel: usize) -> f64 {
        self.db.table(query.relations[rel].table).row_count() as f64
    }

    /// The distinct count of a join column (per-attribute statistic), using
    /// either the sampled or the exact count.
    pub fn join_column_distinct(
        &self,
        query: &QuerySpec,
        rel: usize,
        column: qob_storage::ColumnId,
        use_exact: bool,
    ) -> f64 {
        let table = query.relations[rel].table;
        let col_stats = &self.stats.table(table).columns[column.index()];
        col_stats.distinct(use_exact).max(1.0)
    }
}

/// How multiple selectivities (join edges beyond the spanning ones, multiple
/// base predicates) are combined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Damping {
    /// Full independence: multiply all selectivities (PostgreSQL, HyPer).
    Independence,
    /// Exponential backoff: sort selectivities ascending and raise the i-th
    /// to the power `1/2^i` — the "adjust upwards" damping the paper
    /// speculates DBMS A applies (Section 3.2).
    ExponentialBackoff,
}

/// Combines selectivities in `[0, 1]` under the given damping rule (1 for
/// none).  Independence multiplies them in the order given, without
/// allocating; only exponential backoff has to collect and sort them.
pub fn combine_selectivities(sels: impl Iterator<Item = f64>, damping: Damping) -> f64 {
    match damping {
        Damping::Independence => sels.product(),
        Damping::ExponentialBackoff => {
            let mut sels: Vec<f64> = sels.collect();
            sels.sort_by(|a, b| a.partial_cmp(b).expect("selectivities are not NaN"));
            sels.iter().enumerate().map(|(i, s)| s.powf(1.0 / (1u64 << i.min(62)) as f64)).product()
        }
    }
}

/// The textbook join-size formula the paper quotes for PostgreSQL
/// (Section 2.3): the selectivity of an equality join edge is
/// `1 / max(dom(left), dom(right))`, where `dom` is the distinct count of the
/// join attribute (the principle-of-inclusion assumption).
pub fn join_edge_selectivity(
    ctx: &EstimatorContext<'_>,
    query: &QuerySpec,
    edge: &JoinEdge,
    use_exact_distinct: bool,
) -> f64 {
    let dl = ctx.join_column_distinct(query, edge.left, edge.left_column, use_exact_distinct);
    let dr = ctx.join_column_distinct(query, edge.right, edge.right_column, use_exact_distinct);
    1.0 / dl.max(dr).max(1.0)
}

/// The shared estimation skeleton:
///
/// ```text
/// |set| = Π_r base_rows(r)  ×  combine( join selectivities of edges within set )
///         × per_join_shrink^(#edges − 1)
/// ```
///
/// clamped to at least 1 row (as PostgreSQL does, see footnote 6 of the
/// paper).  `base_rows(rel)` is relation `rel`'s filtered rows and
/// `edge_selectivity(i)` the selectivity of `query.joins[i]`.  The estimator
/// profiles differ in `base_rows`, the damping and the extra shrink factor.
///
/// Base rows are multiplied in relation order, then the combined
/// selectivities of the edges in `query.joins` order: the one formula
/// behind both the per-set path and [`bind_independence`].
pub fn independence_estimate(
    query: &QuerySpec,
    set: RelSet,
    base_rows: impl Fn(usize) -> f64,
    edge_selectivity: impl Fn(usize) -> f64,
    damping: Damping,
    per_join_shrink: f64,
) -> f64 {
    let mut card: f64 = 1.0;
    for rel in set.iter() {
        card *= base_rows(rel).max(0.0);
    }
    let within = (0..query.joins.len()).filter(|&i| {
        let edge = &query.joins[i];
        set.contains(edge.left) && set.contains(edge.right)
    });
    let sels = within.clone().map(|i| edge_selectivity(i).clamp(0.0, 1.0));
    card *= combine_selectivities(sels, damping);
    if per_join_shrink < 1.0 {
        // One shrink per join beyond the first.
        card *= per_join_shrink.powi((within.count() as i32 - 1).max(0));
    }
    card.max(1.0)
}

/// [`independence_estimate`] bound to one query: `base_rows` runs once per
/// relation and `edge_selectivity` once per join edge, here, and each set's
/// estimate multiplies the stored terms in the same order — so it returns
/// the per-set path's bits.  What a profile's
/// [`CardinalityEstimator::bind`] returns.
pub fn bind_independence<'q>(
    query: &'q QuerySpec,
    base_rows: impl Fn(usize) -> f64,
    edge_selectivity: impl Fn(usize) -> f64,
    damping: Damping,
    per_join_shrink: f64,
) -> Box<dyn Fn(RelSet) -> f64 + 'q> {
    let rows: Vec<f64> = (0..query.rel_count()).map(base_rows).collect();
    let sels: Vec<f64> = (0..query.joins.len()).map(edge_selectivity).collect();
    Box::new(move |set| {
        independence_estimate(query, set, |rel| rows[rel], |i| sels[i], damping, per_join_shrink)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::BaseRelation;
    use qob_storage::ColumnId;

    fn two_rel_query() -> QuerySpec {
        QuerySpec::new(
            "q",
            vec![
                BaseRelation::unfiltered(qob_storage::TableId(0), "a"),
                BaseRelation::unfiltered(qob_storage::TableId(1), "b"),
                BaseRelation::unfiltered(qob_storage::TableId(2), "c"),
            ],
            vec![
                JoinEdge { left: 0, left_column: ColumnId(1), right: 1, right_column: ColumnId(0) },
                JoinEdge { left: 1, left_column: ColumnId(1), right: 2, right_column: ColumnId(0) },
            ],
        )
    }

    #[test]
    fn combine_independence_multiplies() {
        let c = combine_selectivities([0.1, 0.5, 0.2].into_iter(), Damping::Independence);
        assert!((c - 0.01).abs() < 1e-12);
        assert_eq!(combine_selectivities(std::iter::empty(), Damping::Independence), 1.0);
    }

    #[test]
    fn exponential_backoff_is_larger_than_independence() {
        let sels = [0.1, 0.5, 0.2];
        let indep = combine_selectivities(sels.into_iter(), Damping::Independence);
        let damped = combine_selectivities(sels.into_iter(), Damping::ExponentialBackoff);
        assert!(damped > indep, "damping lifts the combined selectivity");
        assert!(damped <= 1.0);
        // The most selective factor keeps its full weight, so the damped
        // combination can never exceed it alone being applied to nothing else.
        assert!(damped <= 0.1 + 1e-12, "most selective factor applies fully, got {damped}");
    }

    #[test]
    fn backoff_single_selectivity_is_unchanged() {
        let s = combine_selectivities([0.3].into_iter(), Damping::ExponentialBackoff);
        assert!((s - 0.3).abs() < 1e-12);
    }

    #[test]
    fn independence_estimate_applies_base_and_edges() {
        let q = two_rel_query();
        // |A|=100, |B|=1000, |C|=10; both edges selectivity 1/100.
        let est = independence_estimate(
            &q,
            q.all_rels(),
            |r| [100.0, 1000.0, 10.0][r],
            |_| 1.0 / 100.0,
            Damping::Independence,
            1.0,
        );
        assert!((est - 100.0).abs() < 1e-6, "100*1000*10 / 100 / 100 = 100, got {est}");
        // A single edge subexpression: 100 * 1000 / 100 = 1000.
        let sub = RelSet::from_iter([0usize, 1usize]);
        let est = independence_estimate(
            &q,
            sub,
            |r| [100.0, 1000.0, 10.0][r],
            |_| 1.0 / 100.0,
            Damping::Independence,
            1.0,
        );
        assert!((est - 1000.0).abs() < 1e-6, "got {est}");
    }

    #[test]
    fn estimate_is_clamped_to_one() {
        let q = two_rel_query();
        let est =
            independence_estimate(&q, q.all_rels(), |_| 2.0, |_| 1e-9, Damping::Independence, 1.0);
        assert_eq!(est, 1.0);
    }

    #[test]
    fn per_join_shrink_reduces_deep_joins_only() {
        let q = two_rel_query();
        let base = |r: usize| [100.0, 100.0, 100.0][r];
        let without =
            independence_estimate(&q, q.all_rels(), base, |_| 0.01, Damping::Independence, 1.0);
        let with =
            independence_estimate(&q, q.all_rels(), base, |_| 0.01, Damping::Independence, 0.5);
        assert!(with < without);
        // Single-edge subexpression is unaffected by the shrink.
        let sub = RelSet::from_iter([0usize, 1usize]);
        let a = independence_estimate(&q, sub, base, |_| 0.01, Damping::Independence, 1.0);
        let b = independence_estimate(&q, sub, base, |_| 0.01, Damping::Independence, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn bound_estimates_equal_per_set_estimates_bit_for_bit() {
        let q = two_rel_query();
        let base = |r: usize| [123.4, 0.7, 9_876.5][r];
        let sel = |i: usize| [1.0 / 3.0, 1.0 / 7.0][i];
        for damping in [Damping::Independence, Damping::ExponentialBackoff] {
            for shrink in [1.0, 0.25] {
                let bound = bind_independence(&q, base, sel, damping, shrink);
                for set in q.all_rels().subsets() {
                    let per_set = independence_estimate(&q, set, base, sel, damping, shrink);
                    assert_eq!(bound(set).to_bits(), per_set.to_bits(), "{set}");
                }
            }
        }
    }

    #[test]
    fn default_binding_and_forwarding_answer_with_estimate() {
        struct BySize;
        impl CardinalityEstimator for BySize {
            fn name(&self) -> &str {
                "by size"
            }
            fn estimate(&self, _: &QuerySpec, set: RelSet) -> f64 {
                set.len() as f64 * 10.0
            }
        }
        let q = two_rel_query();
        let by_ref = &BySize;
        let boxed: Box<dyn CardinalityEstimator> = Box::new(BySize);
        for bound in [BySize.bind(&q), CardinalityEstimator::bind(&by_ref, &q), boxed.bind(&q)] {
            assert_eq!(bound(q.all_rels()), 30.0);
        }
    }

    #[test]
    fn singleton_set_uses_base_rows_only() {
        let q = two_rel_query();
        let est = independence_estimate(
            &q,
            RelSet::single(1),
            |r| [5.0, 42.0, 7.0][r],
            |_| 0.001,
            Damping::Independence,
            1.0,
        );
        assert_eq!(est, 42.0);
    }
}
