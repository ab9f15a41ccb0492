//! True cardinalities and cardinality injection.
//!
//! The paper modifies PostgreSQL so that the optimizer can be fed
//! cardinalities for *arbitrary join expressions* — either the true counts
//! (obtained by executing `SELECT COUNT(*)` for every intermediate result) or
//! the estimates of another system (Section 2.4).  [`TrueCardinalities`]
//! stores such a per-query map and [`InjectedCardinalities`] overlays it on a
//! fallback estimator for any subexpression not covered by the injection.

use std::collections::HashMap;

use qob_plan::{QuerySpec, RelSet};

use crate::model::CardinalityEstimator;

/// Exact (or externally supplied) cardinalities for the subexpressions of one
/// query, keyed by [`RelSet`].
#[derive(Debug, Clone, Default)]
pub struct TrueCardinalities {
    map: HashMap<RelSet, f64>,
    name: String,
}

impl TrueCardinalities {
    /// Creates an empty map labelled "true cardinalities".
    pub fn new() -> Self {
        TrueCardinalities { map: HashMap::new(), name: "true cardinalities".to_owned() }
    }

    /// Creates an empty map with a custom label (e.g. when the map carries
    /// another system's injected estimates rather than exact counts).
    pub fn with_name(name: impl Into<String>) -> Self {
        TrueCardinalities { map: HashMap::new(), name: name.into() }
    }

    /// Records the cardinality of one subexpression.
    pub fn insert(&mut self, set: RelSet, cardinality: f64) {
        self.map.insert(set, cardinality);
    }

    /// The recorded cardinality of `set`, if present.
    pub fn get(&self, set: RelSet) -> Option<f64> {
        self.map.get(&set).copied()
    }

    /// Number of recorded subexpressions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no subexpression has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(set, cardinality)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (RelSet, f64)> + '_ {
        self.map.iter().map(|(s, c)| (*s, *c))
    }
}

impl FromIterator<(RelSet, f64)> for TrueCardinalities {
    fn from_iter<T: IntoIterator<Item = (RelSet, f64)>>(iter: T) -> Self {
        let mut t = TrueCardinalities::new();
        for (s, c) in iter {
            t.insert(s, c);
        }
        t
    }
}

impl CardinalityEstimator for TrueCardinalities {
    fn name(&self) -> &str {
        &self.name
    }

    /// Looks up the recorded cardinality; subexpressions that were never
    /// recorded (which cannot happen for connected subexpressions produced by
    /// the extraction pipeline) fall back to 1 row.
    fn estimate(&self, _query: &QuerySpec, set: RelSet) -> f64 {
        self.get(set).unwrap_or(1.0).max(1.0)
    }
}

/// An estimator that answers from an injected per-subexpression map and falls
/// back to another estimator for anything not injected — the reproduction of
/// the paper's cardinality-injection patch.
pub struct InjectedCardinalities<'a> {
    injected: &'a TrueCardinalities,
    fallback: &'a dyn CardinalityEstimator,
    name: String,
}

impl<'a> InjectedCardinalities<'a> {
    /// Creates an injection overlay.
    pub fn new(injected: &'a TrueCardinalities, fallback: &'a dyn CardinalityEstimator) -> Self {
        let name = format!("{} injected into {}", injected.name, fallback.name());
        InjectedCardinalities { injected, fallback, name }
    }
}

impl CardinalityEstimator for InjectedCardinalities<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        match self.injected.get(set) {
            Some(card) => card.max(1.0),
            None => self.fallback.estimate(query, set),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::BaseRelation;
    use qob_storage::TableId;

    struct ConstEstimator(f64);

    impl CardinalityEstimator for ConstEstimator {
        fn name(&self) -> &str {
            "const"
        }
        fn estimate(&self, _q: &QuerySpec, _s: RelSet) -> f64 {
            self.0
        }
    }

    fn dummy_query() -> QuerySpec {
        QuerySpec::new(
            "q",
            vec![
                BaseRelation::unfiltered(TableId(0), "a"),
                BaseRelation::unfiltered(TableId(1), "b"),
            ],
            vec![],
        )
    }

    #[test]
    fn true_cardinalities_roundtrip() {
        let mut t = TrueCardinalities::new();
        assert!(t.is_empty());
        t.insert(RelSet::single(0), 100.0);
        t.insert(RelSet::from_iter([0, 1]), 42.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(RelSet::single(0)), Some(100.0));
        assert_eq!(t.get(RelSet::single(1)), None);
        let q = dummy_query();
        assert_eq!(t.estimate(&q, RelSet::from_iter([0, 1])), 42.0);
        assert_eq!(t.estimate(&q, RelSet::single(1)), 1.0, "missing sets fall back to 1");
        assert_eq!(t.name(), "true cardinalities");
        let collected: TrueCardinalities = t.iter().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn zero_cardinality_is_clamped_to_one() {
        let mut t = TrueCardinalities::new();
        t.insert(RelSet::single(0), 0.0);
        assert_eq!(t.estimate(&dummy_query(), RelSet::single(0)), 1.0);
        assert_eq!(t.get(RelSet::single(0)), Some(0.0), "raw value is preserved");
    }

    #[test]
    fn injection_overlays_fallback() {
        let mut injected = TrueCardinalities::with_name("DBMS X estimates");
        injected.insert(RelSet::single(0), 7.0);
        let fallback = ConstEstimator(99.0);
        let inj = InjectedCardinalities::new(&injected, &fallback);
        let q = dummy_query();
        assert_eq!(inj.estimate(&q, RelSet::single(0)), 7.0);
        assert_eq!(inj.estimate(&q, RelSet::single(1)), 99.0);
        assert!(inj.name().contains("DBMS X"));
        assert!(inj.name().contains("const"));
    }
}
