//! Shared planner state: configuration, per-subplan bookkeeping and physical
//! join selection.

use std::cell::RefCell;
use std::fmt;

use qob_cardest::CardinalityEstimator;
use qob_cost::{CostContext, CostModel, SubPlanInfo};
use qob_plan::{JoinAlgorithm, JoinKey, PhysicalPlan, QuerySpec, RelSet, RelSetMap};
use qob_storage::Database;

/// Which join-tree shapes the enumerator may produce (Section 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShapeRestriction {
    /// All shapes including bushy trees.
    #[default]
    Bushy,
    /// Every join's probe (right) input is a base relation.
    LeftDeep,
    /// Every join's build (left) input is a base relation.
    RightDeep,
    /// Every join has at least one base-relation input.
    ZigZag,
}

impl ShapeRestriction {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            ShapeRestriction::Bushy => "bushy",
            ShapeRestriction::LeftDeep => "left-deep",
            ShapeRestriction::RightDeep => "right-deep",
            ShapeRestriction::ZigZag => "zig-zag",
        }
    }
}

/// Planner configuration: available join algorithms and shape restriction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Allow plain (non-indexed) nested-loop joins.  The paper disables them
    /// after Section 4.1; they default to off here as well.
    pub allow_nested_loop: bool,
    /// Allow sort-merge joins.
    pub allow_sort_merge: bool,
    /// Allow index-nested-loop joins (only usable where the catalog actually
    /// has an index on the inner join column).
    pub allow_index_nested_loop: bool,
    /// Tree-shape restriction.
    pub shape: ShapeRestriction,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            allow_nested_loop: false,
            allow_sort_merge: true,
            allow_index_nested_loop: true,
            shape: ShapeRestriction::Bushy,
        }
    }
}

/// Errors produced by the enumerators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumerationError {
    /// The join graph is disconnected (cross products are never enumerated).
    DisconnectedQuery,
    /// The query has no relations.
    EmptyQuery,
    /// Fixed plan prefixes passed to re-planning overlap each other.
    OverlappingPrefixes,
}

impl fmt::Display for EnumerationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumerationError::DisconnectedQuery => {
                write!(f, "join graph is disconnected; cross products are not enumerated")
            }
            EnumerationError::EmptyQuery => write!(f, "query has no relations"),
            EnumerationError::OverlappingPrefixes => {
                write!(f, "fixed plan prefixes overlap; each relation may appear in one prefix")
            }
        }
    }
}

impl std::error::Error for EnumerationError {}

/// A fully costed plan.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The operator tree.
    pub plan: PhysicalPlan,
    /// Its total cost under the planner's cost model and cardinality source.
    pub cost: f64,
}

/// One priced subplan without its operator tree: what the dynamic-programming
/// tables store per relation set.  A whole table of these is enough to
/// rebuild the winning [`PhysicalPlan`] top-down (see
/// [`crate::dpccp`]), so no plan is ever built for a candidate that loses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// The relations covered.
    pub set: RelSet,
    /// Cumulative cost of the best subplan found so far.
    pub cost: f64,
    /// Estimated output rows (from the planner's cardinality source, or the
    /// observed rows of a fixed prefix).
    pub rows: f64,
    /// The winning join as `(build side, probe side, algorithm)`; `None` for
    /// an atomic input (a base-relation scan or a fixed prefix).
    pub join: Option<(RelSet, RelSet, JoinAlgorithm)>,
}

impl Entry {
    /// How the cost models see this entry as a join input.
    fn info(&self) -> SubPlanInfo {
        SubPlanInfo {
            rows: self.rows,
            rels: self.set,
            base_rel: if self.set.len() == 1 { self.set.min_rel() } else { None },
        }
    }
}

/// What a subtree costs: its two inputs and the join on top, added in this
/// order.  The one place costs are added — [`Planner::join`],
/// [`Planner::cost_of`] and [`crate::space`]'s cross sums all call it, so
/// the plan an enumerator picks, the same tree re-costed, and the plan space
/// it is ranked in agree to the bit.
pub(crate) fn compose(left: f64, right: f64, join: f64) -> f64 {
    left + right + join
}

/// The per-set memo of the dynamic programs.
pub type PlanTable = RelSetMap<Entry>;

/// A subplan that carries its operator tree — the forest/component element
/// of the heuristics ([`crate::goo`], [`crate::quickpick`]), which build one
/// tree per run instead of a table.
#[derive(Debug, Clone)]
pub struct Sub {
    /// Set, cost and rows.
    pub entry: Entry,
    /// The operator tree.
    pub plan: PhysicalPlan,
}

/// The shared planner: query, catalog, cost model, cardinality source and
/// configuration.  One planner serves one statement and remembers every
/// estimate it has fetched, so all consumers of those estimates borrow it.
pub struct Planner<'a> {
    /// Catalog.
    pub db: &'a Database,
    /// Query being optimized.
    pub query: &'a QuerySpec,
    /// Cost model.
    pub cost_model: &'a dyn CostModel,
    /// Cardinality source (estimates or injected/true cardinalities).  Only
    /// [`Planner::rows`] asks it, through the binding made in
    /// [`Planner::new`].
    pub cards: &'a dyn CardinalityEstimator,
    /// Configuration.
    pub config: PlannerConfig,
    /// `cards` bound to `query` ([`CardinalityEstimator::bind`]).
    estimate: Box<dyn Fn(RelSet) -> f64 + 'a>,
    /// Estimates fetched so far, clamped to at least one row.
    estimates: RefCell<RelSetMap<f64>>,
    /// Per relation, its join edges in `query.joins` order as `(the other
    /// endpoint, whether this endpoint's column is indexed)`: what an
    /// index-nested-loop lookup into the relation could use.
    lookups: Vec<Vec<(usize, bool)>>,
}

impl<'a> Planner<'a> {
    /// Creates a planner.
    pub fn new(
        db: &'a Database,
        query: &'a QuerySpec,
        cost_model: &'a dyn CostModel,
        cards: &'a dyn CardinalityEstimator,
        config: PlannerConfig,
    ) -> Self {
        let mut lookups = vec![Vec::new(); query.rel_count()];
        for e in &query.joins {
            for (inner, column, outer) in
                [(e.left, e.left_column, e.right), (e.right, e.right_column, e.left)]
            {
                if let Some(edges) = lookups.get_mut(inner) {
                    let indexed = db.has_index(query.relations[inner].table, column);
                    edges.push((outer, indexed));
                }
            }
        }
        let estimate = cards.bind(query);
        Planner {
            db,
            query,
            cost_model,
            cards,
            config,
            estimate,
            estimates: RefCell::default(),
            lookups,
        }
    }

    /// Estimated output rows for a relation set (at least 1).  The single
    /// door to the cardinality source: each set is estimated once for the
    /// life of the planner, whichever enumerators ask and however often.
    pub fn rows(&self, set: RelSet) -> f64 {
        if let Some(&rows) = self.estimates.borrow().get(&set) {
            return rows;
        }
        let rows = (self.estimate)(set).max(1.0);
        self.estimates.borrow_mut().insert(set, rows);
        rows
    }

    /// The table entry for scanning one base relation.
    pub fn leaf(&self, rel: usize) -> Entry {
        let set = RelSet::single(rel);
        let rows = self.rows(set);
        let cost = self.cost_model.scan_cost(&CostContext::new(self.db, self.query), rel, rows);
        Entry { set, cost, rows, join: None }
    }

    /// Join keys for joining `left_set` (as the left/build side) with
    /// `right_set`, oriented so that `left_rel` of every key lies in
    /// `left_set`.
    pub fn join_keys(&self, left_set: RelSet, right_set: RelSet) -> Vec<JoinKey> {
        let edges = self.query.joins.iter().filter(|e| e.connects(left_set, right_set));
        edges
            .map(|e| {
                let (left, right) = ((e.left, e.left_column), (e.right, e.right_column));
                let (left, right) =
                    if left_set.contains(e.left) { (left, right) } else { (right, left) };
                JoinKey {
                    left_rel: left.0,
                    left_column: left.1,
                    right_rel: right.0,
                    right_column: right.1,
                }
            })
            .collect()
    }

    /// True if an index-nested-loop join can probe base relation `inner`
    /// from `outer`: the first join edge between the two (in `query.joins`
    /// order — the first join key) drives the lookup, so its inner column
    /// must be indexed.
    fn index_lookup_available(&self, outer: RelSet, inner: usize) -> bool {
        let edge = self.lookups[inner].iter().find(|(other, _)| outer.contains(*other));
        edge.is_some_and(|&(_, indexed)| indexed)
    }

    /// The join of `left` (build/outer side) with `right` (probe/inner side)
    /// in this fixed orientation, under the cheapest allowed algorithm;
    /// `rows` is the estimate for the union.  The two sides must be disjoint
    /// and share a join edge (every csg-cmp pair does).
    ///
    /// The enumerators price every join here, and [`Planner::cost_of`]
    /// prices a fixed tree's joins the same way.  Every cost model prices a
    /// join from the row counts and base-relation status of its inputs,
    /// never from their internal shape, so entries need no operator tree and
    /// [`crate::space`] can cost whole families of trees without building
    /// one.  Algorithms are tried Hash, SortMerge, NestedLoop,
    /// IndexNestedLoop and an earlier one wins ties.
    pub fn join(&self, left: &Entry, right: &Entry, rows: f64) -> Entry {
        let ctx = CostContext::new(self.db, self.query);
        let (left_info, right_info) = (left.info(), right.info());
        let price = |alg| self.cost_model.join_cost(&ctx, alg, &left_info, &right_info, rows);
        let mut best = (JoinAlgorithm::Hash, price(JoinAlgorithm::Hash));
        let mut consider = |alg: JoinAlgorithm| {
            let join_cost = price(alg);
            if join_cost < best.1 {
                best = (alg, join_cost);
            }
        };
        if self.config.allow_sort_merge {
            consider(JoinAlgorithm::SortMerge);
        }
        if self.config.allow_nested_loop {
            consider(JoinAlgorithm::NestedLoop);
        }
        if self.config.allow_index_nested_loop
            && right_info.base_rel.is_some_and(|inner| self.index_lookup_available(left.set, inner))
        {
            consider(JoinAlgorithm::IndexNestedLoop);
        }
        Entry {
            set: left.set.union(right.set),
            cost: compose(left.cost, right.cost, best.1),
            rows,
            join: Some((left.set, right.set, best.0)),
        }
    }

    /// The total cost of a fixed operator tree: every scan priced as
    /// [`Planner::leaf`], every join under the tree's own algorithm from
    /// [`Planner::rows`], added up by `compose` — the rule the
    /// enumerators build their trees under.  Re-costing a plan chosen from
    /// estimates under a planner over true cardinalities is the paper's
    /// measure of plan quality, and a plan an enumerator of this planner
    /// built re-costs to its own cost, to the bit.
    pub fn cost_of(&self, plan: &PhysicalPlan) -> f64 {
        self.entry_of(plan).cost
    }

    /// [`Planner::cost_of`] as the entry the tree's root would have.
    fn entry_of(&self, plan: &PhysicalPlan) -> Entry {
        match plan {
            PhysicalPlan::Scan { rel } => self.leaf(*rel),
            PhysicalPlan::Join { algorithm, left, right, .. } => {
                let (left, right) = (self.entry_of(left), self.entry_of(right));
                let set = left.set.union(right.set);
                let rows = self.rows(set);
                let ctx = CostContext::new(self.db, self.query);
                let join =
                    self.cost_model.join_cost(&ctx, *algorithm, &left.info(), &right.info(), rows);
                Entry {
                    set,
                    cost: compose(left.cost, right.cost, join),
                    rows,
                    join: Some((left.set, right.set, *algorithm)),
                }
            }
        }
    }

    /// The cheaper orientation of joining `a` and `b` ([`Planner::join`]
    /// both ways); `a` as the build side wins ties.
    pub fn cheapest_join(&self, a: &Entry, b: &Entry, rows: f64) -> Entry {
        let (ab, ba) = (self.join(a, b, rows), self.join(b, a, rows));
        if ab.cost <= ba.cost {
            ab
        } else {
            ba
        }
    }

    /// The leaf subplan of the heuristics for one base relation.
    pub fn leaf_sub(&self, rel: usize) -> Sub {
        Sub { entry: self.leaf(rel), plan: PhysicalPlan::scan(rel) }
    }

    /// [`Planner::cheapest_join`] for the heuristics: joins two trees that
    /// share a join edge into one.
    pub fn join_subs(&self, a: Sub, b: Sub) -> Sub {
        let entry =
            self.cheapest_join(&a.entry, &b.entry, self.rows(a.entry.set.union(b.entry.set)));
        let (_, probe, algorithm) = entry.join.expect("a join entry");
        let (left, right) = if probe == b.entry.set { (a, b) } else { (b, a) };
        let keys = self.join_keys(left.entry.set, right.entry.set);
        Sub { entry, plan: PhysicalPlan::join(algorithm, left.plan, right.plan, keys) }
    }

    /// Validates that the query can be optimized at all.
    pub fn check_query(&self) -> Result<(), EnumerationError> {
        if self.query.relations.is_empty() {
            return Err(EnumerationError::EmptyQuery);
        }
        let adjacency = self.query.adjacency();
        if !self.query.is_connected(self.query.all_rels(), &adjacency) {
            return Err(EnumerationError::DisconnectedQuery);
        }
        Ok(())
    }
}

/// As an estimator, the planner answers for its own query from its memo.
impl CardinalityEstimator for Planner<'_> {
    fn name(&self) -> &str {
        self.cards.name()
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        debug_assert!(std::ptr::eq(query, self.query) || *query == *self.query);
        self.rows(set)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A small shared fixture used by the enumerator tests.

    use qob_cardest::TrueCardinalities;
    use qob_plan::{BaseRelation, JoinEdge, QuerySpec, RelSet};
    use qob_storage::{ColumnId, ColumnMeta, DataType, Database, IndexConfig, TableBuilder, Value};

    /// Builds a star-ish query: fact table `f` joined to dimensions `d1..d3`,
    /// plus a chain edge d1–d2 is absent (pure star).  Cardinalities are
    /// hand-crafted so the optimal bushy/left-deep orders are known.
    pub fn star_fixture(index_config: IndexConfig) -> (Database, QuerySpec, TrueCardinalities) {
        let mut db = Database::new();
        let sizes = [("f", 10_000usize), ("d1", 100), ("d2", 1_000), ("d3", 10)];
        for (name, rows) in sizes {
            let mut t = TableBuilder::new(
                name,
                vec![
                    ColumnMeta::new("id", DataType::Int),
                    ColumnMeta::new("d1_id", DataType::Int),
                    ColumnMeta::new("d2_id", DataType::Int),
                    ColumnMeta::new("d3_id", DataType::Int),
                ],
            );
            for i in 0..rows {
                t.push_row(vec![
                    Value::Int(i as i64 + 1),
                    Value::Int((i % 100) as i64 + 1),
                    Value::Int((i % 1000) as i64 + 1),
                    Value::Int((i % 10) as i64 + 1),
                ])
                .unwrap();
            }
            let tid = db.add_table(t.finish()).unwrap();
            db.declare_primary_key(tid, "id").unwrap();
        }
        let f = db.table_id("f").unwrap();
        for (col, dim) in [("d1_id", "d1"), ("d2_id", "d2"), ("d3_id", "d3")] {
            let d = db.table_id(dim).unwrap();
            db.declare_foreign_key(f, col, d).unwrap();
        }
        db.build_indexes(index_config).unwrap();

        let q = QuerySpec::new(
            "star",
            vec![
                BaseRelation::unfiltered(f, "f"),
                BaseRelation::unfiltered(db.table_id("d1").unwrap(), "d1"),
                BaseRelation::unfiltered(db.table_id("d2").unwrap(), "d2"),
                BaseRelation::unfiltered(db.table_id("d3").unwrap(), "d3"),
            ],
            vec![
                JoinEdge { left: 0, left_column: ColumnId(1), right: 1, right_column: ColumnId(0) },
                JoinEdge { left: 0, left_column: ColumnId(2), right: 2, right_column: ColumnId(0) },
                JoinEdge { left: 0, left_column: ColumnId(3), right: 3, right_column: ColumnId(0) },
            ],
        );

        // True cardinalities: each dimension join filters the fact table by a
        // different factor (as if the dimensions carried selections), so join
        // orders genuinely differ in cost.
        let mut cards = TrueCardinalities::new();
        cards.insert(RelSet::single(0), 10_000.0);
        cards.insert(RelSet::single(1), 100.0);
        cards.insert(RelSet::single(2), 1_000.0);
        cards.insert(RelSet::single(3), 10.0);
        for sub in q.connected_subexpressions() {
            if sub.len() >= 2 {
                let mut rows = 10_000.0;
                if sub.contains(1) {
                    rows *= 0.5;
                }
                if sub.contains(2) {
                    rows *= 0.9;
                }
                if sub.contains(3) {
                    rows *= 0.2;
                }
                cards.insert(sub, rows);
            }
        }
        (db, q, cards)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::star_fixture;
    use super::*;
    use qob_cardest::TrueCardinalities;
    use qob_cost::SimpleCostModel;
    use qob_plan::{BaseRelation, JoinEdge};
    use qob_storage::{ColumnId, ColumnMeta, DataType, IndexConfig, TableBuilder, Value};

    #[test]
    fn leaf_and_rows() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let p = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let leaf = p.leaf(0);
        assert_eq!(leaf.set, RelSet::single(0));
        assert_eq!(leaf.rows, 10_000.0);
        assert_eq!(leaf.join, None);
        assert!((leaf.cost - 2_000.0).abs() < 1e-9, "τ·|f| = 0.2·10000");
        assert_eq!(p.rows(RelSet::from_iter([0, 1])), 5_000.0);
        assert!(p.check_query().is_ok());
    }

    /// Counts calls into the wrapped cardinality source.
    struct Counting<'a>(&'a dyn CardinalityEstimator, std::cell::Cell<usize>);

    impl CardinalityEstimator for Counting<'_> {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
            self.1.set(self.1.get() + 1);
            self.0.estimate(query, set)
        }
    }

    #[test]
    fn each_set_is_estimated_once_whichever_enumerators_ask() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let counting = Counting(&cards, std::cell::Cell::new(0));
        let p = Planner::new(&db, &q, &model, &counting, PlannerConfig::default());
        let connected = q.connected_subexpressions().len();
        crate::dpccp::optimize_bushy(&p).unwrap();
        assert_eq!(counting.1.get(), connected, "DPccp: one estimate per connected set");
        for shape in [ShapeRestriction::LeftDeep, ShapeRestriction::ZigZag] {
            crate::restricted::optimize_restricted(&p, shape).unwrap();
        }
        crate::goo::optimize_goo(&p).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        crate::quickpick::quickpick_best(&p, 50, &mut rng).unwrap();
        crate::space::explore(&p, &Default::default(), &mut rng).unwrap();
        for set in q.connected_subexpressions() {
            assert_eq!(p.estimate(&q, set), p.rows(set));
        }
        assert_eq!(counting.1.get(), connected, "the planner's memo answers every later request");
    }

    #[test]
    fn join_keys_are_oriented() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        let model = SimpleCostModel::new();
        let p = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let keys = p.join_keys(RelSet::single(1), RelSet::single(0));
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].left_rel, 1);
        assert_eq!(keys[0].right_rel, 0);
        assert!(p.join_keys(RelSet::single(1), RelSet::single(2)).is_empty());
    }

    #[test]
    fn join_considers_an_indexed_lookup_only_where_one_exists() {
        use qob_plan::JoinAlgorithm::IndexNestedLoop;
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryKeyOnly);
        // A model under which an index lookup always wins when offered.
        struct LookupsAreFree;
        impl CostModel for LookupsAreFree {
            fn name(&self) -> &str {
                "lookups are free"
            }
            fn scan_cost(&self, _: &CostContext<'_>, _: usize, rows: f64) -> f64 {
                rows
            }
            fn join_cost(
                &self,
                _: &CostContext<'_>,
                algorithm: JoinAlgorithm,
                _: &SubPlanInfo,
                _: &SubPlanInfo,
                rows: f64,
            ) -> f64 {
                if algorithm == IndexNestedLoop {
                    0.0
                } else {
                    rows
                }
            }
        }
        let p = Planner::new(&db, &q, &LookupsAreFree, &cards, PlannerConfig::default());
        let (f, d3) = (p.leaf(0), p.leaf(3));
        let rows = p.rows(f.set.union(d3.set));
        // f (outer) → d3 (inner): the edge's inner column is d3's primary key.
        let joined = p.join(&f, &d3, rows);
        assert_eq!(joined.set, RelSet::from_iter([0, 3]));
        assert_eq!(joined.join, Some((f.set, d3.set, IndexNestedLoop)));
        assert_eq!(joined.cost, f.cost + d3.cost);
        // d3 (outer) → f (inner): f.d3_id carries no index under PK-only.
        assert_eq!(p.join(&d3, &f, rows).join, Some((d3.set, f.set, JoinAlgorithm::Hash)));
        // ... so the cheaper orientation probes d3, whichever side comes first.
        assert_eq!(p.cheapest_join(&d3, &f, rows), joined);
        // A composite inner side is never probed by index.
        let fd3 = joined;
        let d1 = p.leaf(1);
        let rows = p.rows(fd3.set.union(d1.set));
        assert_eq!(p.join(&d1, &fd3, rows).join, Some((d1.set, fd3.set, JoinAlgorithm::Hash)));
        // Disallowing INL removes the option.
        let cfg = PlannerConfig { allow_index_nested_loop: false, ..Default::default() };
        let p2 = Planner::new(&db, &q, &LookupsAreFree, &cards, cfg);
        assert_eq!(p2.join(&f, &d3, rows).join, Some((f.set, d3.set, JoinAlgorithm::Hash)));
    }

    #[test]
    fn ties_go_to_the_first_side_as_build_and_to_hash() {
        // C_mm prices Hash and SortMerge alike and ignores orientation.
        let (db, q, cards) = star_fixture(IndexConfig::NoIndexes);
        let model = SimpleCostModel::new();
        let p = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let (f, d3) = (p.leaf(0), p.leaf(3));
        let rows = p.rows(f.set.union(d3.set));
        assert_eq!(p.cheapest_join(&f, &d3, rows).join, Some((f.set, d3.set, JoinAlgorithm::Hash)));
        assert_eq!(p.cheapest_join(&d3, &f, rows).join, Some((d3.set, f.set, JoinAlgorithm::Hash)));
    }

    #[test]
    fn join_subs_builds_the_tree_of_the_cheapest_join() {
        let (db, q, cards) = star_fixture(IndexConfig::NoIndexes);
        let model = SimpleCostModel::new();
        let cfg = PlannerConfig {
            allow_nested_loop: true,
            allow_sort_merge: false,
            allow_index_nested_loop: false,
            shape: ShapeRestriction::Bushy,
        };
        let p = Planner::new(&db, &q, &model, &cards, cfg);
        let joined = p.join_subs(p.leaf_sub(3), p.leaf_sub(0));
        // Hash is cheaper than NL under C_mm, so NL is considered but not chosen.
        assert!(joined.plan.uses_algorithm(JoinAlgorithm::Hash));
        assert!(joined.plan.validate_partial(&q).is_ok());
        assert_eq!(joined.plan.rels(), joined.entry.set);
        let rows = p.rows(joined.entry.set);
        assert_eq!(joined.entry, p.cheapest_join(&p.leaf(3), &p.leaf(0), rows));
    }

    /// Tables `name` of `rows` rows and two integer columns, `id` and `x`,
    /// joined in a chain `t[i-1].id = t[i].x`.
    fn chain(sizes: &[(&str, usize)]) -> (Database, QuerySpec) {
        let mut db = Database::new();
        for &(name, rows) in sizes {
            let columns =
                vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("x", DataType::Int)];
            let mut t = TableBuilder::new(name, columns);
            for i in 0..rows as i64 {
                t.push_row(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
            }
            db.add_table(t.finish()).unwrap();
        }
        let relations = sizes
            .iter()
            .map(|&(name, _)| BaseRelation::unfiltered(db.table_id(name).unwrap(), name))
            .collect();
        let joins = (1..sizes.len())
            .map(|i| JoinEdge {
                left: i - 1,
                left_column: ColumnId(0),
                right: i,
                right_column: ColumnId(1),
            })
            .collect();
        (db, QuerySpec::new("q", relations, joins))
    }

    fn truths(rows: &[(&[usize], f64)]) -> TrueCardinalities {
        let mut cards = TrueCardinalities::new();
        for &(rels, rows) in rows {
            cards.insert(RelSet::from_iter(rels.iter().copied()), rows);
        }
        cards
    }

    fn hash_join(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        let key = JoinKey {
            left_rel: left.rels().max_rel().unwrap(),
            left_column: ColumnId(0),
            right_rel: right.rels().min_rel().unwrap(),
            right_column: ColumnId(1),
        };
        PhysicalPlan::join(JoinAlgorithm::Hash, left, right, vec![key])
    }

    /// Scans cost their output, joins the product of their input rows, so
    /// plan costs are easy to verify by hand.
    struct ToyModel;

    impl CostModel for ToyModel {
        fn name(&self) -> &str {
            "toy"
        }
        fn scan_cost(&self, _: &CostContext<'_>, _: usize, rows: f64) -> f64 {
            rows
        }
        fn join_cost(
            &self,
            _: &CostContext<'_>,
            _: JoinAlgorithm,
            left: &SubPlanInfo,
            right: &SubPlanInfo,
            _: f64,
        ) -> f64 {
            left.rows * right.rows
        }
    }

    fn toy_fixture() -> (Database, QuerySpec, TrueCardinalities) {
        let (db, q) = chain(&[("a", 10), ("b", 10), ("c", 10)]);
        let cards = truths(&[
            (&[0], 10.0),
            (&[1], 20.0),
            (&[2], 30.0),
            (&[0, 1], 5.0),
            (&[1, 2], 50.0),
            (&[0, 1, 2], 8.0),
        ]);
        (db, q, cards)
    }

    #[test]
    fn plan_cost_sums_operators() {
        let (db, q, cards) = toy_fixture();
        let p = Planner::new(&db, &q, &ToyModel, &cards, PlannerConfig::default());
        // ((a ⋈ b) ⋈ c): scans 10+20+30, join1 10*20=200, join2 5*30=150.
        let plan = hash_join(
            hash_join(PhysicalPlan::scan(0), PhysicalPlan::scan(1)),
            PhysicalPlan::scan(2),
        );
        assert_eq!(p.cost_of(&plan), 60.0 + 200.0 + 150.0);
    }

    #[test]
    fn different_join_orders_get_different_costs() {
        let (db, q, cards) = toy_fixture();
        let p = Planner::new(&db, &q, &ToyModel, &cards, PlannerConfig::default());
        let ab_first = hash_join(
            hash_join(PhysicalPlan::scan(0), PhysicalPlan::scan(1)),
            PhysicalPlan::scan(2),
        );
        let bc_first = hash_join(
            PhysicalPlan::scan(0),
            hash_join(PhysicalPlan::scan(1), PhysicalPlan::scan(2)),
        );
        let (c1, c2) = (p.cost_of(&ab_first), p.cost_of(&bc_first));
        assert!(c1 < c2, "joining the selective pair first should be cheaper ({c1} vs {c2})");
    }

    fn cmm_fixture() -> (Database, QuerySpec, TrueCardinalities, PhysicalPlan) {
        let (db, q) = chain(&[("r", 1000), ("s", 100)]);
        let cards = truths(&[(&[0], 1000.0), (&[1], 100.0), (&[0, 1], 400.0)]);
        (db, q, cards, hash_join(PhysicalPlan::scan(0), PhysicalPlan::scan(1)))
    }

    #[test]
    fn full_plan_cost_matches_formula() {
        let (db, q, cards, plan) = cmm_fixture();
        let m = SimpleCostModel::new();
        let p = Planner::new(&db, &q, &m, &cards, PlannerConfig::default());
        // τ·1000 + τ·100 + |T1 ⋈ T2| = 200 + 20 + 400.
        assert_eq!(p.cost_of(&plan), 620.0);
    }

    #[test]
    fn cardinality_source_matters_more_than_parameters() {
        // The same plan costed with misestimated vs true cardinalities moves
        // more than reasonable parameter changes do — the paper's Section 5
        // conclusion in miniature.
        let (db, q, truth, plan) = cmm_fixture();
        let bad = truths(&[(&[0], 1000.0), (&[1], 100.0), (&[0, 1], 40_000.0)]); // 100× overestimate
        let m1 = SimpleCostModel::new();
        let m2 = SimpleCostModel { tau: 0.4, lambda: 3.0 };
        let cost = |model: &dyn CostModel, cards: &TrueCardinalities| {
            Planner::new(&db, &q, model, cards, PlannerConfig::default()).cost_of(&plan)
        };
        let true_m1 = cost(&m1, &truth);
        let param_shift = (cost(&m2, &truth) - true_m1).abs();
        let card_shift = (cost(&m1, &bad) - true_m1).abs();
        assert!(card_shift > param_shift * 10.0);
    }

    #[test]
    fn enumerated_plans_re_cost_to_their_own_cost() {
        let (db, q, cards) = star_fixture(IndexConfig::PrimaryAndForeignKey);
        let model = SimpleCostModel::new();
        let p = Planner::new(&db, &q, &model, &cards, PlannerConfig::default());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for chosen in [
            crate::dpccp::optimize_bushy(&p).unwrap(),
            crate::restricted::optimize_restricted(&p, ShapeRestriction::RightDeep).unwrap(),
            crate::goo::optimize_goo(&p).unwrap(),
            crate::quickpick::quickpick_best(&p, 10, &mut rng).unwrap(),
        ] {
            assert_eq!(
                p.cost_of(&chosen.plan).to_bits(),
                chosen.cost.to_bits(),
                "{:?}",
                chosen.plan
            );
        }
    }

    #[test]
    fn shape_and_error_labels() {
        assert_eq!(ShapeRestriction::Bushy.label(), "bushy");
        assert_eq!(ShapeRestriction::LeftDeep.label(), "left-deep");
        assert_eq!(ShapeRestriction::RightDeep.label(), "right-deep");
        assert_eq!(ShapeRestriction::ZigZag.label(), "zig-zag");
        assert!(!EnumerationError::DisconnectedQuery.to_string().is_empty());
        assert!(!EnumerationError::EmptyQuery.to_string().is_empty());
        assert_eq!(PlannerConfig::default().shape, ShapeRestriction::Bushy);
        assert!(!PlannerConfig::default().allow_nested_loop);
    }
}
