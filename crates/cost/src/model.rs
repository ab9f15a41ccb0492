//! The cost-model trait: the price of one operator.

use qob_plan::{JoinAlgorithm, QuerySpec, RelSet};
use qob_storage::Database;

/// Summary of a subplan handed to [`CostModel::join_cost`].
#[derive(Debug, Clone, Copy)]
pub struct SubPlanInfo {
    /// Estimated output rows of the subplan.
    pub rows: f64,
    /// Relations covered by the subplan.
    pub rels: RelSet,
    /// If the subplan is a single base-relation scan, that relation's index.
    pub base_rel: Option<usize>,
}

/// Read-only context for cost computations.
#[derive(Clone, Copy)]
pub struct CostContext<'a> {
    /// The catalog (table sizes, row widths, available indexes).
    pub db: &'a Database,
    /// The query being costed.
    pub query: &'a QuerySpec,
}

impl<'a> CostContext<'a> {
    /// Creates a cost context.
    pub fn new(db: &'a Database, query: &'a QuerySpec) -> Self {
        CostContext { db, query }
    }

    /// Unfiltered row count of the base table behind relation `rel`.
    pub fn base_table_rows(&self, rel: usize) -> f64 {
        self.db.table(self.query.relations[rel].table).row_count() as f64
    }

    /// Average row width in bytes of the base table behind relation `rel`.
    pub fn base_table_width(&self, rel: usize) -> f64 {
        self.db.table(self.query.relations[rel].table).avg_row_width()
    }

    /// Number of selection predicates on relation `rel`.
    pub fn predicate_count(&self, rel: usize) -> usize {
        self.query.relations[rel].predicates.len()
    }
}

/// A cost model: prices one scan or one join, never a whole plan.  How
/// operator prices add up to a plan's cost is the planner's rule
/// (`qob_enumerate::Planner::cost_of`), shared by every enumerator.
pub trait CostModel {
    /// Display name, e.g. `"PostgreSQL cost model"`.
    fn name(&self) -> &str;

    /// Cost of scanning base relation `rel` and applying its predicates,
    /// producing `output_rows` rows.
    fn scan_cost(&self, ctx: &CostContext<'_>, rel: usize, output_rows: f64) -> f64;

    /// Cost of one join operator (excluding the cost of its inputs).
    fn join_cost(
        &self,
        ctx: &CostContext<'_>,
        algorithm: JoinAlgorithm,
        left: &SubPlanInfo,
        right: &SubPlanInfo,
        output_rows: f64,
    ) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::BaseRelation;
    use qob_storage::{ColumnMeta, DataType, TableBuilder, Value};

    #[test]
    fn context_helpers() {
        let mut db = Database::new();
        let mut t = TableBuilder::new(
            "a",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("x", DataType::Int)],
        );
        for i in 0..10i64 {
            t.push_row(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        db.add_table(t.finish()).unwrap();
        let q = QuerySpec::new(
            "q",
            vec![BaseRelation::unfiltered(db.table_id("a").unwrap(), "a")],
            vec![],
        );
        let ctx = CostContext::new(&db, &q);
        assert_eq!(ctx.base_table_rows(0), 10.0);
        assert!(ctx.base_table_width(0) >= 16.0);
        assert_eq!(ctx.predicate_count(0), 0);
    }
}
