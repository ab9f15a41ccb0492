//! The paper's simple main-memory cost function `C_mm` (Section 5.4).

use qob_plan::JoinAlgorithm;

use crate::model::{CostContext, CostModel, SubPlanInfo};

/// The paper's `C_mm` cost function: it models no I/O at all and only counts
/// the tuples passing through each operator,
///
/// ```text
/// C_mm(R or σ(R))          = τ · |R|
/// C_mm(T1 ⋈HJ T2)          = |T1 ⋈ T2| + C_mm(T1) + C_mm(T2)
/// C_mm(T1 ⋈INL (σ(R)|R))   = C_mm(T1) + λ · |T1| · max(|T1 ⋈ R| / |T1|, 1)
/// ```
///
/// with `τ = 0.2` (a scan is cheaper per tuple than a join) and `λ = 2` (an
/// index lookup costs about twice a hash probe).  The methods below return
/// only the per-operator term; the planner adds the children's costs
/// (`qob_enumerate::Planner::cost_of`).
///
/// **Deviation from the paper.**  The planner adds both inputs' costs under
/// every join algorithm, so an index-nested-loop join is charged
/// `C_mm(T1) + τ · |R| + λ · …`: the inner relation's full scan as well as
/// its lookups, where the formula above charges only the lookups.  The
/// lookup term is never below a hash join's `|T1 ⋈ R|`, so an index join
/// never wins under `C_mm` here (0 of the 874 JOB joins).  Pricing the
/// inner side by its lookups alone is ROADMAP item 4; this model does not
/// do it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleCostModel {
    /// Scan discount factor τ.
    pub tau: f64,
    /// Index lookup penalty λ.
    pub lambda: f64,
}

impl Default for SimpleCostModel {
    fn default() -> Self {
        SimpleCostModel { tau: 0.2, lambda: 2.0 }
    }
}

impl SimpleCostModel {
    /// The parameterisation used in the paper (τ = 0.2, λ = 2).
    pub fn new() -> Self {
        Self::default()
    }
}

impl CostModel for SimpleCostModel {
    fn name(&self) -> &str {
        "simple cost model"
    }

    fn scan_cost(&self, ctx: &CostContext<'_>, rel: usize, _output_rows: f64) -> f64 {
        // τ · |R| over the *base* relation: the scan reads the whole table
        // regardless of how selective its predicates are.
        self.tau * ctx.base_table_rows(rel)
    }

    fn join_cost(
        &self,
        ctx: &CostContext<'_>,
        algorithm: JoinAlgorithm,
        left: &SubPlanInfo,
        right: &SubPlanInfo,
        output_rows: f64,
    ) -> f64 {
        match algorithm {
            JoinAlgorithm::Hash | JoinAlgorithm::SortMerge => {
                // |T1 ⋈ T2|; the scan/child terms are added by the driver.
                // (The paper's C_mm does not distinguish SMJ; treat it like a
                // hash join so it is never artificially preferred.)
                output_rows
            }
            JoinAlgorithm::IndexNestedLoop => {
                // λ · |T1| · max(|T1 ⋈ R| / |T1|, 1).  When the inner side is
                // a filtered base relation the lookups still hit the full
                // index, which is why the formula uses the unfiltered join
                // size; we approximate it by scaling the output rows back up
                // by the inner selectivity.
                let outer = left.rows.max(1.0);
                let inner_selectivity = match right.base_rel {
                    Some(rel) => {
                        let base = ctx.base_table_rows(rel).max(1.0);
                        (right.rows / base).clamp(1e-9, 1.0)
                    }
                    None => 1.0,
                };
                let unfiltered_matches = output_rows / inner_selectivity;
                self.lambda * outer * (unfiltered_matches / outer).max(1.0)
            }
            JoinAlgorithm::NestedLoop => {
                // Not part of C_mm (the paper disables plain NL joins); rate
                // it by its quadratic work so it is never attractive.
                left.rows * right.rows
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::{BaseRelation, QuerySpec, RelSet};
    use qob_storage::{ColumnId, ColumnMeta, DataType, Database, TableBuilder, Value};

    fn fixture() -> (Database, QuerySpec) {
        let mut db = Database::new();
        for (name, rows) in [("r", 1000usize), ("s", 100)] {
            let mut t = TableBuilder::new(
                name,
                vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("x", DataType::Int)],
            );
            for i in 0..rows {
                t.push_row(vec![Value::Int(i as i64), Value::Int((i % 5) as i64)]).unwrap();
            }
            db.add_table(t.finish()).unwrap();
        }
        let q = QuerySpec::new(
            "q",
            vec![
                BaseRelation::unfiltered(db.table_id("r").unwrap(), "r"),
                BaseRelation::unfiltered(db.table_id("s").unwrap(), "s"),
            ],
            vec![qob_plan::JoinEdge {
                left: 0,
                left_column: ColumnId(0),
                right: 1,
                right_column: ColumnId(1),
            }],
        );
        (db, q)
    }

    #[test]
    fn scan_cost_is_tau_times_table_rows() {
        let (db, q) = fixture();
        let ctx = CostContext::new(&db, &q);
        let m = SimpleCostModel::new();
        assert!((m.scan_cost(&ctx, 0, 123.0) - 200.0).abs() < 1e-9, "0.2 × 1000");
        assert!((m.scan_cost(&ctx, 1, 1.0) - 20.0).abs() < 1e-9, "0.2 × 100");
        assert_eq!(m.name(), "simple cost model");
    }

    #[test]
    fn inl_cost_follows_lambda_formula() {
        let (db, q) = fixture();
        let ctx = CostContext::new(&db, &q);
        let m = SimpleCostModel::new();
        let outer = SubPlanInfo { rows: 50.0, rels: RelSet::single(0), base_rel: Some(0) };
        let inner = SubPlanInfo { rows: 100.0, rels: RelSet::single(1), base_rel: Some(1) };
        // output 200 rows, unfiltered inner => λ·|T1|·max(200/50, 1) = 2·50·4 = 400.
        let c = m.join_cost(&ctx, qob_plan::JoinAlgorithm::IndexNestedLoop, &outer, &inner, 200.0);
        assert!((c - 400.0).abs() < 1e-9, "got {c}");
        // Fewer matches than outer rows: the max(·, 1) floor applies => 2·50·1 = 100.
        let c = m.join_cost(&ctx, qob_plan::JoinAlgorithm::IndexNestedLoop, &outer, &inner, 10.0);
        assert!((c - 100.0).abs() < 1e-9, "got {c}");
    }

    #[test]
    fn filtered_inner_scales_lookup_cost_up() {
        let (db, q) = fixture();
        let ctx = CostContext::new(&db, &q);
        let m = SimpleCostModel::new();
        let outer = SubPlanInfo { rows: 50.0, rels: RelSet::single(0), base_rel: Some(0) };
        // Inner relation is filtered to 10 of its 100 rows: selectivity 0.1, so the
        // index still yields ~10× more lookups than surviving tuples.
        let inner = SubPlanInfo { rows: 10.0, rels: RelSet::single(1), base_rel: Some(1) };
        let filtered =
            m.join_cost(&ctx, qob_plan::JoinAlgorithm::IndexNestedLoop, &outer, &inner, 20.0);
        let unfiltered_inner =
            SubPlanInfo { rows: 100.0, rels: RelSet::single(1), base_rel: Some(1) };
        let unfiltered = m.join_cost(
            &ctx,
            qob_plan::JoinAlgorithm::IndexNestedLoop,
            &outer,
            &unfiltered_inner,
            20.0,
        );
        assert!(filtered > unfiltered, "the selection does not make index lookups cheaper");
    }

    #[test]
    fn nested_loop_is_prohibitively_expensive() {
        let (db, q) = fixture();
        let ctx = CostContext::new(&db, &q);
        let m = SimpleCostModel::new();
        let l = SubPlanInfo { rows: 1000.0, rels: RelSet::single(0), base_rel: Some(0) };
        let r = SubPlanInfo { rows: 100.0, rels: RelSet::single(1), base_rel: Some(1) };
        let nl = m.join_cost(&ctx, qob_plan::JoinAlgorithm::NestedLoop, &l, &r, 400.0);
        let hj = m.join_cost(&ctx, qob_plan::JoinAlgorithm::Hash, &l, &r, 400.0);
        assert!(nl > hj * 100.0);
    }
}
