//! Exact cardinalities of every connected subexpression of a query.
//!
//! The paper obtains the true cardinality of every intermediate result by
//! running `SELECT COUNT(*)` queries (Section 2.4).  This module does the
//! same by executing the subexpressions bottom-up with hash joins, reusing
//! each intermediate to build the next larger ones.

use std::collections::HashMap;
use std::sync::Arc;

use qob_plan::{QuerySpec, RelSet};
use qob_storage::Database;

use crate::executor::{default_threads, ExecutionError, ExecutionOptions};
use crate::intermediate::Intermediate;
use crate::operators::{scan, ExecGuard};
use crate::pipeline::hash_join;
use crate::scheduler::WorkerPool;

/// Options for ground-truth extraction.
#[derive(Debug, Clone)]
pub struct TrueCardinalityOptions {
    /// Maximum number of row-id slots any intermediate may occupy before the
    /// subexpression (and its supersets reachable only through it) is
    /// skipped.  Ground truth for skipped sets is simply absent.
    pub max_intermediate_slots: usize,
    /// Wall-clock budget for the whole extraction.
    pub timeout: Option<std::time::Duration>,
    /// Worker threads used *within* one query's extraction (parallel hash
    /// builds and probes over each subexpression join).
    pub threads: usize,
}

impl Default for TrueCardinalityOptions {
    fn default() -> Self {
        TrueCardinalityOptions {
            max_intermediate_slots: 400_000_000,
            timeout: Some(std::time::Duration::from_secs(120)),
            threads: default_threads(),
        }
    }
}

/// Computes the exact cardinality of every connected subexpression of
/// `query`, returning a map keyed by [`RelSet`].
///
/// Subexpressions whose intermediates exceed the memory guard are omitted
/// from the result (the caller can treat them as "unknown", exactly like a
/// timed-out `COUNT(*)` in the paper's pipeline).
pub fn true_cardinalities(
    db: &Database,
    query: &QuerySpec,
    options: &TrueCardinalityOptions,
) -> Result<HashMap<RelSet, u64>, ExecutionError> {
    let threads = options.threads.max(1);
    let exec_options = ExecutionOptions {
        enable_rehash: true,
        timeout: options.timeout,
        max_intermediate_slots: options.max_intermediate_slots,
        threads,
        // One pool for every join of the extraction, not one per join.
        pool: Some(Arc::new(WorkerPool::new(threads - 1))),
        ..ExecutionOptions::default()
    };
    let guard = ExecGuard::new(&exec_options);
    let subexpressions = query.connected_subexpressions();
    let mut cardinalities: HashMap<RelSet, u64> = HashMap::new();
    // Memoised intermediates; entries are dropped once nothing larger can use
    // them (we keep everything — at reproduction scale this stays small — but
    // skip storing intermediates that exceeded the slot budget).
    let mut intermediates: HashMap<RelSet, Intermediate> = HashMap::new();

    for &set in &subexpressions {
        guard.check_deadline()?;
        if set.len() == 1 {
            let rel = set.min_rel().expect("singleton");
            let result = scan(db, query, rel);
            cardinalities.insert(set, result.len() as u64);
            intermediates.insert(set, result);
            continue;
        }
        // Find a relation whose removal keeps the rest connected and already
        // materialised, then join it back in with a hash join.
        let adjacency = query.adjacency();
        let mut built = false;
        for rel in set.iter() {
            let rest = set.minus(RelSet::single(rel));
            let base = RelSet::single(rel);
            if !query.is_connected(rest, &adjacency) {
                continue;
            }
            let (Some(rest_inter), Some(base_inter)) =
                (intermediates.get(&rest), intermediates.get(&base))
            else {
                continue;
            };
            let edges = query.edges_between(rest, base);
            if edges.is_empty() {
                continue;
            }
            let keys: Vec<qob_plan::JoinKey> = edges
                .iter()
                .map(|e| {
                    // Orient each edge so the left side lives in `rest`.
                    if rest.contains(e.left) {
                        qob_plan::JoinKey {
                            left_rel: e.left,
                            left_column: e.left_column,
                            right_rel: e.right,
                            right_column: e.right_column,
                        }
                    } else {
                        qob_plan::JoinKey {
                            left_rel: e.right,
                            left_column: e.right_column,
                            right_rel: e.left,
                            right_column: e.left_column,
                        }
                    }
                })
                .collect();
            let estimate = rest_inter.len() as f64;
            match hash_join(
                db,
                query,
                rest_inter,
                base_inter,
                &keys,
                estimate,
                &exec_options,
                &guard,
            ) {
                Ok(result) => {
                    cardinalities.insert(set, result.len() as u64);
                    intermediates.insert(set, result);
                    built = true;
                    break;
                }
                Err(ExecutionError::IntermediateTooLarge { .. }) => {
                    // Try a different decomposition; if none works the set is skipped.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        let _ = built;
    }
    Ok(cardinalities)
}

/// Computes ground truth for many queries at once, spreading whole queries
/// across `workers` participants of a pool made for the batch — the natural
/// parallelisation of the paper's `SELECT COUNT(*)` harvest, where
/// per-query extraction cost dominates.
///
/// Results come back in input order; each query carries its own
/// success-or-failure so one timed-out query cannot poison the batch.
/// `options.threads` additionally parallelises *within* a query; with many
/// queries per worker it is usually best left at 1 here.
pub fn true_cardinalities_batch(
    db: &Database,
    queries: &[&QuerySpec],
    options: &TrueCardinalityOptions,
    workers: usize,
) -> Vec<Result<HashMap<RelSet, u64>, ExecutionError>> {
    type QueryTruth = Result<HashMap<RelSet, u64>, ExecutionError>;
    let workers = workers.min(queries.len()).max(1);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<parking_lot::Mutex<Option<QueryTruth>>> =
        queries.iter().map(|_| parking_lot::Mutex::new(None)).collect();
    let panicked = WorkerPool::new(workers - 1).run_tasks(workers, &|_slot| loop {
        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(query) = queries.get(i) else { break };
        *results[i].lock() = Some(true_cardinalities(db, query, options));
    });
    assert!(!panicked, "ground-truth extraction panicked");
    results.into_iter().map(|slot| slot.into_inner().expect("every query processed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::{BaseRelation, JoinEdge};
    use qob_storage::{CmpOp, ColumnId, ColumnMeta, DataType, Predicate, TableBuilder, Value};

    /// a(id), b(id, a_id), c(id, b_id): a 1:2 fan-out at each level.
    fn chain_db() -> (Database, QuerySpec) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("a", vec![ColumnMeta::new("id", DataType::Int)]);
        for i in 0..10i64 {
            a.push_row(vec![Value::Int(i + 1)]).unwrap();
        }
        let a_id = db.add_table(a.finish()).unwrap();

        let mut b = TableBuilder::new(
            "b",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("a_id", DataType::Int)],
        );
        let mut id = 1i64;
        for i in 0..10i64 {
            for _ in 0..2 {
                b.push_row(vec![Value::Int(id), Value::Int(i + 1)]).unwrap();
                id += 1;
            }
        }
        let b_id = db.add_table(b.finish()).unwrap();

        let mut c = TableBuilder::new(
            "c",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("b_id", DataType::Int)],
        );
        let mut id = 1i64;
        for i in 0..20i64 {
            for _ in 0..2 {
                c.push_row(vec![Value::Int(id), Value::Int(i + 1)]).unwrap();
                id += 1;
            }
        }
        let c_id = db.add_table(c.finish()).unwrap();

        for t in [a_id, b_id, c_id] {
            db.declare_primary_key(t, "id").unwrap();
        }
        let q = QuerySpec::new(
            "chain",
            vec![
                BaseRelation::unfiltered(a_id, "a"),
                BaseRelation::unfiltered(b_id, "b"),
                BaseRelation::unfiltered(c_id, "c"),
            ],
            vec![
                JoinEdge { left: 0, left_column: ColumnId(0), right: 1, right_column: ColumnId(1) },
                JoinEdge { left: 1, left_column: ColumnId(0), right: 2, right_column: ColumnId(1) },
            ],
        );
        (db, q)
    }

    #[test]
    fn chain_cardinalities_are_exact() {
        let (db, q) = chain_db();
        let cards = true_cardinalities(&db, &q, &TrueCardinalityOptions::default()).unwrap();
        // {a}=10, {b}=20, {c}=40, {a,b}=20, {b,c}=40, {a,b,c}=40; {a,c} is not connected.
        assert_eq!(cards.len(), 6);
        assert_eq!(cards[&RelSet::single(0)], 10);
        assert_eq!(cards[&RelSet::single(1)], 20);
        assert_eq!(cards[&RelSet::single(2)], 40);
        assert_eq!(cards[&RelSet::from_iter([0, 1])], 20);
        assert_eq!(cards[&RelSet::from_iter([1, 2])], 40);
        assert_eq!(cards[&RelSet::from_iter([0, 1, 2])], 40);
        assert!(!cards.contains_key(&RelSet::from_iter([0, 2])));
    }

    #[test]
    fn selections_reduce_subexpression_counts() {
        let (db, mut q) = chain_db();
        // Keep only a.id <= 5.
        q.relations[0].predicates =
            vec![Predicate::IntCmp { column: ColumnId(0), op: CmpOp::Le, value: 5 }];
        let cards = true_cardinalities(&db, &q, &TrueCardinalityOptions::default()).unwrap();
        assert_eq!(cards[&RelSet::single(0)], 5);
        assert_eq!(cards[&RelSet::from_iter([0, 1])], 10);
        assert_eq!(cards[&RelSet::from_iter([0, 1, 2])], 20);
    }

    #[test]
    fn oversized_subexpressions_are_skipped_not_fatal() {
        let (db, q) = chain_db();
        let opts = TrueCardinalityOptions { max_intermediate_slots: 25, ..Default::default() };
        let cards = true_cardinalities(&db, &q, &opts).unwrap();
        // Singletons still present (scans are never skipped by the join guard),
        // but the largest joins are missing.
        assert!(cards.contains_key(&RelSet::single(0)));
        assert!(!cards.contains_key(&RelSet::from_iter([0, 1, 2])));
    }

    #[test]
    fn parallel_and_batch_extraction_agree_with_sequential() {
        let (db, q) = chain_db();
        let seq = TrueCardinalityOptions { threads: 1, ..Default::default() };
        let par = TrueCardinalityOptions { threads: 4, ..Default::default() };
        let a = true_cardinalities(&db, &q, &seq).unwrap();
        let b = true_cardinalities(&db, &q, &par).unwrap();
        assert_eq!(a, b);
        let refs: Vec<&QuerySpec> = vec![&q; 5];
        for result in true_cardinalities_batch(&db, &refs, &seq, 3) {
            assert_eq!(result.unwrap(), a);
        }
        // Per-query failures stay per-query in a batch.
        let strict = TrueCardinalityOptions {
            timeout: Some(std::time::Duration::from_nanos(1)),
            ..Default::default()
        };
        for result in true_cardinalities_batch(&db, &refs, &strict, 2) {
            assert!(matches!(result, Err(ExecutionError::Timeout { .. })));
        }
    }

    #[test]
    fn timeout_is_reported() {
        let (db, q) = chain_db();
        let opts = TrueCardinalityOptions {
            timeout: Some(std::time::Duration::from_nanos(1)),
            ..Default::default()
        };
        let err = true_cardinalities(&db, &q, &opts).unwrap_err();
        assert!(matches!(err, ExecutionError::Timeout { .. }));
    }
}
