//! The morsel-driven pipeline engine.
//!
//! A [`qob_plan::PhysicalPlan`] is decomposed into **pipelines** at pipeline
//! breakers: a hash join's build side, a sort-merge join's sorts and a
//! nested-loop join's inner side all materialise before the data-dependent
//! side streams.  Everything between two breakers is **fused** into one
//! pipeline: a source (base-table scan or materialised intermediate) followed
//! by a chain of probe operators, so a right-deep chain of hash joins probes
//! every table in a single pass without materialising between joins.
//!
//! Each pipeline is driven by worker threads that pull fixed-size *morsels*
//! of tuples from the source (an atomic cursor), push them through the probe
//! chain, and buffer output per morsel.  The per-morsel buffers concatenate
//! in morsel order, so the result is identical — tuple for tuple — to a
//! sequential run, and `threads: 1` reproduces the historical recursive
//! interpreter's behaviour exactly (same hash-table sizing, same insert and
//! probe order, same guard cadence).
//!
//! Operator output cardinalities are collected through per-operator atomic
//! counters and reported in the same post-order the recursive interpreter
//! used.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use qob_plan::{JoinAlgorithm, JoinKey, PhysicalPlan, QuerySpec, RelSet};
use qob_storage::{ColumnId, Database, RowId, ScanFilter, Table};

use crate::executor::{ExecutionError, ExecutionOptions, OperatorTiming};
use crate::intermediate::{Intermediate, Materialized};
use crate::operators::{
    build_hash_table, merge_join, BuildSide, ColReader, ExecGuard, HashProbeOp, IndexProbeOp,
    NlProbeOp, PipelineOp, ProbeBatch, Ticker,
};
use crate::scheduler::WorkerPool;

/// Where a pipeline's tuples come from.
enum Source<'a> {
    /// A base-table scan with compiled selection predicates; morsels range
    /// over the table's row ids and select from them a page at a time.
    Scan { table: &'a Table, filter: ScanFilter<'a> },
    /// A materialised intermediate (the output of a breaker).
    Mat(Intermediate),
    /// A borrowed materialised intermediate (pair-join entry point).
    MatRef(&'a Intermediate),
}

impl Source<'_> {
    fn tuple_count(&self) -> usize {
        match self {
            Source::Scan { table, .. } => table.row_count(),
            Source::Mat(i) => i.len(),
            Source::MatRef(i) => i.len(),
        }
    }

    fn width(&self) -> usize {
        match self {
            Source::Scan { .. } => 1,
            Source::Mat(i) => i.width(),
            Source::MatRef(i) => i.width(),
        }
    }
}

/// One pipeline: a source and the fused probe chain above it.
struct Pipeline<'a> {
    source: Source<'a>,
    ops: Vec<PipelineOp<'a>>,
    /// Slot layout of the pipeline's output tuples.
    out_rels: Vec<usize>,
}

/// Per-operator atomic accumulators, indexed like the cardinality order:
/// output rows (the historical counters), busy nanoseconds, and morsel
/// invocations.  All three are fed unconditionally on the same code path,
/// so timed and untimed observations describe the identical execution.
pub(crate) struct OpCounters {
    rows: Vec<AtomicU64>,
    nanos: Vec<AtomicU64>,
    morsels: Vec<AtomicU64>,
}

impl OpCounters {
    fn new(len: usize) -> OpCounters {
        OpCounters {
            rows: (0..len).map(|_| AtomicU64::new(0)).collect(),
            nanos: (0..len).map(|_| AtomicU64::new(0)).collect(),
            morsels: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Charges `elapsed` and one invocation to operator `idx`.
    fn charge(&self, idx: usize, elapsed: std::time::Duration) {
        self.nanos[idx]
            .fetch_add(elapsed.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        self.morsels[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// Executes a physical plan and reports (materialised output, operator
/// cardinalities in the interpreter's historical post-order, per-operator
/// timings in the same order).  Subtrees whose relation set is stored in
/// `premat` are served from the store instead of re-executing (their
/// internal joins report 0 — they did not run here).
#[allow(clippy::type_complexity)] // one internal call site; splitting helps nobody
pub(crate) fn run_plan(
    db: &Database,
    query: &QuerySpec,
    plan: &PhysicalPlan,
    hint: &dyn Fn(RelSet) -> f64,
    options: &ExecutionOptions,
    guard: &ExecGuard,
    premat: &Materialized,
) -> Result<(Intermediate, Vec<(RelSet, u64)>, Vec<(RelSet, OperatorTiming)>), ExecutionError> {
    let mut card_order = Vec::new();
    collect_card_order(plan, &mut card_order);
    let card_index: HashMap<RelSet, usize> =
        card_order.iter().enumerate().map(|(i, set)| (*set, i)).collect();
    let counters = OpCounters::new(card_order.len());
    let pool = options.pool_or_private();
    let engine =
        Engine { db, query, options, pool: &pool, guard, hint, card_index, counters, premat };
    let out = engine.exec_node(plan)?;
    let cards = card_order
        .iter()
        .zip(&engine.counters.rows)
        .map(|(set, c)| (*set, c.load(Ordering::Relaxed)))
        .collect();
    let timings = card_order
        .iter()
        .enumerate()
        .map(|(i, set)| {
            (
                *set,
                OperatorTiming {
                    busy_nanos: engine.counters.nanos[i].load(Ordering::Relaxed),
                    morsels: engine.counters.morsels[i].load(Ordering::Relaxed),
                },
            )
        })
        .collect();
    Ok((out, cards, timings))
}

/// The historical cardinality reporting order: joins in post-order,
/// left subtree before right subtree before the join itself.
fn collect_card_order(plan: &PhysicalPlan, out: &mut Vec<RelSet>) {
    if let PhysicalPlan::Join { left, right, .. } = plan {
        collect_card_order(left, out);
        collect_card_order(right, out);
        out.push(plan.rels());
    }
}

struct Engine<'a> {
    db: &'a Database,
    query: &'a QuerySpec,
    options: &'a ExecutionOptions,
    /// The pool every pipeline of the plan runs on.
    pool: &'a WorkerPool,
    guard: &'a ExecGuard,
    hint: &'a dyn Fn(RelSet) -> f64,
    card_index: HashMap<RelSet, usize>,
    counters: OpCounters,
    /// Already-materialised subtree outputs (adaptive resume).
    premat: &'a Materialized,
}

impl<'a> Engine<'a> {
    /// Materialises the full result of `plan` (compiling its top pipeline,
    /// recursively materialising breakers, then driving the pipeline).
    fn exec_node(&self, plan: &'a PhysicalPlan) -> Result<Intermediate, ExecutionError> {
        self.guard.poll()?;
        let pipeline = self.compile(plan)?;
        drive(pipeline, self.options, self.pool, self.guard, &self.counters)
    }

    /// A reader for `rel.column` against tuples with slot layout `layout`.
    fn reader(
        &self,
        layout: &[usize],
        rel: usize,
        column: ColumnId,
    ) -> Result<ColReader<'a>, ExecutionError> {
        let slot = layout.iter().position(|r| *r == rel).ok_or_else(|| {
            ExecutionError::InvalidPlan(format!("relation {rel} not in pipeline layout"))
        })?;
        Ok(ColReader::new(slot, self.db.table(self.query.relations[rel].table).column(column)))
    }

    fn card_of(&self, set: RelSet) -> usize {
        *self.card_index.get(&set).expect("join relset registered at plan walk")
    }

    /// The materialised output of a breaker child: borrowed straight from
    /// the pre-materialised store when an earlier adaptive round already
    /// produced it, executed (and owned) otherwise.
    fn node_input(&self, plan: &'a PhysicalPlan) -> Result<BuildSide<'a>, ExecutionError> {
        match self.premat.get(plan.rels()) {
            Some(done) => Ok(BuildSide::Borrowed(done)),
            None => Ok(BuildSide::Owned(self.exec_node(plan)?)),
        }
    }

    /// Decomposes `plan` into its top pipeline, materialising every breaker
    /// it depends on.  A subtree whose output is already in the
    /// pre-materialised store becomes a borrowed source directly — the
    /// engine never descends into it.
    fn compile(&self, plan: &'a PhysicalPlan) -> Result<Pipeline<'a>, ExecutionError> {
        if let Some(done) = self.premat.get(plan.rels()) {
            return Ok(Pipeline {
                source: Source::MatRef(done),
                ops: Vec::new(),
                out_rels: done.rels().to_vec(),
            });
        }
        match plan {
            PhysicalPlan::Scan { rel } => {
                let relation = &self.query.relations[*rel];
                let table = self.db.table(relation.table);
                Ok(Pipeline {
                    source: Source::Scan {
                        table,
                        filter: ScanFilter::compile(table, &relation.predicates),
                    },
                    ops: Vec::new(),
                    out_rels: vec![*rel],
                })
            }
            PhysicalPlan::Join { algorithm, left, right, keys } => match algorithm {
                JoinAlgorithm::Hash => {
                    let first = *keys.first().ok_or(ExecutionError::CrossProduct)?;
                    // The probe (right) side continues the pipeline; the
                    // build (left) side is a breaker — borrowed straight
                    // from the store when it was already materialised.
                    let mut p = self.compile(right)?;
                    let build = self.node_input(left)?;
                    let estimate = (self.hint)(build.get().rel_set());
                    let build_rels = build.get().rels().to_vec();
                    let build_key = self.reader(&build_rels, first.left_rel, first.left_column)?;
                    // The build is breaker work charged to the join it
                    // feeds, on top of its per-morsel probe time.
                    let build_started = std::time::Instant::now();
                    let table = build_hash_table(
                        build.get(),
                        build_key,
                        estimate,
                        self.options,
                        self.pool,
                        self.guard,
                    )?;
                    self.counters.nanos[self.card_of(plan.rels())].fetch_add(
                        build_started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        Ordering::Relaxed,
                    );
                    let probe = self.reader(&p.out_rels, first.right_rel, first.right_column)?;
                    let rest = keys[1..]
                        .iter()
                        .map(|k| {
                            Ok((
                                self.reader(&build_rels, k.left_rel, k.left_column)?,
                                self.reader(&p.out_rels, k.right_rel, k.right_column)?,
                            ))
                        })
                        .collect::<Result<Vec<_>, ExecutionError>>()?;
                    let mut out_rels = build_rels;
                    out_rels.extend_from_slice(&p.out_rels);
                    p.ops.push(PipelineOp::Hash(HashProbeOp {
                        build,
                        table,
                        probe,
                        rest,
                        out_width: out_rels.len(),
                        card: self.card_of(plan.rels()),
                    }));
                    p.out_rels = out_rels;
                    Ok(p)
                }
                JoinAlgorithm::IndexNestedLoop => {
                    let inner_rel = match right.as_ref() {
                        PhysicalPlan::Scan { rel } => *rel,
                        _ => {
                            return Err(ExecutionError::InvalidPlan(
                                "index-nested-loop join needs a base relation inner".to_owned(),
                            ))
                        }
                    };
                    let first = *keys.first().ok_or(ExecutionError::CrossProduct)?;
                    let mut p = self.compile(left)?;
                    let inner_table_id = self.query.relations[inner_rel].table;
                    let inner_table = self.db.table(inner_table_id);
                    let index = self.db.key_index(inner_table_id, first.right_column).ok_or(
                        ExecutionError::MissingIndex {
                            table: inner_table.name().to_owned(),
                            column: first.right_column,
                        },
                    )?;
                    let outer = self.reader(&p.out_rels, first.left_rel, first.left_column)?;
                    let rest = keys[1..]
                        .iter()
                        .map(|k| {
                            Ok((
                                self.reader(&p.out_rels, k.left_rel, k.left_column)?,
                                inner_table.column(k.right_column),
                            ))
                        })
                        .collect::<Result<Vec<_>, ExecutionError>>()?;
                    let mut out_rels = p.out_rels.clone();
                    out_rels.push(inner_rel);
                    p.ops.push(PipelineOp::Index(IndexProbeOp {
                        index,
                        inner_table,
                        inner_preds: &self.query.relations[inner_rel].predicates,
                        outer,
                        rest,
                        out_width: out_rels.len(),
                        card: self.card_of(plan.rels()),
                    }));
                    p.out_rels = out_rels;
                    Ok(p)
                }
                JoinAlgorithm::NestedLoop => {
                    if keys.is_empty() {
                        return Err(ExecutionError::CrossProduct);
                    }
                    // The outer (left) side continues the pipeline; the inner
                    // side materialises.
                    let mut p = self.compile(left)?;
                    let inner = self.node_input(right)?;
                    let inner_rels = inner.get().rels().to_vec();
                    let key_readers = keys
                        .iter()
                        .map(|k| {
                            Ok((
                                self.reader(&p.out_rels, k.left_rel, k.left_column)?,
                                self.reader(&inner_rels, k.right_rel, k.right_column)?,
                            ))
                        })
                        .collect::<Result<Vec<_>, ExecutionError>>()?;
                    let mut out_rels = p.out_rels.clone();
                    out_rels.extend_from_slice(&inner_rels);
                    p.ops.push(PipelineOp::Nl(NlProbeOp {
                        inner,
                        keys: key_readers,
                        out_width: out_rels.len(),
                        card: self.card_of(plan.rels()),
                    }));
                    p.out_rels = out_rels;
                    Ok(p)
                }
                JoinAlgorithm::SortMerge => {
                    let first = *keys.first().ok_or(ExecutionError::CrossProduct)?;
                    // Both sides are breakers (borrowed from the store when
                    // already materialised); the merge output becomes a new
                    // pipeline source.
                    let l = self.node_input(left)?;
                    let r = self.node_input(right)?;
                    let (li, ri) = (l.get(), r.get());
                    let lkey = self.reader(li.rels(), first.left_rel, first.left_column)?;
                    let rkey = self.reader(ri.rels(), first.right_rel, first.right_column)?;
                    let rest = keys[1..]
                        .iter()
                        .map(|k| {
                            Ok((
                                self.reader(li.rels(), k.left_rel, k.left_column)?,
                                self.reader(ri.rels(), k.right_rel, k.right_column)?,
                            ))
                        })
                        .collect::<Result<Vec<_>, ExecutionError>>()?;
                    let mut out_rels = li.rels().to_vec();
                    out_rels.extend_from_slice(ri.rels());
                    let merge_started = std::time::Instant::now();
                    let out = merge_join(
                        li,
                        ri,
                        lkey,
                        rkey,
                        &rest,
                        out_rels.clone(),
                        self.options,
                        self.pool,
                        self.guard,
                    )?;
                    let idx = self.card_of(plan.rels());
                    self.counters.rows[idx].fetch_add(out.len() as u64, Ordering::Relaxed);
                    self.counters.charge(idx, merge_started.elapsed());
                    Ok(Pipeline { source: Source::Mat(out), ops: Vec::new(), out_rels })
                }
            },
        }
    }
}

/// Drives one pipeline to completion: participants on `pool` pull
/// fixed-size morsels from the source, push them through the probe chain,
/// and the per-morsel outputs concatenate in morsel order.
fn drive(
    pipeline: Pipeline<'_>,
    options: &ExecutionOptions,
    pool: &WorkerPool,
    guard: &ExecGuard,
    counters: &OpCounters,
) -> Result<Intermediate, ExecutionError> {
    // A breaker output with no probe chain needs no pass at all.
    if pipeline.ops.is_empty() {
        if let Source::Mat(i) = pipeline.source {
            return Ok(i);
        }
        if let Source::MatRef(i) = pipeline.source {
            return Ok(i.clone());
        }
    }
    let n = pipeline.source.tuple_count();
    let morsel = options.morsel_size.max(1);
    let morsel_count = n.div_ceil(morsel);
    let workers = options.threads.min(morsel_count).max(1);
    let cursor = AtomicUsize::new(0);
    let tag = options.trace_tag.as_deref().unwrap_or("pipeline");

    // Each participant keeps its output keyed by morsel index and merges it
    // into the shared sink, so the concatenation below is identical however
    // many participants the pool granted.
    let sink: parking_lot::Mutex<Vec<(usize, Vec<RowId>)>> = parking_lot::Mutex::new(Vec::new());
    let panicked = pool.run_tasks(workers, &|_slot| {
        // Test-only fault injection: a sentinel morsel size panics
        // participants, giving the containment path
        // (`ExecutionError::WorkerPanicked` instead of unwinding through a
        // warm server) a deterministic test.
        #[cfg(test)]
        if options.morsel_size == TEST_PANIC_MORSEL_SIZE {
            panic!("injected worker panic (test sentinel morsel size)");
        }
        // Each participant's stint becomes one pipeline span in the pool's
        // trace ring — recorded after the work, off the morsel path, so it
        // cannot perturb tuple-for-tuple determinism.
        let started = std::time::Instant::now();
        let mut local = Vec::new();
        worker(&pipeline, options, guard, counters, &cursor, morsel_count, &mut local);
        if !local.is_empty() {
            sink.lock().extend(local);
        }
        pool.record_span(tag, started);
    });
    if panicked {
        guard.abort(ExecutionError::WorkerPanicked);
    }
    if let Some(e) = guard.failure() {
        return Err(e);
    }
    let mut chunks = sink.into_inner();
    chunks.sort_unstable_by_key(|(m, _)| *m);
    Ok(Intermediate::from_chunks(pipeline.out_rels, chunks.into_iter().map(|(_, c)| c).collect()))
}

/// One worker's drive loop: pull a morsel, fill the source buffer, run the
/// probe chain, keep the output keyed by morsel index.  Failures land in the
/// guard's abort latch (first error wins) and stop every other worker.
fn worker(
    pipeline: &Pipeline<'_>,
    options: &ExecutionOptions,
    guard: &ExecGuard,
    counters: &OpCounters,
    cursor: &AtomicUsize,
    morsel_count: usize,
    out_chunks: &mut Vec<(usize, Vec<RowId>)>,
) {
    let n = pipeline.source.tuple_count();
    let morsel = options.morsel_size.max(1);
    let mut ticker = Ticker::new(guard);
    let mut batch = ProbeBatch::default();
    let mut scratch: Vec<RowId> = Vec::new();
    let mut next: Vec<RowId> = Vec::new();
    loop {
        if guard.is_aborted() {
            return;
        }
        let m = cursor.fetch_add(1, Ordering::Relaxed);
        if m >= morsel_count {
            return;
        }
        let range = m * morsel..((m + 1) * morsel).min(n);
        scratch.clear();
        let fill = fill_source(&pipeline.source, range, &mut scratch, &mut ticker);
        if let Err(e) = fill {
            guard.abort(e);
            return;
        }
        let mut width = pipeline.source.width();
        let mut failed = None;
        for op in &pipeline.ops {
            if scratch.is_empty() {
                break;
            }
            next.clear();
            let started = std::time::Instant::now();
            let step = op.process(
                &scratch,
                width,
                &mut next,
                &mut ticker,
                &mut batch,
                &counters.rows[op.card()],
            );
            counters.charge(op.card(), started.elapsed());
            if let Err(e) = step {
                failed = Some(e);
                break;
            }
            std::mem::swap(&mut scratch, &mut next);
            width = op.out_width();
        }
        if let Some(e) = failed {
            guard.abort(e);
            return;
        }
        if !scratch.is_empty() {
            out_chunks.push((m, std::mem::take(&mut scratch)));
        }
    }
}

/// Materialises one source morsel into `out`.
fn fill_source(
    source: &Source<'_>,
    range: std::ops::Range<usize>,
    out: &mut Vec<RowId>,
    ticker: &mut Ticker<'_>,
) -> Result<(), ExecutionError> {
    match source {
        Source::Scan { filter, .. } => {
            ticker.tick_n(range.len())?;
            filter.select(range, out);
        }
        Source::Mat(i) => copy_tuples(i, range, out, ticker)?,
        Source::MatRef(i) => copy_tuples(i, range, out, ticker)?,
    }
    Ok(())
}

/// Copies the tuples of `input` in `range` into `out`.
fn copy_tuples(
    input: &Intermediate,
    range: std::ops::Range<usize>,
    out: &mut Vec<RowId>,
    ticker: &mut Ticker<'_>,
) -> Result<(), ExecutionError> {
    ticker.tick_n(range.len())?;
    input.slices_in(range).for_each(|tuples| out.extend_from_slice(tuples));
    Ok(())
}

/// A standalone parallel hash join of two materialised intermediates — the
/// building block ground-truth extraction uses to join each new base relation
/// into a memoised subexpression.
///
/// Builds on `left` (sized from `build_estimate`), probes with `right`,
/// producing `left ++ right` tuples exactly like the historical sequential
/// operator.  Runs on `options.pool`, or on a pool made for this call.
#[allow(clippy::too_many_arguments)] // mirrors the historical operator ABI
pub fn hash_join(
    db: &Database,
    query: &QuerySpec,
    left: &Intermediate,
    right: &Intermediate,
    keys: &[JoinKey],
    build_estimate: f64,
    options: &ExecutionOptions,
    guard: &ExecGuard,
) -> Result<Intermediate, ExecutionError> {
    let first = *keys.first().ok_or(ExecutionError::CrossProduct)?;
    let reader = |layout: &[usize], rel: usize, column: ColumnId| {
        let slot = layout.iter().position(|r| *r == rel).ok_or_else(|| {
            ExecutionError::InvalidPlan(format!("relation {rel} not in join input"))
        })?;
        Ok::<_, ExecutionError>(ColReader::new(
            slot,
            db.table(query.relations[rel].table).column(column),
        ))
    };
    let pool = options.pool_or_private();
    let build_key = reader(left.rels(), first.left_rel, first.left_column)?;
    let table = build_hash_table(left, build_key, build_estimate, options, &pool, guard)?;
    let probe = reader(right.rels(), first.right_rel, first.right_column)?;
    let rest = keys[1..]
        .iter()
        .map(|k| {
            Ok((
                reader(left.rels(), k.left_rel, k.left_column)?,
                reader(right.rels(), k.right_rel, k.right_column)?,
            ))
        })
        .collect::<Result<Vec<_>, ExecutionError>>()?;
    let mut out_rels = left.rels().to_vec();
    out_rels.extend_from_slice(right.rels());
    let op = PipelineOp::Hash(HashProbeOp {
        build: BuildSide::Borrowed(left),
        table,
        probe,
        rest,
        out_width: out_rels.len(),
        card: 0,
    });
    let counters = OpCounters::new(1);
    let pipeline = Pipeline { source: Source::MatRef(right), ops: vec![op], out_rels };
    drive(pipeline, options, &pool, guard, &counters)
}

/// Sentinel `morsel_size` that makes pipeline participants panic under
/// `cfg(test)` — see the fault injection in [`drive`].  Small, so pipelines
/// have many morsels and several participants; distinct from every value
/// the crate's tests use for real runs.
#[cfg(test)]
pub(crate) const TEST_PANIC_MORSEL_SIZE: usize = 7;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_plan;
    use crate::operators::{merge_join, scan};
    use qob_plan::{BaseRelation, JoinEdge};
    use qob_storage::{ColumnMeta, DataType, TableBuilder, Value};

    /// `movies(id)` with 100 rows and `info(id, movie_id)` with 3 rows per
    /// movie — enough tuples that a 16-tuple morsel forces real multi-morsel
    /// scheduling and the partitioned parallel hash build.
    fn setup() -> (Database, QuerySpec) {
        let mut movies = TableBuilder::new("movies", vec![ColumnMeta::new("id", DataType::Int)]);
        for i in 0..100i64 {
            movies.push_row(vec![Value::Int(i + 1)]).unwrap();
        }
        let mut info = TableBuilder::new(
            "info",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("movie_id", DataType::Int)],
        );
        let mut id = 1;
        for i in 0..100i64 {
            for _ in 0..3 {
                info.push_row(vec![Value::Int(id), Value::Int(i + 1)]).unwrap();
                id += 1;
            }
        }
        let mut db = Database::new();
        let m = db.add_table(movies.finish()).unwrap();
        let inf = db.add_table(info.finish()).unwrap();
        let q = QuerySpec::new(
            "q",
            vec![BaseRelation::unfiltered(m, "m"), BaseRelation::unfiltered(inf, "i")],
            vec![JoinEdge {
                left: 0,
                left_column: qob_storage::ColumnId(0),
                right: 1,
                right_column: qob_storage::ColumnId(1),
            }],
        );
        (db, q)
    }

    fn opts(threads: usize, rehash: bool) -> ExecutionOptions {
        ExecutionOptions { threads, morsel_size: 16, enable_rehash: rehash, ..Default::default() }
    }

    fn all_tuples(i: &Intermediate) -> Vec<Vec<RowId>> {
        (0..i.len()).map(|t| i.tuple(t).to_vec()).collect()
    }

    fn key01() -> JoinKey {
        JoinKey {
            left_rel: 0,
            left_column: qob_storage::ColumnId(0),
            right_rel: 1,
            right_column: qob_storage::ColumnId(1),
        }
    }

    /// The README's central determinism claim, pinned at the tuple level: the
    /// parallel engine's output must be *tuple for tuple* identical to the
    /// sequential engine's, not merely equal in cardinality — for both hash
    /// sizing modes (right-sized parallel build and the Figure 6
    /// estimate-sized, never-rehashed build).
    #[test]
    fn parallel_hash_join_output_is_tuple_for_tuple_identical() {
        let (db, q) = setup();
        let left = scan(&db, &q, 0);
        let right = scan(&db, &q, 1);
        let keys = vec![key01()];
        for rehash in [true, false] {
            let seq_opts = opts(1, rehash);
            let par_opts = opts(4, rehash);
            let a = hash_join(
                &db,
                &q,
                &left,
                &right,
                &keys,
                1.0,
                &seq_opts,
                &ExecGuard::new(&seq_opts),
            )
            .unwrap();
            let b = hash_join(
                &db,
                &q,
                &left,
                &right,
                &keys,
                1.0,
                &par_opts,
                &ExecGuard::new(&par_opts),
            )
            .unwrap();
            assert_eq!(a.len(), 300, "rehash={rehash}");
            assert_eq!(a.rels(), b.rels(), "rehash={rehash}");
            assert_eq!(all_tuples(&a), all_tuples(&b), "rehash={rehash}");
            assert!(b.chunk_count() > 1, "parallel output really is chunked");
        }
    }

    #[test]
    fn prematerialized_subtrees_resume_identically() {
        use crate::executor::{execute_plan, execute_plan_with, materialize_plan};
        use qob_plan::{JoinAlgorithm, PhysicalPlan};
        let (db, q) = setup();
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key01()],
        );
        let options = opts(1, true);
        let hint = |_: RelSet| 100.0;
        let plain = execute_plan(&db, &q, &plan, &hint, &options).unwrap();

        // Materialise the build side as its own step, then resume.
        let mut mat = Materialized::new();
        let (build, cards) =
            materialize_plan(&db, &q, &PhysicalPlan::scan(0), &hint, &options, &mat).unwrap();
        assert!(cards.is_empty(), "a scan has no join operators");
        assert_eq!(build.len(), 100);
        mat.insert(build);
        let resumed = execute_plan_with(&db, &q, &plan, &hint, &options, &mat).unwrap();
        assert_eq!(plain.rows, resumed.rows);
        assert_eq!(plain.operator_cardinalities, resumed.operator_cardinalities);

        // A fully pre-materialised probe side works too (both children from
        // the store), in parallel as well as sequentially.
        let (probe, _) =
            materialize_plan(&db, &q, &PhysicalPlan::scan(1), &hint, &options, &mat).unwrap();
        mat.insert(probe);
        for threads in [1usize, 4] {
            let options = opts(threads, true);
            let resumed = execute_plan_with(&db, &q, &plan, &hint, &options, &mat).unwrap();
            assert_eq!(plain.rows, resumed.rows, "threads={threads}");
        }

        // Joins inside a pre-materialised subtree report 0 (they did not
        // run): materialise the whole join, resume, and the single join
        // counter must be 0 while the result rows still flow through.
        let (whole, whole_cards) = materialize_plan(&db, &q, &plan, &hint, &options, &mat).unwrap();
        assert_eq!(whole_cards.len(), 1);
        assert_eq!(whole_cards[0].1, plain.rows);
        let mut mat = Materialized::new();
        mat.insert(whole);
        let served = execute_plan_with(&db, &q, &plan, &hint, &options, &mat).unwrap();
        assert_eq!(served.rows, plain.rows);
        assert_eq!(served.operator_cardinalities[0].1, 0, "join was served, not re-executed");
    }

    #[test]
    fn materialize_plan_rejects_malformed_subplans() {
        use crate::executor::materialize_plan;
        use qob_plan::{JoinAlgorithm, PhysicalPlan};
        let (db, q) = setup();
        let dup = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(0),
            vec![key01()],
        );
        let options = opts(1, true);
        let err =
            materialize_plan(&db, &q, &dup, &|_| 1.0, &options, &Materialized::new()).unwrap_err();
        assert!(matches!(err, ExecutionError::InvalidPlan(_)), "got {err:?}");
    }

    #[test]
    fn parallel_merge_join_output_is_tuple_for_tuple_identical() {
        let (db, q) = setup();
        let left = scan(&db, &q, 0);
        let right = scan(&db, &q, 1);
        let lcol = db.table(q.relations[0].table).column(qob_storage::ColumnId(0));
        let rcol = db.table(q.relations[1].table).column(qob_storage::ColumnId(1));
        let run = |threads: usize| {
            let options = opts(threads, true);
            let guard = ExecGuard::new(&options);
            let pool = options.pool_or_private();
            merge_join(
                &left,
                &right,
                crate::operators::ColReader::new(0, lcol),
                crate::operators::ColReader::new(0, rcol),
                &[],
                vec![0, 1],
                &options,
                &pool,
                &guard,
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.len(), 300);
        assert_eq!(all_tuples(&a), all_tuples(&b));
    }

    /// The shared-pool scheduler must preserve the determinism contract: a
    /// query on a server-wide [`crate::scheduler::WorkerPool`] is tuple for
    /// tuple identical to the sequential engine, for all join algorithms.
    #[test]
    fn shared_pool_execution_is_tuple_for_tuple_identical() {
        let (db, q) = setup();
        let pool = std::sync::Arc::new(crate::scheduler::WorkerPool::new(4));
        let left = scan(&db, &q, 0);
        let right = scan(&db, &q, 1);
        let keys = vec![key01()];
        for rehash in [true, false] {
            let seq_opts = opts(1, rehash);
            let pool_opts =
                ExecutionOptions { pool: Some(std::sync::Arc::clone(&pool)), ..opts(4, rehash) };
            let a = hash_join(
                &db,
                &q,
                &left,
                &right,
                &keys,
                1.0,
                &seq_opts,
                &ExecGuard::new(&seq_opts),
            )
            .unwrap();
            let b = hash_join(
                &db,
                &q,
                &left,
                &right,
                &keys,
                1.0,
                &pool_opts,
                &ExecGuard::new(&pool_opts),
            )
            .unwrap();
            assert_eq!(a.len(), 300, "rehash={rehash}");
            assert_eq!(all_tuples(&a), all_tuples(&b), "rehash={rehash}");
        }

        // Full plans too: operator cardinalities agree with the sequential
        // engine for every algorithm.
        use qob_plan::JoinAlgorithm;
        for alg in [JoinAlgorithm::Hash, JoinAlgorithm::NestedLoop, JoinAlgorithm::SortMerge] {
            let plan = PhysicalPlan::join(
                alg,
                PhysicalPlan::scan(0),
                PhysicalPlan::scan(1),
                vec![key01()],
            );
            let seq = opts(1, true);
            let pooled =
                ExecutionOptions { pool: Some(std::sync::Arc::clone(&pool)), ..opts(4, true) };
            let a = execute_plan(&db, &q, &plan, &|_| 10.0, &seq).unwrap();
            let b = execute_plan(&db, &q, &plan, &|_| 10.0, &pooled).unwrap();
            assert_eq!(a.rows, b.rows, "{alg:?}");
            assert_eq!(a.operator_cardinalities, b.operator_cardinalities, "{alg:?}");
        }
    }

    /// Satellite of the scheduler PR: a panicking morsel task on the
    /// **shared** pool fails only its owning query — the worker is returned
    /// to the pool and the very same pool keeps answering other queries.
    #[test]
    fn shared_pool_contains_worker_panics_and_survives() {
        let (db, q) = setup();
        let pool = std::sync::Arc::new(crate::scheduler::WorkerPool::new(4));
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key01()],
        );
        let poisoned = ExecutionOptions {
            threads: 4,
            morsel_size: TEST_PANIC_MORSEL_SIZE,
            pool: Some(std::sync::Arc::clone(&pool)),
            ..Default::default()
        };
        let err = execute_plan(&db, &q, &plan, &|_| 100.0, &poisoned).unwrap_err();
        assert_eq!(err, ExecutionError::WorkerPanicked);

        // The pool survived: every worker is back and a normal query on the
        // same pool still answers, tuple-identically to sequential.
        let healthy = ExecutionOptions {
            threads: 4,
            morsel_size: 16,
            pool: Some(std::sync::Arc::clone(&pool)),
            ..Default::default()
        };
        let result = execute_plan(&db, &q, &plan, &|_| 100.0, &healthy).unwrap();
        assert_eq!(result.rows, 300);
        // Every batch returned its workers and withdrew its tickets.
        assert_eq!((pool.busy(), pool.queued()), (0, 0), "no worker leaked out of the pool");
    }

    /// A panicking worker must surface as `WorkerPanicked`, not unwind: one
    /// poisoned statement cannot take down a warm `qob serve` process.  With
    /// no pool attached this runs on the execution's private pool.
    #[test]
    fn worker_panics_are_contained_as_execution_errors() {
        let (db, q) = setup();
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key01()],
        );
        let options = ExecutionOptions {
            threads: 4,
            morsel_size: TEST_PANIC_MORSEL_SIZE,
            ..Default::default()
        };
        let err = execute_plan(&db, &q, &plan, &|_| 100.0, &options).unwrap_err();
        assert_eq!(err, ExecutionError::WorkerPanicked);
        assert!(err.to_string().contains("panicked"), "{err}");

        // The same execution without the injection still answers — the
        // engine (and the process) survives the poisoned statement.
        let options = ExecutionOptions { threads: 4, morsel_size: 16, ..Default::default() };
        let result = execute_plan(&db, &q, &plan, &|_| 100.0, &options).unwrap();
        assert_eq!(result.rows, 300);
    }
}
