//! Physical operator implementations, split into **build** and **probe**
//! phases for the morsel-driven pipeline engine.
//!
//! Pipeline breakers (hash-join builds, sort-merge sorts, nested-loop inner
//! materialisation) run on the coordinator, producing shared read-only state;
//! the probe phases are evaluated by worker threads one morsel at a time via
//! [`crate::pipeline`].  All shared state is immutable during probing, so
//! workers need no synchronisation beyond the [`ExecGuard`]'s atomics and the
//! per-operator cardinality counters.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use qob_storage::{Database, EncodedColumn, KeyIndex, Predicate, RowId, ScanFilter, Table};

use crate::executor::{ExecutionError, ExecutionOptions};
use crate::hashtable::{bucket_count_for, bucket_for, ChainedHashTable};
use crate::intermediate::Intermediate;
use crate::scheduler::WorkerPool;

/// Runtime guard shared by all operators — and all worker threads — of one
/// execution: wall-clock timeout, intermediate-size limit and a one-shot
/// abort latch that fans a failure out to every worker.
pub struct ExecGuard {
    start: Instant,
    timeout: Option<Duration>,
    max_slots: usize,
    aborted: AtomicBool,
    failure: Mutex<Option<ExecutionError>>,
}

/// How often a worker-local [`Ticker`] consults the shared guard.
const LOCAL_CHECK_INTERVAL: u64 = 4 * 1024;

impl ExecGuard {
    /// Creates a guard from the execution options.
    pub fn new(options: &ExecutionOptions) -> Self {
        ExecGuard::with_limits(options.timeout, options.max_intermediate_slots)
    }

    /// Creates a guard from explicit limits.
    pub fn with_limits(timeout: Option<Duration>, max_slots: usize) -> Self {
        ExecGuard {
            start: Instant::now(),
            timeout,
            max_slots,
            aborted: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// Time elapsed since execution started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Unconditional deadline check.
    pub fn check_deadline(&self) -> Result<(), ExecutionError> {
        if let Some(t) = self.timeout {
            if self.start.elapsed() > t {
                return Err(ExecutionError::Timeout { elapsed: self.start.elapsed() });
            }
        }
        Ok(())
    }

    /// Unconditional check of both the abort latch and the deadline.
    pub fn poll(&self) -> Result<(), ExecutionError> {
        if self.aborted.load(Ordering::Relaxed) {
            if let Some(e) = self.failure.lock().clone() {
                return Err(e);
            }
        }
        self.check_deadline()
    }

    /// True once any worker has aborted the execution.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Records a failure; the first error wins, later ones are dropped.
    pub fn abort(&self, error: ExecutionError) {
        let mut failure = self.failure.lock();
        if failure.is_none() {
            *failure = Some(error);
        }
        self.aborted.store(true, Ordering::Release);
    }

    /// The recorded failure, if any worker aborted.
    pub fn failure(&self) -> Option<ExecutionError> {
        if self.is_aborted() {
            self.failure.lock().clone()
        } else {
            None
        }
    }

    /// Checks that an operator's produced output stays within the memory
    /// budget (`slots` is the operator's total row-id slot count so far).
    #[inline]
    pub fn check_slots(&self, slots: usize) -> Result<(), ExecutionError> {
        if slots > self.max_slots {
            return Err(ExecutionError::IntermediateTooLarge { slots, limit: self.max_slots });
        }
        Ok(())
    }

    /// Checks that a materialised intermediate stays within the memory budget.
    pub fn check_size(&self, produced: &Intermediate) -> Result<(), ExecutionError> {
        self.check_slots(produced.slot_count())
    }
}

/// A worker-local tick counter: consults the shared [`ExecGuard`] every
/// `LOCAL_CHECK_INTERVAL` (4 096) events without touching shared cache
/// lines in between.
pub struct Ticker<'a> {
    guard: &'a ExecGuard,
    count: u64,
}

impl<'a> Ticker<'a> {
    /// Creates a ticker against `guard`.
    pub fn new(guard: &'a ExecGuard) -> Self {
        Ticker { guard, count: 0 }
    }

    /// Cheap periodic guard consultation.
    #[inline]
    pub fn tick(&mut self) -> Result<(), ExecutionError> {
        self.tick_n(1)
    }

    /// Counts `n` events at once, consulting the guard if an interval
    /// boundary was crossed — the same cadence as `n` calls to `tick`.
    #[inline]
    pub fn tick_n(&mut self, n: usize) -> Result<(), ExecutionError> {
        let before = self.count / LOCAL_CHECK_INTERVAL;
        self.count += n as u64;
        if self.count / LOCAL_CHECK_INTERVAL != before {
            self.guard.poll()?;
        }
        Ok(())
    }

    /// The guard this ticker consults.
    pub(crate) fn guard(&self) -> &'a ExecGuard {
        self.guard
    }
}

// ---------------------------------------------------------------------------
// Scans.
// ---------------------------------------------------------------------------

/// Scans a base relation, applying its selection predicates — the whole
/// table through the same [`ScanFilter`] the pipeline's scan morsels use
/// (ground-truth extraction's base relations).
pub fn scan(db: &Database, query: &qob_plan::QuerySpec, rel: usize) -> Intermediate {
    let relation = &query.relations[rel];
    let table = db.table(relation.table);
    let mut rows = Vec::new();
    ScanFilter::compile(table, &relation.predicates).select(0..table.row_count(), &mut rows);
    Intermediate::from_scan(rel, rows)
}

// ---------------------------------------------------------------------------
// Tuple readers.
// ---------------------------------------------------------------------------

/// O(1) reader of one relation's join column out of a tuple whose slot layout
/// was resolved at compile time.
#[derive(Clone, Copy)]
pub struct ColReader<'a> {
    slot: usize,
    col: &'a EncodedColumn,
}

impl<'a> ColReader<'a> {
    /// Creates a reader for slot `slot` against `col`.
    pub fn new(slot: usize, col: &'a EncodedColumn) -> Self {
        ColReader { slot, col }
    }

    /// The integer value for `tuple`, or `None` if NULL.
    #[inline]
    pub fn get(&self, tuple: &[RowId]) -> Option<i64> {
        self.col.int_at(tuple[self.slot] as usize)
    }

    /// Appends [`ColReader::get`] of every tuple in `tuples` (flattened,
    /// `width` slots each) to `out` with one column gather.
    fn gather(&self, tuples: &[RowId], width: usize, out: &mut Vec<Option<i64>>) {
        if let Some(rows) = tuples.get(self.slot..) {
            self.col.gather_ints(rows, width, out);
        }
    }

    /// [`ColReader::gather`] over the tuples of `input` in `range`.
    fn gather_range(
        &self,
        input: &Intermediate,
        range: std::ops::Range<usize>,
        out: &mut Vec<Option<i64>>,
    ) {
        for tuples in input.slices_in(range) {
            self.gather(tuples, input.width(), out);
        }
    }
}

// ---------------------------------------------------------------------------
// Hash join: build phase.
// ---------------------------------------------------------------------------

/// How many partitions a parallel hash build uses.
fn partition_count(threads: usize, bucket_count: usize) -> usize {
    threads.next_power_of_two().min(bucket_count).min(256)
}

/// Builds the join hash table over `build`, keyed by `key`.
///
/// Sequentially (or for small inputs) this is exactly the historical insert
/// loop: the table is sized from the optimizer's `estimate` and optionally
/// rehashes at runtime, reproducing the PostgreSQL ≤ 9.4 / 9.5 behaviours.
/// With `options.threads > 1` the pairs are extracted morsel-parallel,
/// partitioned by bucket range and inserted partition-wise in parallel; when
/// rehashing is enabled the table is sized directly from the true build count
/// (the steady state a rehashing build converges to), while `enable_rehash:
/// false` keeps the estimate-derived size so the undersized-table pathology
/// of Figure 6 survives parallel execution.
pub fn build_hash_table(
    build: &Intermediate,
    key: ColReader<'_>,
    estimate: f64,
    options: &ExecutionOptions,
    pool: &WorkerPool,
    guard: &ExecGuard,
) -> Result<ChainedHashTable, ExecutionError> {
    let n = build.len();
    let threads = options.threads.max(1);
    let morsel = options.morsel_size.max(1);
    if threads == 1 || n <= morsel {
        let mut table = ChainedHashTable::with_estimate(estimate, options.enable_rehash);
        let mut ticker = Ticker::new(guard);
        let mut keys = Vec::new();
        for range in build.morsels(KEY_BATCH) {
            ticker.tick_n(range.len())?;
            keys.clear();
            key.gather_range(build, range.clone(), &mut keys);
            for (t, k) in range.zip(&keys) {
                if let Some(v) = *k {
                    table.insert(v, t as u32);
                }
            }
        }
        return Ok(table);
    }

    let bucket_count =
        if options.enable_rehash { bucket_count_for(n as f64) } else { bucket_count_for(estimate) };
    let parts = partition_count(threads, bucket_count);
    let stride = bucket_count / parts;
    // Every morsel's pairs, split by bucket range: runs[m][p].
    let runs = morsel_pairs(build, key, options, pool, guard, &|pairs| {
        let mut split = vec![Vec::new(); parts];
        for (v, t) in pairs {
            split[bucket_for(v, bucket_count) / stride].push((v, t));
        }
        split
    })?;
    Ok(ChainedHashTable::from_partitions(bucket_count, options.enable_rehash, &runs, threads, pool))
}

/// Extracts the non-NULL `(key, tuple index)` pairs of `input`
/// morsel-parallel and returns `split(pairs)` of every morsel, in morsel
/// order: concatenating the results is ascending tuple order.
fn morsel_pairs<T: Send + Sync>(
    input: &Intermediate,
    key: ColReader<'_>,
    options: &ExecutionOptions,
    pool: &WorkerPool,
    guard: &ExecGuard,
    split: &(dyn Fn(Vec<(i64, u32)>) -> T + Sync),
) -> Result<Vec<T>, ExecutionError> {
    let morsel = options.morsel_size.max(1);
    run_indexed(input.len().div_ceil(morsel), options, pool, guard, &|m, ticker| {
        let range = m * morsel..((m + 1) * morsel).min(input.len());
        ticker.tick_n(range.len())?;
        let mut keys = Vec::with_capacity(range.len());
        key.gather_range(input, range.clone(), &mut keys);
        Ok(split(range.zip(keys).filter_map(|(t, k)| Some((k?, t as u32))).collect()))
    })
}

/// Runs `task(i, ticker)` for every `i < count` on up to `options.threads`
/// participants on `pool` and returns the results in index order.  Each
/// result lands in a slot of its own, so the order is fixed by `i`, never by
/// scheduling; the first error or panic aborts the remaining tasks.
fn run_indexed<T: Send + Sync>(
    count: usize,
    options: &ExecutionOptions,
    pool: &WorkerPool,
    guard: &ExecGuard,
    task: &(dyn Fn(usize, &mut Ticker<'_>) -> Result<T, ExecutionError> + Sync),
) -> Result<Vec<T>, ExecutionError> {
    let slots: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    let workers = options.threads.min(count).max(1);
    let cursor = AtomicUsize::new(0);
    let panicked = pool.run_tasks(workers, &|_slot| {
        let mut ticker = Ticker::new(guard);
        while !guard.is_aborted() {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            match task(i, &mut ticker) {
                Ok(result) => _ = slot.set(result),
                Err(e) => guard.abort(e),
            }
        }
    });
    if panicked {
        // A panicked participant must not unwind through the warm server:
        // record the abort and let the guard surface it as an error.
        guard.abort(ExecutionError::WorkerPanicked);
    }
    if let Some(e) = guard.failure() {
        return Err(e);
    }
    Ok(slots.into_iter().map(|slot| slot.into_inner().expect("every task ran")).collect())
}

// ---------------------------------------------------------------------------
// Probe-phase operators.
// ---------------------------------------------------------------------------

/// A materialised build side: owned by the operator (pipeline engine) or
/// borrowed (ground-truth extraction joins memoised intermediates in place).
pub enum BuildSide<'a> {
    /// The operator owns its build side.
    Owned(Intermediate),
    /// The build side is borrowed from a caller-managed store.
    Borrowed(&'a Intermediate),
}

impl BuildSide<'_> {
    /// The underlying intermediate.
    #[inline]
    pub fn get(&self) -> &Intermediate {
        match self {
            BuildSide::Owned(i) => i,
            BuildSide::Borrowed(i) => i,
        }
    }
}

/// Hash-join probe: the flowing (right/probe) tuples are matched against the
/// materialised build side, output tuples are `build ++ flowing`.
pub struct HashProbeOp<'a> {
    /// Materialised build-side intermediate.
    pub build: BuildSide<'a>,
    /// The shared hash table over the build side's first join key.
    pub table: ChainedHashTable,
    /// First-key reader on the flowing tuple.
    pub probe: ColReader<'a>,
    /// Remaining keys: (build-side reader, flowing-side reader).
    pub rest: Vec<(ColReader<'a>, ColReader<'a>)>,
    /// Output tuple width.
    pub out_width: usize,
    /// Index of this operator's cardinality counter.
    pub card: usize,
}

/// Index-nested-loop probe: each flowing (outer) tuple is looked up in the
/// catalog key index of the inner base relation, output is `flowing ++
/// [inner row]`.
pub struct IndexProbeOp<'a> {
    /// The inner relation's catalog key index on the first join key.
    pub index: &'a KeyIndex,
    /// The inner base table.
    pub inner_table: &'a Table,
    /// The inner relation's selection predicates, applied per index hit.
    pub inner_preds: &'a [Predicate],
    /// First-key reader on the flowing tuple.
    pub outer: ColReader<'a>,
    /// Remaining keys: (flowing-side reader, inner-table column).
    pub rest: Vec<(ColReader<'a>, &'a EncodedColumn)>,
    /// Output tuple width.
    pub out_width: usize,
    /// Index of this operator's cardinality counter.
    pub card: usize,
}

/// Plain nested-loop probe: each flowing (outer) tuple is compared against
/// every tuple of the materialised inner side, output is `flowing ++ inner`.
pub struct NlProbeOp<'a> {
    /// Materialised inner-side intermediate (borrowed when it was already
    /// materialised by an earlier adaptive round).
    pub inner: BuildSide<'a>,
    /// All keys: (flowing-side reader, inner-side reader).
    pub keys: Vec<(ColReader<'a>, ColReader<'a>)>,
    /// Output tuple width.
    pub out_width: usize,
    /// Index of this operator's cardinality counter.
    pub card: usize,
}

/// How many keys a hash probe or sequential build gathers at a time: enough
/// to amortise the gather's per-call work, small enough that the buffers
/// stay in cache and below the allocator's per-thread retention.
const KEY_BATCH: usize = 1024;

/// A worker's reusable buffers for batched hash probes: one batch's keys
/// and the `(position, chain head)` of each key whose bucket may hold it.
#[derive(Default)]
pub struct ProbeBatch {
    keys: Vec<Option<i64>>,
    hits: Vec<(u32, u32)>,
}

/// A probe-phase operator of a pipeline.
pub enum PipelineOp<'a> {
    /// Hash-join probe.
    Hash(HashProbeOp<'a>),
    /// Index-nested-loop probe.
    Index(IndexProbeOp<'a>),
    /// Nested-loop probe.
    Nl(NlProbeOp<'a>),
}

impl PipelineOp<'_> {
    /// Output tuple width.
    pub fn out_width(&self) -> usize {
        match self {
            PipelineOp::Hash(op) => op.out_width,
            PipelineOp::Index(op) => op.out_width,
            PipelineOp::Nl(op) => op.out_width,
        }
    }

    /// Index of this operator's cardinality counter.
    pub fn card(&self) -> usize {
        match self {
            PipelineOp::Hash(op) => op.card,
            PipelineOp::Index(op) => op.card,
            PipelineOp::Nl(op) => op.card,
        }
    }

    /// Processes one morsel's worth of flowing tuples, appending output
    /// tuples to `out`.
    ///
    /// Every produced row is published to `produced` — the operator's shared
    /// output-row counter, which doubles as its cardinality counter —
    /// incrementally (at least every `PUBLISH_BATCH`, 1 024, rows), so
    /// concurrent workers see each other's in-flight output and the memory
    /// guard bounds the *total* live output, not just each worker's share.
    /// The memory guard is evaluated after every flowing tuple that can have
    /// produced output.
    pub fn process(
        &self,
        input: &[RowId],
        in_width: usize,
        out: &mut Vec<RowId>,
        ticker: &mut Ticker<'_>,
        batch: &mut ProbeBatch,
        produced: &AtomicU64,
    ) -> Result<(), ExecutionError> {
        let guard = ticker.guard();
        let mut tally = Tally::new(produced, self.out_width());
        match self {
            PipelineOp::Hash(op) => {
                // Per batch of flowing tuples: gather every key, find every
                // chain head in one pass over the buckets, then walk only the
                // chains whose tag admits the key — in input order, so output
                // order is the tuple-at-a-time loop's.
                let build = op.build.get();
                let width = in_width.max(1);
                ticker.tick_n(input.len() / width)?;
                for part in input.chunks(KEY_BATCH * width) {
                    batch.keys.clear();
                    op.probe.gather(part, width, &mut batch.keys);
                    op.table.probe_batch(&batch.keys, &mut batch.hits);
                    for &(i, head) in &batch.hits {
                        let Some(key) = batch.keys[i as usize] else { continue };
                        let tuple = &part[i as usize * width..(i as usize + 1) * width];
                        for lt in op.table.chain(head, key) {
                            ticker.tick()?;
                            let build_tuple = build.tuple(lt as usize);
                            let rest_ok = op.rest.iter().all(|(b, f)| {
                                matches!((b.get(build_tuple), f.get(tuple)), (Some(a), Some(c)) if a == c)
                            });
                            if rest_ok {
                                out.extend_from_slice(build_tuple);
                                out.extend_from_slice(tuple);
                                tally.add_row();
                            }
                        }
                        tally.check(guard)?;
                    }
                }
            }
            PipelineOp::Index(op) => {
                for tuple in input.chunks_exact(in_width.max(1)) {
                    ticker.tick()?;
                    if let Some(key) = op.outer.get(tuple) {
                        'hits: for &inner_row in op.index.lookup(key) {
                            ticker.tick()?;
                            if !op.inner_preds.iter().all(|p| p.matches(op.inner_table, inner_row))
                            {
                                continue;
                            }
                            for (outer, inner_col) in &op.rest {
                                let ok = matches!(
                                    (outer.get(tuple), inner_col.int_at(inner_row as usize)),
                                    (Some(a), Some(b)) if a == b
                                );
                                if !ok {
                                    continue 'hits;
                                }
                            }
                            out.extend_from_slice(tuple);
                            out.push(inner_row);
                            tally.add_row();
                        }
                    }
                    tally.check(guard)?;
                }
            }
            PipelineOp::Nl(op) => {
                let inner = op.inner.get();
                let inner_width = inner.width();
                for tuple in input.chunks_exact(in_width.max(1)) {
                    guard.poll()?;
                    for c in 0..inner.chunk_count() {
                        for inner_tuple in inner.chunk(c).chunks_exact(inner_width.max(1)) {
                            ticker.tick()?;
                            let all_eq = op.keys.iter().all(|(f, i)| {
                                matches!((f.get(tuple), i.get(inner_tuple)), (Some(a), Some(b)) if a == b)
                            });
                            if all_eq {
                                out.extend_from_slice(tuple);
                                out.extend_from_slice(inner_tuple);
                                tally.add_row();
                            }
                        }
                    }
                    tally.check(guard)?;
                }
            }
        }
        tally.publish();
        Ok(())
    }
}

/// How many produced rows a worker may hold back before publishing them to
/// the operator's shared counter — the bound on how far the parallel memory
/// guard can lag behind the true total (`threads × PUBLISH_BATCH` rows).
const PUBLISH_BATCH: u64 = 1024;

/// A worker's running tally of produced rows, published incrementally to the
/// operator's shared output counter.
struct Tally<'a> {
    produced: &'a AtomicU64,
    out_width: usize,
    local: u64,
}

impl<'a> Tally<'a> {
    fn new(produced: &'a AtomicU64, out_width: usize) -> Self {
        Tally { produced, out_width, local: 0 }
    }

    #[inline]
    fn add_row(&mut self) {
        self.local += 1;
        if self.local >= PUBLISH_BATCH {
            self.publish();
        }
    }

    /// Checks the global total (everyone's published rows plus this worker's
    /// unpublished remainder) against the memory budget.
    #[inline]
    fn check(&self, guard: &ExecGuard) -> Result<(), ExecutionError> {
        let total = self.produced.load(Ordering::Relaxed) + self.local;
        guard.check_slots(total as usize * self.out_width)
    }

    fn publish(&mut self) {
        if self.local > 0 {
            self.produced.fetch_add(self.local, Ordering::Relaxed);
            self.local = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Sort-merge join (a full pipeline breaker: sort both sides, merge in
// parallel over run-aligned key ranges).
// ---------------------------------------------------------------------------

/// Sort-merge join on the first key (remaining keys verified per match).
///
/// Both inputs are pipeline breakers: their `(key, tuple)` arrays are
/// extracted morsel-parallel, sorted, and merged by worker threads over
/// run-aligned partitions of the left key range, so the concatenated output
/// is identical to the historical sequential merge.
#[allow(clippy::too_many_arguments)] // mirrors the shape of the join it implements
pub fn merge_join(
    left: &Intermediate,
    right: &Intermediate,
    lkey: ColReader<'_>,
    rkey: ColReader<'_>,
    rest: &[(ColReader<'_>, ColReader<'_>)],
    out_rels: Vec<usize>,
    options: &ExecutionOptions,
    pool: &WorkerPool,
    guard: &ExecGuard,
) -> Result<Intermediate, ExecutionError> {
    let mut lkeys = morsel_pairs(left, lkey, options, pool, guard, &|pairs| pairs)?.concat();
    let mut rkeys = morsel_pairs(right, rkey, options, pool, guard, &|pairs| pairs)?.concat();
    lkeys.sort_unstable();
    rkeys.sort_unstable();

    let out_width = out_rels.len();
    let threads = options.threads.max(1);

    // Partition the left key array into run-aligned contiguous ranges.
    let mut bounds = vec![0usize];
    for i in 1..threads {
        let mut b = (i * lkeys.len()) / threads;
        while b < lkeys.len() && b > 0 && lkeys[b].0 == lkeys[b - 1].0 {
            b += 1;
        }
        if b > *bounds.last().expect("non-empty") {
            bounds.push(b);
        }
    }
    bounds.push(lkeys.len());

    let produced = AtomicU64::new(0);
    let chunks = run_indexed(bounds.len() - 1, options, pool, guard, &|i, _| {
        let lslice = &lkeys[bounds[i]..bounds[i + 1]];
        // The matching right range for this key interval.
        let rslice = right_window(&rkeys, lslice);
        let mut out = Vec::new();
        merge_range(lslice, rslice, left, right, rest, &mut out, out_width, guard, &produced)?;
        Ok(out)
    })?;
    Ok(Intermediate::from_chunks(out_rels, chunks))
}

/// The sub-slice of `rkeys` whose keys fall inside `lslice`'s key interval.
fn right_window<'k>(rkeys: &'k [(i64, u32)], lslice: &[(i64, u32)]) -> &'k [(i64, u32)] {
    let (Some(&(lo, _)), Some(&(hi, _))) = (lslice.first(), lslice.last()) else {
        return &rkeys[0..0];
    };
    let start = rkeys.partition_point(|&(k, _)| k < lo);
    let end = rkeys.partition_point(|&(k, _)| k <= hi);
    &rkeys[start..end]
}

/// Merges one run-aligned range of sorted key arrays, appending joined
/// tuples to `out` (the core of the historical sequential merge loop).
#[allow(clippy::too_many_arguments)] // internal worker body
fn merge_range(
    lkeys: &[(i64, u32)],
    rkeys: &[(i64, u32)],
    left: &Intermediate,
    right: &Intermediate,
    rest: &[(ColReader<'_>, ColReader<'_>)],
    out: &mut Vec<RowId>,
    out_width: usize,
    guard: &ExecGuard,
    produced: &AtomicU64,
) -> Result<(), ExecutionError> {
    let mut ticker = Ticker::new(guard);
    let mut tally = Tally::new(produced, out_width);
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeys.len() && j < rkeys.len() {
        ticker.tick()?;
        let (lk, _) = lkeys[i];
        let (rk, _) = rkeys[j];
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            let i_end = lkeys[i..].iter().take_while(|(k, _)| *k == lk).count() + i;
            let j_end = rkeys[j..].iter().take_while(|(k, _)| *k == rk).count() + j;
            for &(_, lt) in &lkeys[i..i_end] {
                let ltuple = left.tuple(lt as usize);
                for &(_, rt) in &rkeys[j..j_end] {
                    ticker.tick()?;
                    let rtuple = right.tuple(rt as usize);
                    let rest_ok = rest.iter().all(|(l, r)| {
                        matches!((l.get(ltuple), r.get(rtuple)), (Some(a), Some(b)) if a == b)
                    });
                    if rest_ok {
                        out.extend_from_slice(ltuple);
                        out.extend_from_slice(rtuple);
                        tally.add_row();
                    }
                }
            }
            tally.check(guard)?;
            i = i_end;
            j = j_end;
        }
    }
    tally.publish();
    Ok(())
}
