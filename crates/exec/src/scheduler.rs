//! The execution scheduler: a long-lived [`WorkerPool`] with a global task
//! queue, on which every parallel loop of the engine runs.
//!
//! A server creates **one** pool (`qob serve --workers N`, or `threads − 1`
//! workers for a context built from session defaults) and attaches it to
//! [`crate::ExecutionOptions`]; every pipeline then submits its parallel
//! work as a batch of *participant slots* to the global queue, and the
//! pool's workers pull slots across queries — a worker that finishes one
//! query's morsels immediately picks up another query's, so the machine
//! runs exactly N execution threads no matter how many queries are in
//! flight.  An execution with no pool attached makes a private one once,
//! at its entry point, and runs every pipeline of the call on it.
//!
//! Scheduling model (the morsel paper's, at pipeline granularity):
//!
//! * A query calling [`WorkerPool::run_tasks`]`(slots, job)` offers helper
//!   tickets to the queue and **always participates itself** on the
//!   submitting thread.  That participation is the starvation guarantee:
//!   even with every pool worker busy on someone else's 28-way join, a
//!   point query still progresses on its own connection thread at
//!   single-thread speed — it can only ever go *faster* when helpers are
//!   free.  A pool of zero workers therefore runs everything on the
//!   submitting thread and spawns nothing.
//! * The offer is elastic: at most `idle workers` tickets go on the queue
//!   (never more than `slots - 1`).  A saturated pool hands out none, so
//!   under heavy concurrency each query degrades to inline sequential
//!   execution with zero scheduling overhead, while a lone query on an
//!   idle server fans out to the full pool.  Callers therefore get
//!   *between 1 and `slots`* participants; every execution-side job just
//!   drains a shared morsel cursor, so any participant count produces the
//!   same result.
//! * Helpers that arrive after the work is gone (the submitter or other
//!   helpers exhausted the slots) claim nothing.  On its way out the
//!   submitter withdraws its tickets still on the queue and waits for every
//!   helper holding one to return it, so when `run_tasks` returns the
//!   batch has left no trace in the `busy` and `queued` gauges.
//! * Panics inside a slot are caught ([`std::panic::catch_unwind`]) and
//!   reported to the submitter as a flag — the owning query surfaces
//!   [`crate::ExecutionError::WorkerPanicked`] while the worker thread
//!   survives and returns to the pool for other queries.
//!
//! Determinism is unaffected: the pool changes *which threads* pull morsels,
//! not how their outputs are keyed — per-morsel chunks still concatenate in
//! morsel order, so a query on any pool stays tuple-identical to
//! `threads: 1`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Locks ignoring poisoning: a panicked slot is already contained and
/// reported through the task's `panicked` flag, so the state it protects
/// (plain counters) is never left mid-update in a way recovery could see.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// One submitted batch of participant slots sharing a borrowed job closure.
struct TaskShared {
    /// The job, lifetime-erased.  Safety: [`WorkerPool::run_tasks`] does not
    /// return while a ticket of this batch is queued or held by a worker,
    /// and only ticket holders and the submitter run slots — so the closure
    /// (and everything it borrows) outlives every dereference.
    job: &'static (dyn Fn(usize) + Sync),
    slots: usize,
    /// The next unclaimed slot; claims past `slots` find the batch exhausted.
    next: AtomicUsize,
    /// A slot's job panicked (the panic itself was caught).  The submitter
    /// reads it after every holder has released: the `holders` mutex orders
    /// a helper's store before that read.
    panicked: AtomicBool,
    /// Workers that popped a ticket of this batch and have not yet lowered
    /// the pool's `busy` gauge; the submitter waits for zero.
    holders: Mutex<usize>,
    released: Condvar,
}

impl TaskShared {
    /// Runs claimed slots until the batch is exhausted, containing panics.
    /// Returns whether any slot was claimed.
    fn drain(&self) -> bool {
        let mut claimed = false;
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.slots {
                return claimed;
            }
            claimed = true;
            if catch_unwind(AssertUnwindSafe(|| (self.job)(idx))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Called by a ticket holder once it has lowered `busy`.
    fn release(&self) {
        let mut holders = lock(&self.holders);
        *holders -= 1;
        if *holders == 0 {
            self.released.notify_all();
        }
    }
}

/// Per-worker nanosecond accumulators, updated by the owning worker with
/// relaxed stores and read by anyone through [`WorkerPool::timelines`].
/// `busy` covers time spent running claimed task slots, `idle` covers time
/// parked on (or checking) the queue, and `steals` counts the helper tickets
/// this worker drained that actually yielded work — i.e. how often it picked
/// up *another* query's morsels, the elastic-helper behaviour made visible.
#[derive(Default)]
struct WorkerTimeline {
    busy_nanos: AtomicU64,
    idle_nanos: AtomicU64,
    steals: AtomicU64,
}

/// A point-in-time copy of one worker's timeline accumulators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerTimelineSnapshot {
    /// Nanoseconds spent running task slots since the pool started.
    pub busy_nanos: u64,
    /// Nanoseconds spent parked on the task queue since the pool started.
    pub idle_nanos: u64,
    /// Helper tickets drained that yielded at least one slot of work.
    pub steals: u64,
}

impl WorkerTimelineSnapshot {
    /// Fraction of *observed* time (busy + idle) spent running task slots,
    /// in `[0, 1]`.  `0.0` before the worker has recorded anything.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_nanos.saturating_add(self.idle_nanos);
        if total == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / total as f64
        }
    }
}

/// Most recent pipeline spans retained for [`WorkerPool::spans`].
pub const SPAN_RING_CAPACITY: usize = 4096;

/// One participant's stint on one pipeline: which thread ran it, when it
/// began (µs since the pool's epoch) and for how long.  The fields map
/// one-to-one onto a Chrome trace-event `"ph": "X"` complete event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineSpan {
    /// Query or pipeline tag supplied by the executor (`"pipeline"` when
    /// the query did not tag itself).
    pub name: String,
    /// Stable per-thread id: pool workers are `1..=workers`, submitting
    /// connection threads get unique ids `>= 100`.
    pub tid: u32,
    /// Start of the stint, microseconds since the pool was created.
    pub start_us: u64,
    /// Duration of the stint in microseconds.
    pub dur_us: u64,
}

thread_local! {
    /// Chrome-trace thread id of the current thread; `0` = not yet assigned.
    static TRACE_TID: Cell<u32> = const { Cell::new(0) };
}

/// Submitting (non-pool) threads draw trace ids from here; pool workers use
/// `1..=workers`, so the ranges never collide.  Only uniqueness and
/// `>= 100` are promised: no test may depend on the exact value.
static NEXT_SUBMITTER_TID: AtomicU32 = AtomicU32::new(100);

/// Stable Chrome-trace `tid` for the calling thread: pool workers were
/// assigned `1..=workers` at spawn, any other thread (a query's submitting
/// connection thread) gets a unique id `>= 100` on first use.
pub fn trace_tid() -> u32 {
    TRACE_TID.with(|cell| {
        let tid = cell.get();
        if tid != 0 {
            return tid;
        }
        let tid = NEXT_SUBMITTER_TID.fetch_add(1, Ordering::Relaxed);
        cell.set(tid);
        tid
    })
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<TaskShared>>>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Workers holding a helper ticket (a gauge for `metrics`).
    busy: AtomicUsize,
    /// One timeline per worker thread, indexed like `handles`.
    timelines: Vec<WorkerTimeline>,
    /// Ring of the most recent pipeline spans (bounded, never drained).
    spans: Mutex<VecDeque<PipelineSpan>>,
    /// Zero point for span timestamps: the instant the pool was created.
    epoch: Instant,
}

/// A fixed-size, long-lived pool of execution workers shared by every query
/// of a server process.  See the module docs for the scheduling model.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("busy", &self.busy())
            .field("queued", &self.queued())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` execution threads.  `0` is a pool that
    /// runs every batch on the submitting thread and spawns nothing.
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            timelines: (0..workers).map(|_| WorkerTimeline::default()).collect(),
            spans: Mutex::new(VecDeque::new()),
            epoch: Instant::now(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qob-worker-{i}"))
                    .spawn(move || worker_main(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Workers holding a helper ticket, i.e. running (or about to run)
    /// another thread's task slots.
    pub fn busy(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Helper tickets waiting in the global queue.
    pub fn queued(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Point-in-time copy of every worker's busy/idle/steal accumulators,
    /// indexed by worker (thread `qob-worker-{i}` is element `i`).
    pub fn timelines(&self) -> Vec<WorkerTimelineSnapshot> {
        self.shared
            .timelines
            .iter()
            .map(|t| WorkerTimelineSnapshot {
                busy_nanos: t.busy_nanos.load(Ordering::Relaxed),
                idle_nanos: t.idle_nanos.load(Ordering::Relaxed),
                steals: t.steals.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Copies the retained pipeline spans, oldest first, without draining
    /// them — exporting a trace twice yields the same (growing) window.
    pub fn spans(&self) -> Vec<PipelineSpan> {
        lock(&self.shared.spans).iter().cloned().collect()
    }

    /// Records one participant stint that began at `started` (and ends now)
    /// under the calling thread's trace id.  The ring keeps the most recent
    /// [`SPAN_RING_CAPACITY`] spans and silently forgets older ones.
    pub fn record_span(&self, name: &str, started: Instant) {
        let span = PipelineSpan {
            name: name.to_owned(),
            tid: trace_tid(),
            start_us: started.saturating_duration_since(self.shared.epoch).as_micros() as u64,
            dur_us: started.elapsed().as_micros() as u64,
        };
        let mut ring = lock(&self.shared.spans);
        if ring.len() >= SPAN_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// Runs `job(idx)` once for each of between 1 and `slots` participant
    /// slots `idx = 0, 1, …`: the calling thread **always participates**,
    /// and up to `slots - 1` free pool workers join it.  Returns once every
    /// slot has finished, the tickets no worker took are withdrawn from the
    /// queue, and every worker that took one has lowered `busy` again.
    /// Returns `true` if any slot's job panicked (each panic is caught;
    /// worker threads survive).
    ///
    /// The helper offer is *elastic*: at most as many tickets go on the
    /// queue as the pool has idle workers right now.  A saturated pool gets
    /// no tickets at all, so a query arriving at a busy server degrades to
    /// inline sequential execution on its own connection thread — no futile
    /// wakeups, no queue contention — while the same query on an idle
    /// server still fans out to every worker.  The read is racy on purpose:
    /// it sizes an offer, it doesn't promise anything, and whoever does
    /// claim a ticket still just pulls morsels from the shared cursor.
    pub fn run_tasks(&self, slots: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        if slots == 0 {
            return false;
        }
        // SAFETY: only the lifetime is erased.  The closure is dereferenced
        // only by the submitter and by workers holding a ticket, and this
        // function does not return before its tickets are off the queue and
        // every holder has released — so no dereference outlives the borrow.
        let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        let idle = self.workers().saturating_sub(self.shared.busy.load(Ordering::Relaxed));
        let helpers = (slots - 1).min(idle);
        let task = Arc::new(TaskShared {
            job,
            slots: 1 + helpers,
            next: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            holders: Mutex::new(0),
            released: Condvar::new(),
        });
        if helpers > 0 {
            let mut q = lock(&self.shared.queue);
            for _ in 0..helpers {
                q.push_back(Arc::clone(&task));
            }
            drop(q);
            for _ in 0..helpers {
                self.shared.wake.notify_one();
            }
        }
        // Participate: the submitter claims slots like any worker, so the
        // batch completes even when every pool worker is busy elsewhere.
        task.drain();
        if helpers > 0 {
            // Withdraw the tickets nobody popped, then wait out the holders
            // of the rest (a holder runs its claimed slots before releasing).
            lock(&self.shared.queue).retain(|t| !Arc::ptr_eq(t, &task));
            let mut holders = lock(&task.holders);
            while *holders > 0 {
                holders = wait(&task.released, holders);
            }
        }
        task.panicked.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Raise the flag under the queue lock: a worker that found it unset
        // still holds the lock until it is parked on `wake`, so the notify
        // below cannot fall between its check and its wait.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(shared: &PoolShared, index: usize) {
    TRACE_TID.with(|cell| cell.set(index as u32 + 1));
    let timeline = &shared.timelines[index];
    loop {
        let idle_from = Instant::now();
        let task = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(t) = q.pop_front() {
                    // Become a holder before the queue lock drops, so a
                    // submitter withdrawing its tickets either finds this
                    // one still queued or waits for this worker to release.
                    shared.busy.fetch_add(1, Ordering::Relaxed);
                    *lock(&t.holders) += 1;
                    break t;
                }
                q = wait(&shared.wake, q);
            }
        };
        timeline.idle_nanos.fetch_add(idle_from.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let busy_from = Instant::now();
        // A drained ticket that still had work is one act of cross-query
        // help: this worker ran morsels some other thread submitted.
        if task.drain() {
            timeline.steals.fetch_add(1, Ordering::Relaxed);
        }
        timeline.busy_nanos.fetch_add(busy_from.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        task.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Spins until `n` participants have called in, or gives up after ten
    /// seconds: a participant that never comes fails the test instead of
    /// hanging it.  Returns whether all `n` arrived.
    fn rendezvous(arrived: &AtomicUsize, n: usize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while arrived.load(Ordering::SeqCst) < n {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn every_claimed_slot_runs_exactly_once() {
        // The submitter claims until the batch is exhausted, so on an idle
        // pool exactly `min(slots, workers + 1)` participants run — each
        // precisely once — and each batch leaves the gauges at zero.
        let pool = WorkerPool::new(4);
        for slots in [1usize, 2, 7, 64] {
            let hits: Vec<AtomicU64> = (0..slots).map(|_| AtomicU64::new(0)).collect();
            let panicked = pool.run_tasks(slots, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(!panicked);
            let expected = slots.min(pool.workers() + 1);
            for (i, h) in hits.iter().enumerate() {
                let want = u64::from(i < expected);
                assert_eq!(h.load(Ordering::Relaxed), want, "slot {i} of {slots}");
            }
            assert_eq!((pool.busy(), pool.queued()), (0, 0), "{slots} slots");
        }
    }

    #[test]
    fn back_to_back_batches_each_get_the_idle_helper() {
        // The second batch is submitted the moment the first returns: its
        // elastic offer must already see the pool's one worker as idle.
        let pool = WorkerPool::new(1);
        for batch in 0..2 {
            let arrived = AtomicUsize::new(0);
            let met = AtomicUsize::new(0);
            assert!(!pool.run_tasks(2, &|_| {
                if rendezvous(&arrived, 2) {
                    met.fetch_add(1, Ordering::SeqCst);
                }
            }));
            assert_eq!(met.load(Ordering::SeqCst), 2, "batch {batch}: the helper joined");
            assert_eq!((pool.busy(), pool.queued()), (0, 0), "batch {batch}");
        }
    }

    #[test]
    fn a_pool_without_workers_runs_every_batch_on_the_submitter() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let tids = Mutex::new(Vec::new());
        assert!(!pool.run_tasks(4, &|_| lock(&tids).push(trace_tid())));
        assert_eq!(*lock(&tids), vec![trace_tid()], "one participant: the submitting thread");
        assert!(pool.run_tasks(2, &|_| panic!("injected")), "panics are still contained");
        assert_eq!((pool.busy(), pool.queued()), (0, 0));
        assert!(pool.timelines().is_empty());
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        // Executions make and drop a private pool each, so a drop racing a
        // worker on its way to park must not leave that worker asleep.
        let (done, finished) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..300 {
                let pool = WorkerPool::new(2);
                pool.run_tasks(3, &|_| {});
            }
            done.send(()).unwrap();
        });
        let joined = finished.recv_timeout(Duration::from_secs(60));
        assert!(joined.is_ok(), "a dropped pool never joined its workers");
        cycles.join().unwrap();
    }

    #[test]
    fn submitter_makes_progress_with_zero_free_workers() {
        // A pool whose only worker is parked on someone else's long job must
        // not block a new submitter: the submitter participates itself.
        let pool = Arc::new(WorkerPool::new(1));
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let parked = Arc::new(AtomicUsize::new(0));
        let (r, p, blocker) = (Arc::clone(&release), Arc::clone(&parked), Arc::clone(&pool));
        let hog = std::thread::spawn(move || {
            blocker.run_tasks(2, &|_| {
                // Every participant parks: the hog's own thread on one slot,
                // the pool's only worker on the other.
                p.fetch_add(1, Ordering::SeqCst);
                let mut go = lock(&r.0);
                while !*go {
                    go = wait(&r.1, go);
                }
            });
        });
        // Both of the hog's participants are inside their slots.
        let waited = Instant::now();
        while parked.load(Ordering::SeqCst) < 2 {
            assert!(waited.elapsed() < Duration::from_secs(10), "the hog never parked");
            std::thread::yield_now();
        }
        assert_eq!(pool.busy(), 1, "the only worker is parked in the hog's slot");
        let ran = AtomicU64::new(0);
        let panicked = pool.run_tasks(3, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(!panicked);
        // The saturated pool offers no helper tickets (elastic sizing), so
        // the submitter ran the whole batch alone — and immediately.
        assert_eq!(ran.load(Ordering::Relaxed), 1, "point query ran while the pool was saturated");
        assert_eq!(pool.queued(), 0, "no tickets were queued against a saturated pool");
        *lock(&release.0) = true;
        release.1.notify_all();
        hog.join().unwrap();
        assert_eq!((pool.busy(), pool.queued()), (0, 0));
    }

    #[test]
    fn panics_are_contained_and_workers_survive() {
        let pool = WorkerPool::new(2);
        let panicked = pool.run_tasks(4, &|i| {
            if i % 2 == 0 {
                panic!("injected");
            }
        });
        assert!(panicked);
        // The workers returned to the pool, and it still works.
        assert_eq!((pool.busy(), pool.queued()), (0, 0));
        let arrived = AtomicUsize::new(0);
        let met = AtomicUsize::new(0);
        let panicked = pool.run_tasks(4, &|_| {
            if rendezvous(&arrived, 3) {
                met.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(!panicked);
        assert_eq!(met.load(Ordering::SeqCst), 3, "submitter plus both surviving workers");
    }

    #[test]
    fn timelines_accumulate_busy_idle_and_steals() {
        let pool = WorkerPool::new(2);
        // Give the workers a moment parked on the queue so idle time lands.
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..4 {
            pool.run_tasks(3, &|_| {
                std::thread::sleep(Duration::from_millis(2));
            });
        }
        assert_eq!(pool.busy(), 0);
        let timelines = pool.timelines();
        assert_eq!(timelines.len(), 2);
        assert!(
            timelines.iter().any(|t| t.idle_nanos > 0),
            "workers parked on an empty queue accumulate idle time"
        );
        assert!(
            timelines.iter().any(|t| t.steals > 0 && t.busy_nanos > 0),
            "a worker that drained a helper ticket accumulates busy time and a steal"
        );
        for t in &timelines {
            let u = t.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
        assert_eq!(WorkerTimelineSnapshot::default().utilization(), 0.0);
    }

    #[test]
    fn spans_are_recorded_bounded_and_not_drained() {
        let pool = WorkerPool::new(1);
        let started = Instant::now();
        pool.record_span("q1", started);
        pool.record_span("q2", started);
        let first = pool.spans();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].name, "q1");
        assert!(first[0].tid >= 100, "submitter threads get tids >= 100");
        assert_eq!(first[0].tid, first[1].tid, "trace tids are stable per thread");
        // Reading spans does not drain them.
        assert_eq!(pool.spans(), first);
        // The ring is bounded: overflow forgets the oldest spans.
        for i in 0..SPAN_RING_CAPACITY + 10 {
            pool.record_span(&format!("s{i}"), started);
        }
        let spans = pool.spans();
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(spans.last().unwrap().name, format!("s{}", SPAN_RING_CAPACITY + 9));
    }

    #[test]
    fn pool_worker_trace_tids_are_their_index_plus_one() {
        let pool = WorkerPool::new(2);
        let tids = Mutex::new(Vec::new());
        // Force both workers to participate by parking each claimed slot
        // until everyone has arrived.
        let arrived = AtomicUsize::new(0);
        let panicked = pool.run_tasks(3, &|_| {
            lock(&tids).push(trace_tid());
            assert!(rendezvous(&arrived, 3), "all three participants arrive");
        });
        assert!(!panicked);
        let mut tids = lock(&tids).clone();
        tids.sort_unstable();
        assert_eq!(tids.len(), 3);
        assert_eq!(&tids[..2], &[1, 2], "pool workers are tids 1..=workers");
        assert!(tids[2] >= 100, "the submitter is a tid >= 100");
    }
}
