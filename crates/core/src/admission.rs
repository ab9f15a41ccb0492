//! Server-wide execution scheduling: the [`SchedulerConfig`] a server is
//! built with, and the admission controller in front of the execute phase.
//! Time a statement spends waiting here is its `queue_us` span.

/// Server-wide execution scheduling: the shared worker pool and the
/// admission limits in front of it.
///
/// The default (`workers == 0`, `max_concurrent == 0`) is what one-shot runs
/// use: a pool sized from the default session's `threads`, and every
/// statement executes immediately.  `qob serve` always sets both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Shared worker-pool size.  `0` sizes the pool from the default
    /// session's `threads` option: `threads − 1` workers, so a lone
    /// statement still gets `threads` participants (its own thread is the
    /// last).
    pub workers: usize,
    /// Statements allowed to execute concurrently.  `0` means unlimited
    /// (no admission control at all — statements never queue).
    pub max_concurrent: usize,
    /// Statements allowed to *wait* for an execution slot before new
    /// arrivals are rejected outright.  Only consulted when
    /// `max_concurrent > 0`.
    pub max_queued: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { workers: 0, max_concurrent: 0, max_queued: 256 }
    }
}

/// A counting semaphore with a bounded wait queue: at most `max_concurrent`
/// permits out, at most `max_queued` waiters, arrivals beyond both rejected
/// immediately.  `std::sync` primitives, not `parking_lot`: waiters block
/// for whole statement executions, not microseconds, so fairness and OS
/// parking beat spin speed.
#[derive(Debug)]
pub(crate) struct AdmissionController {
    max_concurrent: usize,
    max_queued: usize,
    state: std::sync::Mutex<AdmissionState>,
    freed: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    running: usize,
    queued: usize,
}

impl AdmissionController {
    pub(crate) fn new(max_concurrent: usize, max_queued: usize) -> AdmissionController {
        AdmissionController {
            max_concurrent: max_concurrent.max(1),
            max_queued,
            state: std::sync::Mutex::new(AdmissionState::default()),
            freed: std::sync::Condvar::new(),
        }
    }

    /// Blocks until an execution slot frees up, or rejects immediately when
    /// the wait queue is already full.  The permit releases on drop.
    pub(crate) fn acquire(&self) -> Result<AdmissionPermit<'_>, String> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.running < self.max_concurrent {
            state.running += 1;
            return Ok(AdmissionPermit { controller: self });
        }
        if state.queued >= self.max_queued {
            return Err(format!(
                "server at capacity: {} executing, {} queued",
                state.running, state.queued
            ));
        }
        state.queued += 1;
        while state.running >= self.max_concurrent {
            state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.queued -= 1;
        state.running += 1;
        Ok(AdmissionPermit { controller: self })
    }

    pub(crate) fn gauges(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.running, state.queued)
    }
}

/// An execution slot held for the duration of one statement's execute
/// phase; dropping it wakes one queued waiter.
#[derive(Debug)]
pub(crate) struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let controller = self.controller;
        let mut state = controller.state.lock().unwrap_or_else(|e| e.into_inner());
        state.running -= 1;
        drop(state);
        controller.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn admission_controller_limits_blocks_and_rejects() {
        let controller = Arc::new(AdmissionController::new(1, 1));
        let first = controller.acquire().expect("free slot admits immediately");
        assert_eq!(controller.gauges(), (1, 0));

        // One waiter fits in the queue; it must block until `first` drops.
        let entered = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let entered = Arc::clone(&entered);
            let controller = Arc::clone(&controller);
            std::thread::spawn(move || {
                let permit = controller.acquire().expect("queued waiter is admitted");
                entered.store(true, Ordering::SeqCst);
                drop(permit);
            })
        };
        // Wait for the thread to actually queue up.
        let deadline = Instant::now() + Duration::from_secs(5);
        while controller.gauges().1 == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(controller.gauges(), (1, 1), "the waiter queued");
        assert!(!entered.load(Ordering::SeqCst), "the waiter has not executed");

        // A second arrival finds the queue full and is rejected.
        let err = controller.acquire().expect_err("queue is full");
        assert!(err.contains("capacity"), "{err}");

        drop(first);
        waiter.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
        assert_eq!(controller.gauges(), (0, 0));
    }
}
