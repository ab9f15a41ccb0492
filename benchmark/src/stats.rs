//! The benchmark's own arithmetic: percentiles, spreads, means, and the
//! whole-pass cut-off of a timed run.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it.  `None` on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail percentiles a report may quote, ascending.
pub const TAIL_CANDIDATES: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// The highest of [`TAIL_CANDIDATES`] that still has at least ten samples
/// beyond it in a sample of `n` — a percentile resting on fewer is one
/// outlier away from a different number.  `None` when even p90 is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.iter().copied().rev().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// `(max − min) / median`: the repeatability mode's relative spread.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let mid = median(values)?;
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    Some(if mid == 0.0 { 0.0 } else { (max - min) / mid.abs() })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| *v > 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Runs `pass` until the clock has reached `budget`, checking only *between*
/// passes: a run always ends on a whole pass, so every run executes the same
/// statement mix however long one pass takes.  Returns the passes run and the
/// clock reading after the last one.
pub fn run_whole_passes(
    budget: Duration,
    mut elapsed: impl FnMut() -> Duration,
    mut pass: impl FnMut(),
) -> (u32, Duration) {
    let mut passes = 0;
    loop {
        pass();
        passes += 1;
        let now = elapsed();
        if now >= budget {
            return (passes, now);
        }
    }
}

/// Per-statement latencies of a run plus its failure accounting.  A failed
/// statement has no latency: it counts in `attempted` (and so against
/// throughput) but never in the percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Latencies of the answer-verified statements, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Statements issued.
    pub attempted: u64,
    /// Statements that errored, were refused, or answered wrongly.
    pub failed: u64,
}

impl Samples {
    /// Records one statement: its latency when it succeeded, a failure
    /// otherwise.
    pub fn record(&mut self, outcome: Result<Duration, String>) {
        self.attempted += 1;
        match outcome {
            Ok(latency) => self.latencies_ms.push(latency.as_secs_f64() * 1e3),
            Err(reason) => {
                self.failed += 1;
                // The first few reasons are enough to debug a broken run.
                if self.failed <= 5 {
                    eprintln!("qob-benchmark: statement failed: {reason}");
                }
            }
        }
    }

    /// The latencies, ascending.
    pub fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }
}

/// One whole pass of one caller over its op list.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The statements of the pass.
    pub samples: Samples,
    /// Wall time of the pass.
    pub wall: Duration,
}

/// A timed run: per caller (one in process, one per connection over the
/// wire), its whole passes.
///
/// Every pass of a caller executes the same statements, so passes are
/// repeated measurements of one quantity, and the run reports their *median*:
/// a burst of interference from outside the process, which a shared two-core
/// box has plenty of, spoils the passes it hits and not the reported value.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// `callers[c]` holds caller `c`'s passes, in order.
    pub callers: Vec<Vec<Pass>>,
}

impl Run {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.callers.iter().flatten()
    }

    /// Statements issued and failed across the run.
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.passes().fold((0, 0), |(a, f), p| (a + p.samples.attempted, f + p.samples.failed))
    }

    /// Answer-verified statements with a latency.
    pub fn sample_count(&self) -> usize {
        self.passes().map(|p| p.samples.latencies_ms.len()).sum()
    }

    /// Answer-verified statements per second: per caller the median over its
    /// passes of verified ÷ pass wall time, summed over the callers (they run
    /// concurrently).  A failed statement adds wall time and no count.
    pub fn ops_per_s(&self) -> Option<f64> {
        self.callers
            .iter()
            .map(|passes| {
                let rates: Vec<f64> = passes
                    .iter()
                    .map(|p| p.samples.latencies_ms.len() as f64 / p.wall.as_secs_f64())
                    .collect();
                median(&rates)
            })
            .sum()
    }

    /// The median over all passes of each pass's nearest-rank `q`-percentile.
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        let per_pass: Vec<f64> =
            self.passes().filter_map(|p| percentile(&p.samples.sorted(), q)).collect();
        median(&per_pass)
    }

    /// The nearest-rank `q`-percentile of all passes' latencies pooled.
    pub fn pooled_percentile_ms(&self, q: f64) -> Option<f64> {
        let mut all: Vec<f64> =
            self.passes().flat_map(|p| p.samples.latencies_ms.iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        percentile(&all, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_matches_the_definition() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), Some(5.0));
        assert_eq!(percentile(&sample, 0.95), Some(10.0));
        assert_eq!(percentile(&sample, 0.90), Some(9.0));
        assert_eq!(percentile(&sample, 0.0), Some(1.0), "rank clamps to the first sample");
        assert_eq!(percentile(&sample, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(50), None, "p90 of 50 leaves only 5 beyond");
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(452), Some(0.95), "about four JOB passes");
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn a_timed_run_ends_on_a_whole_pass() {
        // A fake clock that advances 3 s per pass: a 10 s budget needs four.
        let clock = std::cell::Cell::new(Duration::ZERO);
        let (passes, end) = run_whole_passes(
            Duration::from_secs(10),
            || clock.get(),
            || clock.set(clock.get() + Duration::from_secs(3)),
        );
        assert_eq!((passes, end), (4, Duration::from_secs(12)));
        // A pass longer than the budget still runs once, and only once.
        let clock = std::cell::Cell::new(Duration::ZERO);
        let (passes, _) = run_whole_passes(
            Duration::from_secs(1),
            || clock.get(),
            || clock.set(clock.get() + Duration::from_secs(5)),
        );
        assert_eq!(passes, 1);
    }

    #[test]
    fn failed_statements_count_as_attempted_but_have_no_latency() {
        let mut samples = Samples::default();
        samples.record(Ok(Duration::from_millis(2)));
        samples.record(Err("wrong answer".into()));
        samples.record(Ok(Duration::from_millis(4)));
        assert_eq!((samples.attempted, samples.failed), (3, 1));
        assert_eq!(samples.sorted(), vec![2.0, 4.0]);
        // Throughput counts verified statements only.
        let run = Run {
            callers: vec![vec![Pass { samples: samples.clone(), wall: Duration::from_secs(2) }]],
        };
        assert_eq!(run.ops_per_s(), Some(1.0));
        assert_eq!(run.attempted_failed(), (3, 1));
    }

    fn pass(latencies_ms: &[f64], wall_ms: u64) -> Pass {
        let mut samples = Samples::default();
        for ms in latencies_ms {
            samples.record(Ok(Duration::from_secs_f64(ms / 1e3)));
        }
        Pass { samples, wall: Duration::from_millis(wall_ms) }
    }

    #[test]
    fn a_run_reports_the_median_pass_and_sums_concurrent_callers() {
        // One caller, three passes of 4 statements; the middle pass was hit
        // by a burst: twice the wall time, one latency ten times the others.
        let caller = vec![
            pass(&[1.0, 1.0, 2.0, 3.0], 100),
            pass(&[1.0, 1.0, 2.0, 30.0], 200),
            pass(&[1.0, 1.0, 2.0, 3.0], 100),
        ];
        let run = Run { callers: vec![caller.clone()] };
        assert_eq!(run.ops_per_s(), Some(40.0));
        assert_eq!(run.percentile_ms(0.95), Some(3.0));
        assert_eq!(run.pooled_percentile_ms(0.95), Some(30.0), "the pooled tail keeps the burst");
        assert_eq!(run.sample_count(), 12);
        // Two callers at once double the throughput, not the latency.
        let run = Run { callers: vec![caller.clone(), caller] };
        assert_eq!(run.ops_per_s(), Some(80.0));
        assert_eq!(run.percentile_ms(0.5), Some(1.0));
        assert_eq!(Run::default().ops_per_s(), Some(0.0));
        assert_eq!(Run::default().percentile_ms(0.5), None);
    }

    #[test]
    fn spread_median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(relative_spread(&[9.0, 10.0, 11.0]), Some(0.2));
        assert_eq!(relative_spread(&[5.0, 5.0]), Some(0.0));
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
