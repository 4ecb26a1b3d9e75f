//! The measuring loop shared by every workload.

use crate::trace::Recorder;
use std::time::{Duration, Instant};

/// Per-layer metrics of one traced iteration, by unprefixed name.
pub type Layers = Vec<(&'static str, f64)>;

/// A traced iteration: its per-layer metrics and the spans behind them.
pub struct Traced {
    /// Metrics by unprefixed name.
    pub layers: Layers,
    /// One recorder per serial unit of work (a run, a sweep point).
    pub spans: Vec<Recorder>,
}

/// One closed-loop batch job: an iteration starts only after the
/// previous one has finished and its output has been dropped.
pub trait Workload {
    /// What one iteration produces.
    type Output;
    /// Run one iteration.
    fn run(&self) -> Self::Output;
    /// Check an iteration's output against the references built at set-up.
    fn check(&self, out: &Self::Output) -> Result<(), String>;
    /// Units of work the iteration completed, in the workload's own unit.
    fn work_units(&self, out: &Self::Output) -> f64;
    /// Host seconds the work units are rated over; `None` (the default)
    /// rates them over the whole iteration.
    fn work_secs(&self, _out: &Self::Output) -> Option<f64> {
        None
    }
    /// Run one traced iteration, rebuilt from the simulator's public
    /// functions. Fails when its results differ from `reference`,
    /// an untraced output of the same inputs: then its numbers describe
    /// some other computation.
    fn traced(&self, reference: &Self::Output) -> Result<Traced, String>;
}

/// What the timed loop measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Host seconds of each iteration, including dropping its output.
    pub iter_s: Vec<f64>,
    /// Work units per host second of each iteration.
    pub work_per_s: Vec<f64>,
    /// Iterations whose check failed.
    pub failed: u64,
    /// The first failed check's message.
    pub first_failure: Option<String>,
}

/// Run iterations of `w` until `budget` has elapsed and at least
/// `min_iters` have completed. Each output is checked outside the timed
/// region, then dropped inside it: users pay that teardown too.
pub fn measure<W: Workload>(w: &W, budget: Duration, min_iters: usize) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    while s.iter_s.len() < min_iters || start.elapsed() < budget {
        let t0 = Instant::now();
        let out = std::hint::black_box(w.run());
        let run = t0.elapsed();
        if let Err(e) = w.check(&out) {
            s.failed += 1;
            s.first_failure.get_or_insert(e);
        }
        let (units, work_secs) = (w.work_units(&out), w.work_secs(&out));
        let t1 = Instant::now();
        drop(out);
        let secs = (run + t1.elapsed()).as_secs_f64();
        s.iter_s.push(secs);
        s.work_per_s.push(units / work_secs.unwrap_or(secs));
    }
    s
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Worker threads the parallel workloads use: two, or fewer when the
/// host has fewer cores.
pub fn threads() -> usize {
    available_parallelism().min(2)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
