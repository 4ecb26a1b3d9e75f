//! Shared parallel sweep runner.
//!
//! Lives in the substrate crate so both the experiment framework
//! (`phishsim-core`) and the blacklist-distribution subsystem
//! (`phishsim-feedserve`) can fan work out through the same
//! work-stealing pool. `phishsim-core` re-exports [`run_sweep`],
//! [`run_sweep_with_threads`] and [`sweep_threads`] at its crate root.
//!
//! Every experiment harness that evaluates many independent
//! configurations (seed sweeps, fault sweeps, TTL sweeps, longitudinal
//! waves, ablations) fans out through [`run_sweep`]. Workers pull work
//! from a shared atomic cursor (work stealing), so long runs do not
//! serialize behind a static partition, and results are returned in
//! **input order regardless of thread count or scheduling**: each worker
//! tags results with their input index and the runner sorts the merged
//! output by that index. Combined with every run deriving its
//! randomness from its own config seed, a sweep's output is
//! byte-identical whether it ran on 1 thread or 16.
//!
//! Thread count resolution order:
//! 1. explicit count via [`run_sweep_with_threads`],
//! 2. the `PHISHSIM_SWEEP_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`, optionally capped by
//!    `PHISHSIM_SWEEP_MAX_THREADS`.

use crate::obs::ObsSink;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the indices one `fetch_add` claims. Large enough to
/// amortise the atomic per coarse work item, small enough that the
/// tail of a sweep still load-balances.
const MAX_CHUNK: usize = 32;

/// Parse a positive integer from an environment variable.
fn env_threads(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Resolve the worker-thread count used by [`run_sweep`]:
/// `PHISHSIM_SWEEP_THREADS` if set and positive, else all available
/// parallelism. `PHISHSIM_SWEEP_MAX_THREADS` caps the auto-detected
/// value (it does not cap an explicit `PHISHSIM_SWEEP_THREADS`).
pub fn sweep_threads() -> usize {
    if let Some(n) = env_threads("PHISHSIM_SWEEP_THREADS") {
        return n;
    }
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    match env_threads("PHISHSIM_SWEEP_MAX_THREADS") {
        Some(cap) => auto.min(cap),
        None => auto,
    }
}

/// Run `f` over every config on the default thread count, returning
/// results in input order. See [`run_sweep_with_threads`].
pub fn run_sweep<C, R, F>(configs: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    run_sweep_with_threads(configs, sweep_threads(), f)
}

/// Run `f` over every config on exactly `threads` worker threads.
///
/// Results are returned in input order regardless of thread count. A
/// panic in any worker propagates to the caller after the scope joins.
pub fn run_sweep_with_threads<C, R, F>(configs: &[C], threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let n = configs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return configs.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        // Claim an adaptive chunk: wide while plenty of
                        // work remains (one atomic op per ~chunk), then
                        // shrinking toward single items near the tail so
                        // a slow worker cannot strand a large claim.
                        let seen = cursor.load(Ordering::Relaxed);
                        if seen >= n {
                            break;
                        }
                        let k = ((n - seen) / (threads * 4)).clamp(1, MAX_CHUNK);
                        let start = cursor.fetch_add(k, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + k).min(n);
                        for (i, cfg) in configs.iter().enumerate().take(end).skip(start) {
                            local.push((i, f(cfg)));
                        }
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::with_capacity(n);
        for worker in workers {
            all.extend(worker.join().expect("sweep worker panicked"));
        }
        all
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Host-side profile of one sweep phase.
///
/// Host timings are real wall clock and therefore NON-deterministic:
/// they are returned to the caller for stderr display and must never
/// be written into deterministic result files. The deterministic part
/// of the attribution (phase name, item count, thread count) is what
/// [`run_sweep_profiled`] records into the [`ObsSink`].
#[derive(Debug, Clone)]
pub struct SweepProfile {
    /// Label of the sweep phase (e.g. `"table2"`).
    pub phase: String,
    /// Number of configurations evaluated.
    pub items: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Host wall-clock time the phase took, in milliseconds. Fractional
    /// so sub-millisecond phases profile as their real duration rather
    /// than truncating to 0.
    pub host_elapsed_ms: f64,
}

impl std::fmt::Display for SweepProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase {}: {} items on {} threads in {:.3} ms (host)",
            self.phase, self.items, self.threads, self.host_elapsed_ms
        )
    }
}

/// Run a sweep phase with profiling: deterministic phase attribution
/// (item and phase counters) goes into `obs`, host wall-clock timing
/// comes back in the [`SweepProfile`] for stderr-only display.
///
/// Results are identical to [`run_sweep_with_threads`] with the same
/// arguments — the profiling wrapper adds no RNG draws and no
/// reordering.
pub fn run_sweep_profiled<C, R, F>(
    phase: &str,
    configs: &[C],
    threads: usize,
    obs: &ObsSink,
    f: F,
) -> (Vec<R>, SweepProfile)
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let started = std::time::Instant::now();
    let results = run_sweep_with_threads(configs, threads, f);
    let host_elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    obs.incr("sweep.phases");
    obs.add("sweep.items", configs.len() as u64);
    obs.observe(&format!("sweep.phase_items.{phase}"), configs.len() as u64);
    (
        results,
        SweepProfile {
            phase: phase.to_string(),
            items: configs.len(),
            threads,
            host_elapsed_ms,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = run_sweep(&[] as &[u64], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_input_ordered() {
        let configs: Vec<u64> = (0..257).collect();
        let out = run_sweep_with_threads(&configs, 8, |&x| x * 3 + 1);
        let expected: Vec<u64> = configs.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let configs: Vec<u64> = (0..64).collect();
        // A mildly uneven workload so threads finish out of order.
        let work = |&seed: &u64| -> u64 {
            let mut acc = seed;
            for _ in 0..(seed % 7) * 1_000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let serial = run_sweep_with_threads(&configs, 1, work);
        for threads in [2, 3, 8, 16] {
            assert_eq!(run_sweep_with_threads(&configs, threads, work), serial);
        }
    }

    #[test]
    fn adaptive_chunking_covers_every_index_exactly_once() {
        // Sizes around the chunking boundaries: empty tail, one-item
        // tail, chunk-multiple, and a large sweep where early claims
        // use MAX_CHUNK while the tail shrinks to single items.
        for n in [1usize, 7, 31, 32, 33, 255, 256, 257, 1024, 1999] {
            let configs: Vec<usize> = (0..n).collect();
            for threads in [2, 5, 8] {
                let out = run_sweep_with_threads(&configs, threads, |&i| i);
                assert_eq!(out, configs, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn more_threads_than_configs_is_fine() {
        let out = run_sweep_with_threads(&[1u32, 2], 32, |&x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn profiled_sweep_matches_plain_sweep_and_records_attribution() {
        let configs: Vec<u64> = (0..33).collect();
        let sink = ObsSink::memory();
        let (out, profile) = run_sweep_profiled("demo", &configs, 4, &sink, |&x| x * 2);
        assert_eq!(out, run_sweep_with_threads(&configs, 4, |&x| x * 2));
        assert_eq!(profile.phase, "demo");
        assert_eq!(profile.items, 33);
        assert_eq!(profile.threads, 4);
        let m = sink.buffer().unwrap().metrics();
        assert_eq!(m.counter("sweep.phases"), 1);
        assert_eq!(m.counter("sweep.items"), 33);
        let h = m.histogram("sweep.phase_items.demo").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 33);
        // Host timing stays out of the deterministic registry.
        assert!(m.histogram("sweep.host_ms").is_none());
    }

    #[test]
    fn profiled_sweep_with_null_sink_is_inert() {
        let configs: Vec<u64> = (0..5).collect();
        let (out, _) = run_sweep_profiled("quiet", &configs, 2, &ObsSink::Null, |&x| x + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        let configs: Vec<u32> = (0..8).collect();
        let _ = run_sweep_with_threads(&configs, 4, |&x| {
            assert!(x != 5, "boom");
            x
        });
    }
}
