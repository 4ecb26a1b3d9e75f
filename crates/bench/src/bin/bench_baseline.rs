//! Persistent performance baseline: `results/BENCH_2.json` through
//! `results/BENCH_4.json`.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin bench_baseline [--quick]
//! ```
//!
//! Times the two single-run table harnesses with the render/verdict
//! cache on and off, a `run_sweep` seed sweep serially and at full
//! parallelism, and the feedserve distribution layer (store build,
//! diff compute/apply, lookup throughput, diff-vs-snapshot bytes),
//! then writes a machine-readable record. Re-run after perf-relevant
//! changes and compare against the committed baseline (`BENCH_1` is
//! the pre-feedserve record, kept for history);
//! `--quick` shrinks reps and the sweep size for CI-style smoke runs.
//!
//! `BENCH_4` adds the thread-scaling artifact: a 1,000-run seed sweep
//! timed at 1/2/4/8/16 worker threads (runs/sec per point, results
//! asserted byte-identical at every point), plus the sweep-level
//! frozen-cache tier timed cold vs thawed on repeated same-config
//! runs. Speedup floors are asserted only when `host_parallelism`
//! provides the cores — the record always states what the host was.
//!
//! The harness also cross-checks determinism: Table 2 cells must be
//! identical with the cache on and off, and the sweep histogram must be
//! identical at 1 thread and N threads. A mismatch aborts the run.

use phishsim_antiphish::render_cache_enabled;
use phishsim_bench::write_record;
use phishsim_core::experiment::{
    run_main_experiment, run_preliminary, MainConfig, PreliminaryConfig,
};
use phishsim_feedserve::{PrefixDiff, PrefixStore};
use phishsim_simnet::runner::{run_sweep_profiled, run_sweep_with_threads, sweep_threads};
use phishsim_simnet::{FaultInjector, ObsSink};
use std::time::Instant;

/// Deterministic pseudo-random full hashes (splitmix64 walk) — same
/// generator as the criterion `feedserve` bench.
fn synth_hashes(n: usize, mut seed: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// Best-of-`reps` wall time in milliseconds.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let mut out = f();
    let mut best = start.elapsed().as_secs_f64() * 1e3;
    for _ in 1..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn set_cache(on: bool) {
    std::env::set_var("PHISHSIM_RENDER_CACHE", if on { "1" } else { "0" });
    assert_eq!(render_cache_enabled(), on);
}

/// Best-of-`reps` paired wall times in milliseconds, cache on vs off.
/// The two settings are interleaved within each rep so slow drift in
/// background load hits both sides equally — unpaired best-of-N is
/// dominated by that drift on busy machines.
fn time_pair<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, f64, R, R) {
    let mut run = |on: bool| {
        set_cache(on);
        let start = Instant::now();
        let out = f();
        (start.elapsed().as_secs_f64() * 1e3, out)
    };
    let (mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY);
    let (t, mut out_on) = run(true);
    best_on = best_on.min(t);
    let (t, mut out_off) = run(false);
    best_off = best_off.min(t);
    for _ in 1..reps {
        let (t, o) = run(true);
        best_on = best_on.min(t);
        out_on = o;
        let (t, o) = run(false);
        best_off = best_off.min(t);
        out_off = o;
    }
    set_cache(true);
    (best_on, best_off, out_on, out_off)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    let reps = if quick { 1 } else { 3 };
    let sweep_seeds: u64 = if quick { 8 } else { 48 };
    let threads = sweep_threads();
    eprintln!(
        "perf baseline: reps={reps}, sweep={sweep_seeds} seeds, {threads} threads{}",
        if quick { " (quick)" } else { "" }
    );

    // ---- single-run harnesses, cache on vs off ----
    let (t1_on_ms, t1_off_ms, _, _) =
        time_pair(reps, || run_preliminary(&PreliminaryConfig::paper()));
    let (t2_on_ms, t2_off_ms, r2_on, r2_off) =
        time_pair(reps, || run_main_experiment(&MainConfig::paper()));
    assert_eq!(
        r2_on.table.cells, r2_off.table.cells,
        "cache on/off must not change Table 2"
    );
    println!("table1 (preliminary): cache on {t1_on_ms:.0} ms, off {t1_off_ms:.0} ms");
    println!("table2 (main):        cache on {t2_on_ms:.0} ms, off {t2_off_ms:.0} ms");

    // ---- sweep throughput, 1 thread vs N ----
    let seeds: Vec<u64> = (0..sweep_seeds).collect();
    let sweep_one = |seed: &u64| {
        let r = run_main_experiment(&MainConfig {
            seed: *seed,
            ..MainConfig::fast()
        });
        r.table.total.hits
    };
    let start = Instant::now();
    let serial = run_sweep_with_threads(&seeds, 1, sweep_one);
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let parallel = run_sweep_with_threads(&seeds, threads, sweep_one);
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(serial, parallel, "sweep must be thread-count invariant");
    let speedup = serial_ms / parallel_ms;
    println!(
        "sweep ({sweep_seeds} runs): serial {serial_ms:.0} ms, {threads} threads {parallel_ms:.0} ms ({speedup:.2}x)"
    );

    // ---- feedserve distribution layer ----
    let store_n = if quick { 10_000 } else { 50_000 };
    let growth = store_n / 100;
    let base_hashes = synth_hashes(store_n, 7);
    let mut grown_hashes = base_hashes.clone();
    grown_hashes.extend(synth_hashes(growth, 1311));
    let fs_reps = reps * 3;
    let (build_ms, v1) = best_of(fs_reps, || {
        PrefixStore::from_hashes(base_hashes.iter().copied())
    });
    let v2 = PrefixStore::from_hashes(grown_hashes.iter().copied());
    let (diff_ms, diff) = best_of(fs_reps, || PrefixDiff::between(&v1, &v2, 1, 2));
    let (apply_ms, applied) = best_of(fs_reps, || diff.apply(&v1).expect("diff applies"));
    assert_eq!(applied, v2, "apply(v1, diff) must equal v2");
    let probes = synth_hashes(100_000, 99);
    let (lookup_ms, hits) = best_of(fs_reps, || {
        probes.iter().filter(|&&h| v1.contains_hash(h)).count()
    });
    let lookups_per_sec = probes.len() as f64 / (lookup_ms / 1e3);
    let diff_bytes = diff.encoded_len();
    let snapshot_bytes = v2.encoded_len();
    assert!(
        diff_bytes < snapshot_bytes,
        "incremental diff must ship fewer bytes than a full snapshot"
    );
    println!(
        "feedserve ({store_n} prefixes): build {build_ms:.2} ms, diff {diff_ms:.2} ms, \
         apply {apply_ms:.2} ms, {lookups_per_sec:.0} lookups/s ({hits} hits), \
         diff {diff_bytes} B vs snapshot {snapshot_bytes} B"
    );

    // ---- fault-path guard (chaos layer) ----
    // With `FaultInjector::none()` the chaos wiring must be free: zero
    // RNG draws, no retry schedules, Table 2 unchanged, and wall time
    // within noise of the cache-on main run above. The chaos-profile
    // run shows what the machinery costs when it is actually on.
    let (nofault_ms, r_nofault) = best_of(reps, || run_main_experiment(&MainConfig::paper()));
    let chaos_cfg = MainConfig {
        faults: FaultInjector::chaos_profile(),
        ..MainConfig::paper()
    };
    let (chaos_ms, r_chaos) = best_of(reps, || run_main_experiment(&chaos_cfg));
    assert_eq!(
        r_nofault.table.cells, r2_on.table.cells,
        "the no-fault config must reproduce Table 2 exactly"
    );
    assert!(
        r_chaos.table.total.hits <= r_nofault.table.total.hits,
        "chaos can lose detections, never invent them"
    );
    println!(
        "fault path: no-fault {nofault_ms:.0} ms (vs {t2_on_ms:.0} ms plain), \
         chaos profile {chaos_ms:.0} ms ({:.2}x)",
        chaos_ms / nofault_ms
    );

    // ---- BENCH_4: thread-scaling curve + sweep-level frozen caches ----
    // A large seed sweep at 1/2/4/8/16 worker threads, runs/sec per
    // point, with every point's results asserted byte-identical to the
    // single-thread reference. Real speedup needs real cores, so the
    // curve records `host_parallelism` and the speedup floors are only
    // asserted on hosts that physically have the parallelism — on a
    // 1-core container the curve is still produced (and still proves
    // thread-count invariance), it just cannot show a speedup.
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scale_runs: u64 = if quick { 64 } else { 1000 };
    let scale_seeds: Vec<u64> = (0..scale_runs).collect();
    let thread_points: &[usize] = &[1, 2, 4, 8, 16];
    let obs = ObsSink::memory();
    let mut curve: Vec<(usize, f64, f64)> = Vec::new(); // (threads, ms, runs/sec)
    let mut reference: Option<Vec<u64>> = None;
    for &t in thread_points {
        let (results, profile) = run_sweep_profiled(
            &format!("bench4.threads{t}"),
            &scale_seeds,
            t,
            &obs,
            sweep_one,
        );
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(
                r, &results,
                "sweep results must be byte-identical at {t} threads"
            ),
        }
        let runs_per_sec = scale_runs as f64 / (profile.host_elapsed_ms / 1e3);
        println!(
            "scaling ({scale_runs} runs): {t:>2} threads {:.0} ms ({runs_per_sec:.1} runs/s)",
            profile.host_elapsed_ms
        );
        curve.push((t, profile.host_elapsed_ms, runs_per_sec));
    }
    let ms_at = |t: usize| {
        curve
            .iter()
            .find(|(ct, _, _)| *ct == t)
            .map(|(_, ms, _)| *ms)
            .expect("measured point")
    };
    let speedup_at_4 = ms_at(1) / ms_at(4);
    let speedup_at_8 = ms_at(1) / ms_at(8);
    if host_parallelism >= 8 {
        assert!(
            speedup_at_8 >= 4.0,
            "8-thread sweep must be >=4x on an >=8-core host, got {speedup_at_8:.2}x"
        );
    } else if host_parallelism >= 4 {
        assert!(
            speedup_at_4 >= 2.0,
            "4-thread sweep must be >=2x on a >=4-core host, got {speedup_at_4:.2}x"
        );
    } else {
        eprintln!(
            "host exposes {host_parallelism} core(s); scaling floors not asserted \
             (thread-count invariance still verified at every point)"
        );
    }

    // Frozen-cache tier: repeated evaluations of one configuration —
    // the shape of an ablation or calibration sweep — against cold
    // per-run caches vs a frozen tier built from one warm-up run.
    let frozen_reps: usize = if quick { 4 } else { 8 };
    let warmup = run_main_experiment(&MainConfig::fast());
    let frozen = warmup
        .run_caches
        .as_ref()
        .expect("shared caches are on by default")
        .freeze();
    // Interleave cold and thawed runs (as in `time_pair`) so drift in
    // background load hits both sides equally.
    let (mut cold_ms, mut warm_ms) = (0.0, 0.0);
    let (mut cold_last, mut warm_last) = (None, None);
    for _ in 0..frozen_reps {
        let start = Instant::now();
        cold_last = Some(run_main_experiment(&MainConfig::fast()));
        cold_ms += start.elapsed().as_secs_f64() * 1e3;
        let cfg = MainConfig {
            shared_frozen: Some(frozen.clone()),
            ..MainConfig::fast()
        };
        let start = Instant::now();
        warm_last = Some(run_main_experiment(&cfg));
        warm_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    let cold_last = cold_last.expect("ran");
    let warm_last = warm_last.expect("ran");
    assert_eq!(
        cold_last.table.cells, warm_last.table.cells,
        "the frozen tier must not change Table 2"
    );
    let frozen_speedup = cold_ms / warm_ms;
    let warm_counters = warm_last
        .run_caches
        .as_ref()
        .expect("shared caches on")
        .counters();
    let (frozen_renders, frozen_verdicts) = frozen.sizes();
    assert!(
        warm_counters.get("render_cache.frozen_hit") > 0,
        "a same-config rerun must hit the frozen render tier"
    );
    println!(
        "frozen tier ({frozen_reps} same-config runs): cold {cold_ms:.0} ms, \
         thawed {warm_ms:.0} ms ({frozen_speedup:.2}x); tier {frozen_renders} renders + \
         {frozen_verdicts} verdicts, rerun hits: render {} verdict {}",
        warm_counters.get("render_cache.frozen_hit"),
        warm_counters.get("verdict_store.frozen_hit"),
    );

    write_record(
        "BENCH_4",
        &serde_json::json!({
            "bench": "BENCH_4",
            "quick": quick,
            "host_parallelism": host_parallelism,
            "sweep": {
                "n_runs": scale_runs,
                "curve": curve
                    .iter()
                    .map(|(t, ms, rps)| {
                        serde_json::json!({
                            "threads": t,
                            "elapsed_ms": ms,
                            "runs_per_sec": rps,
                        })
                    })
                    .collect::<Vec<_>>(),
                "speedup_at_4_threads": speedup_at_4,
                "speedup": speedup_at_8,
                "speedup_asserted": host_parallelism >= 4,
            },
            "frozen_cache": {
                "reps": frozen_reps,
                "cold_ms": cold_ms,
                "thawed_ms": warm_ms,
                "speedup": frozen_speedup,
                "tier_renders": frozen_renders,
                "tier_verdicts": frozen_verdicts,
                "rerun_frozen_render_hits": warm_counters.get("render_cache.frozen_hit"),
                "rerun_frozen_verdict_hits": warm_counters.get("verdict_store.frozen_hit"),
                "rerun_render_overlay_misses": warm_counters.get("render_cache.miss"),
                "rerun_verdict_overlay_misses": warm_counters.get("verdict_store.miss"),
            },
            "determinism": {
                "identical_at_every_thread_count": true,
                "frozen_tier_preserves_table2": true,
            },
        }),
    );

    write_record(
        "BENCH_3",
        &serde_json::json!({
            "bench": "BENCH_3",
            "quick": quick,
            "reps": reps,
            "fault_path": {
                "main_no_fault_ms": nofault_ms,
                "main_plain_ms": t2_on_ms,
                "no_fault_overhead_ratio": nofault_ms / t2_on_ms,
                "main_chaos_profile_ms": chaos_ms,
                "chaos_overhead_ratio": chaos_ms / nofault_ms,
                "no_fault_detections": r_nofault.table.total.hits,
                "chaos_detections": r_chaos.table.total.hits,
            },
            "determinism": {
                "table2_identical_under_no_fault_config": true,
                "chaos_never_adds_detections": true,
            },
        }),
    );

    write_record(
        "BENCH_2",
        &serde_json::json!({
            "bench": "BENCH_2",
            "quick": quick,
            "reps": reps,
            "threads": threads,
            "single_run_ms": {
                "table1_cache_on": t1_on_ms,
                "table1_cache_off": t1_off_ms,
                "table2_cache_on": t2_on_ms,
                "table2_cache_off": t2_off_ms,
                "table2_cache_speedup": t2_off_ms / t2_on_ms,
            },
            "sweep": {
                "n_runs": sweep_seeds,
                "serial_ms": serial_ms,
                "parallel_ms": parallel_ms,
                "speedup": speedup,
                "runs_per_sec_parallel": sweep_seeds as f64 / (parallel_ms / 1e3),
            },
            "feedserve": {
                "store_prefixes": store_n,
                "growth": growth,
                "build_ms": build_ms,
                "diff_ms": diff_ms,
                "apply_ms": apply_ms,
                "lookups_per_sec": lookups_per_sec,
                "diff_bytes": diff_bytes,
                "snapshot_bytes": snapshot_bytes,
                "diff_to_snapshot_ratio": diff_bytes as f64 / snapshot_bytes as f64,
            },
            "determinism": {
                "table2_cache_on_off_identical": true,
                "sweep_thread_count_invariant": true,
                "diff_apply_equals_snapshot": true,
            },
        }),
    );
}
