//! The performance machinery must never change results.
//!
//! Three invariants guard the sweep runner and the render/verdict
//! caches:
//!
//! 1. **Thread-count invariance** — a `run_sweep` over N configs
//!    returns byte-identical JSON whether it ran on 1 thread or many
//!    (work stealing reorders execution, never results).
//! 2. **Cache transparency** — a fixed seed regenerates byte-identical
//!    tables with `PHISHSIM_RENDER_CACHE` off and on (memoization
//!    reuses work, never changes it).
//! 3. **Shared-cache transparency** — `PHISHSIM_SHARED_CACHE` off and
//!    on, and the sweep-level frozen tier, produce byte-identical
//!    sweeps at any thread count.
//!
//! The `sb_scale` population run is held to the same bar: its report
//! (blind-window percentiles, protocol counters, protected-fraction
//! curves) must not depend on the worker-thread count.

use phishsim::experiment::{
    run_main_experiment, run_preliminary, run_sb_scale_with_threads, MainConfig, PreliminaryConfig,
    SbScaleConfig,
};
use phishsim::feedserve::PopulationConfig;
use phishsim::simnet::{MetricsRegistry, ObsSink, SimDuration};
use phishsim_simnet::runner::run_sweep_with_threads;

/// One sweep cell: a seeded fast main-experiment run, serialized the
/// way the sweep binaries write their JSON records.
fn sweep_cell(seed: &u64) -> String {
    let r = run_main_experiment(&MainConfig {
        seed: *seed,
        ..MainConfig::fast()
    });
    serde_json::to_string(&serde_json::json!({
        "seed": seed,
        "table": r.table,
        "traffic_within_2h": r.traffic_within_2h,
    }))
    .expect("serializable")
}

#[test]
fn sweep_json_is_byte_identical_across_thread_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let serial = run_sweep_with_threads(&seeds, 1, sweep_cell);
    let parallel = run_sweep_with_threads(&seeds, 4, sweep_cell);
    assert_eq!(
        serial, parallel,
        "1 thread and 4 threads must agree byte-for-byte"
    );
    let wider = run_sweep_with_threads(&seeds, 16, sweep_cell);
    assert_eq!(serial, wider, "oversubscribed thread count must agree too");
}

#[test]
fn sb_scale_report_is_byte_identical_across_thread_counts() {
    let cfg = SbScaleConfig {
        baseline_hashes: 1_000,
        churn_add: 25,
        population: PopulationConfig {
            clients: 600,
            batch: 64,
            horizon: SimDuration::from_hours(4),
            ..PopulationConfig::default()
        },
        ..SbScaleConfig::fast()
    };
    let json = |threads: usize| {
        serde_json::to_string(&run_sb_scale_with_threads(&cfg, threads)).expect("serializable")
    };
    let serial = json(1);
    assert_eq!(serial, json(4), "1 vs 4 threads");
    assert_eq!(serial, json(16), "1 vs 16 (oversubscribed) threads");
}

/// A trace-query digest: every TraceLog read path the analysis code
/// uses, serialized into one string. `snapshot()` sorts by the
/// content-keyed total order, so this digest must not depend on the
/// interleaving that produced the log.
fn trace_digest(seed: &u64) -> String {
    let r = run_preliminary(&PreliminaryConfig {
        seed: *seed,
        ..PreliminaryConfig::fast()
    });
    let log = &r.world.log;
    let mut out = String::new();
    for e in log.snapshot() {
        out.push_str(&format!("{:?}|{}|{}|{:?}\n", e.at, e.actor, e.src, e.kind));
    }
    out.push_str(&format!("gsb={}\n", log.requests_for("gsb", None)));
    out.push_str(&format!("paths={:?}\n", log.paths_for("netcraft")));
    out
}

#[test]
fn trace_query_digest_is_byte_identical_across_thread_counts() {
    let seeds: Vec<u64> = (17..20).collect();
    let serial = run_sweep_with_threads(&seeds, 1, trace_digest);
    let parallel = run_sweep_with_threads(&seeds, 4, trace_digest);
    assert_eq!(
        serial, parallel,
        "trace queries must not depend on the worker-thread count"
    );
}

#[test]
fn merged_metrics_registry_is_byte_identical_across_thread_counts() {
    // Each sweep cell runs with its own memory sink; the per-run
    // registries are merged in input order, so the merged registry —
    // counters, histograms and gauges alike — must serialize to the
    // same bytes no matter how many threads executed the sweep.
    let merged_json = |threads: usize| {
        let seeds: Vec<u64> = (17..21).collect();
        let registries = run_sweep_with_threads(&seeds, threads, |&seed| {
            let sink = ObsSink::memory();
            let mut c = MainConfig::fast();
            c.seed = seed;
            c.obs = sink.clone();
            run_main_experiment(&c);
            sink.buffer().expect("memory sink").metrics()
        });
        let mut merged = MetricsRegistry::new();
        for m in &registries {
            merged.merge(m);
        }
        serde_json::to_string(&merged).expect("serializable")
    };
    let serial = merged_json(1);
    assert_eq!(serial, merged_json(4), "1 vs 4 threads");
    assert_eq!(serial, merged_json(16), "1 vs 16 (oversubscribed) threads");
}

#[test]
fn sweep_is_byte_identical_with_shared_cache_off_and_on_at_1_and_8_threads() {
    let seeds: Vec<u64> = (50..54).collect();
    std::env::set_var("PHISHSIM_SHARED_CACHE", "0");
    let off_1 = run_sweep_with_threads(&seeds, 1, sweep_cell);
    let off_8 = run_sweep_with_threads(&seeds, 8, sweep_cell);
    std::env::set_var("PHISHSIM_SHARED_CACHE", "1");
    let on_1 = run_sweep_with_threads(&seeds, 1, sweep_cell);
    let on_8 = run_sweep_with_threads(&seeds, 8, sweep_cell);
    assert_eq!(off_1, off_8, "shared cache off: 1 vs 8 threads");
    assert_eq!(on_1, on_8, "shared cache on: 1 vs 8 threads");
    assert_eq!(off_1, on_1, "shared cache off vs on");
}

#[test]
fn frozen_tier_sweep_is_byte_identical_to_cold_sweep_across_threads() {
    // A sweep whose every run thaws a frozen warm-up tier must produce
    // the same bytes as a cold sweep of the same configs, serially and
    // in parallel — the tier is shared lock-free across workers.
    let warmup = run_main_experiment(&MainConfig::fast());
    let Some(caches) = &warmup.run_caches else {
        // Another test currently holds the render cache off; the
        // invariant is vacuous without run-level caches.
        return;
    };
    let frozen = caches.freeze();
    let seeds: Vec<u64> = (60..64).collect();
    let thawed_cell = |seed: &u64| {
        let r = run_main_experiment(&MainConfig {
            seed: *seed,
            shared_frozen: Some(frozen.clone()),
            ..MainConfig::fast()
        });
        serde_json::to_string(&serde_json::json!({
            "seed": seed,
            "table": r.table,
            "traffic_within_2h": r.traffic_within_2h,
        }))
        .expect("serializable")
    };
    let cold = run_sweep_with_threads(&seeds, 1, sweep_cell);
    let thawed_1 = run_sweep_with_threads(&seeds, 1, thawed_cell);
    let thawed_8 = run_sweep_with_threads(&seeds, 8, thawed_cell);
    assert_eq!(cold, thawed_1, "frozen tier must not change any run");
    assert_eq!(thawed_1, thawed_8, "thawed sweep: 1 vs 8 threads");
}

#[test]
fn tables_are_byte_identical_with_cache_off_and_on() {
    // Both phases run inside this one test so the env flips are
    // sequenced; concurrent tests are unaffected either way, because
    // equality under both settings is exactly what is being asserted.
    std::env::set_var("PHISHSIM_RENDER_CACHE", "0");
    let main_off = run_main_experiment(&MainConfig::fast());
    let prelim_off = run_preliminary(&PreliminaryConfig::fast());
    std::env::set_var("PHISHSIM_RENDER_CACHE", "1");
    let main_on = run_main_experiment(&MainConfig::fast());
    let prelim_on = run_preliminary(&PreliminaryConfig::fast());

    assert_eq!(main_off.table.render(), main_on.table.render());
    assert_eq!(
        serde_json::to_string(&main_off.table).unwrap(),
        serde_json::to_string(&main_on.table).unwrap()
    );
    for (x, y) in main_off.arms.iter().zip(&main_on.arms) {
        assert_eq!(x.url, y.url);
        assert_eq!(
            serde_json::to_string(&x.outcome).unwrap(),
            serde_json::to_string(&y.outcome).unwrap(),
            "outcome for {} must not depend on the cache",
            x.url
        );
    }
    assert_eq!(
        serde_json::to_string(&prelim_off.table.rows).unwrap(),
        serde_json::to_string(&prelim_on.table.rows).unwrap()
    );
}
