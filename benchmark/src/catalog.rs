//! The benchmark's workloads and metrics, with the end-to-end metric
//! each per-layer metric should move. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

// Directions, bounds and the full list are read only by that test.
#![cfg_attr(not(test), allow(dead_code))]

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads, with why each is in the set.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "table2_full",
        "the paper's Table 2 at full volume: 105 reports, ~630k fetches; per-request work (transport, engine, access log) dominates",
    ),
    (
        "seed_sweep",
        "32 zero-volume Table 2 runs on 2 sweep threads: no background fetches, so deploy and the monitor's scheduler dominate",
    ),
    (
        "fleet_burst",
        "the four paper fleet points, 12k bursty reports each: the fleet scheduler, work stealing and rate limiter are hot",
    ),
    (
        "feed_sync",
        "feed sync to 250k clients by the exact walker, then to 2.5M in cohort mode: both uses of the feedserve layer",
    ),
];

/// An end-to-end metric, reported by every untraced run.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. On a shared 2-core host the medians of runs
/// of the allocation-heavy workloads spread by ~15% from run to run,
/// however long the run (the neighbours' load drifts over minutes), so
/// the time bounds sit at the 0.25 ceiling. Peak RSS moves with the
/// seed's input size.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "iter_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric of one workload's traced run.
pub struct Layer {
    /// Name within the workload; reported as `<workload>.<name>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// The end-to-end metric of the same workload it should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// Layers of one main-experiment run, as the benchmark's traced re-run splits it.
/// Shared by `table2_full` (one run) and `seed_sweep` (summed over seeds).
const MAIN_RUN: [(&str, &str, Better); 18] = [
    ("core.world.build_ms", "ms", Lower),
    ("core.domains.busy_ms", "ms", Lower),
    ("core.deploy.calls", "count", Lower),
    ("core.deploy.busy_ms", "ms", Lower),
    ("core.report.busy_ms", "ms", Lower),
    ("antiphish.engine.reports", "count", Lower),
    ("antiphish.engine.busy_ms", "ms", Lower),
    ("antiphish.engine.self_ms", "ms", Lower),
    ("antiphish.engine.openphish.busy_ms", "ms", Lower),
    ("transport.fetches", "count", Lower),
    ("transport.errors", "count", Lower),
    ("transport.busy_ms", "ms", Lower),
    ("transport.ns_per_fetch", "ns", Lower),
    ("core.monitor.busy_ms", "ms", Lower),
    ("simnet.trace.scan_ms", "ms", Lower),
    ("core.world.teardown_ms", "ms", Lower),
    ("browser.render_cache.hit_ratio", "ratio", Higher),
    ("antiphish.verdict_store.hit_ratio", "ratio", Higher),
];

/// Measured on the one full-volume run only.
const TABLE2_ONLY: [(&str, &str, Better); 2] = [
    ("simnet.trace.entries", "count", Lower),
    ("html.parse_us_per_page", "us", Lower),
];

/// Reported by every workload's traced run: traced wall time, the part
/// of it outside every named layer, and traced wall minus the untraced
/// median iteration.
const ATTRIBUTION: [(&str, &str, Better); 3] = [
    ("traced_wall_ms", "ms", Lower),
    ("unattributed_ms", "ms", Lower),
    ("trace_overhead_ms", "ms", Lower),
];

const RUNNER: [(&str, &str, Better); 2] = [
    ("simnet.runner.busy_ms", "ms", Lower),
    ("simnet.runner.efficiency", "ratio", Higher),
];

const FLEET: [(&str, &str, Better); 14] = [
    ("phishgen.sites.busy_ms", "ms", Lower),
    ("antiphish.fleet.busy_ms", "ms", Lower),
    ("antiphish.fleet.self_ms", "ms", Lower),
    ("antiphish.fleet.teardown_ms", "ms", Lower),
    ("transport.fetches", "count", Lower),
    ("transport.busy_ms", "ms", Lower),
    ("antiphish.fleet.stolen", "count", Lower),
    ("antiphish.fleet.spilled", "count", Lower),
    ("antiphish.fleet.shed", "count", Lower),
    ("antiphish.fleet.throttled", "count", Lower),
    ("antiphish.engine.dedup_hits", "count", Higher),
    ("simnet.sched.scheduled", "count", Lower),
    ("simnet.sched.dispatched", "count", Lower),
    ("simnet.sched.cancelled", "count", Lower),
];

const FEED: [(&str, &str, Better); 6] = [
    ("feedserve.scenario_ms", "ms", Lower),
    ("feedserve.feed_build_ms", "ms", Lower),
    ("feedserve.teardown_ms", "ms", Lower),
    ("feedserve.server.diffs", "count", Lower),
    ("feedserve.server.full_resets", "count", Lower),
    ("feedserve.server.bytes", "bytes", Lower),
];

const FEED_EXACT: [(&str, &str, Better); 2] = [
    ("feedserve.population.exact_ms", "ms", Lower),
    ("feedserve.population.exact_fetches", "count", Lower),
];

const FEED_COHORT: [(&str, &str, Better); 4] = [
    ("feedserve.cohort.build_ms", "ms", Lower),
    ("feedserve.cohort.walk_ms", "ms", Lower),
    ("feedserve.cohort.rows", "count", Lower),
    ("feedserve.cohort.state_bytes", "bytes", Lower),
];

/// The per-layer metrics of `workload`'s traced run, in report order.
pub fn layers(workload: &str) -> Vec<Layer> {
    let with = |groups: &[&[(&'static str, &'static str, Better)]], moves: &'static str| {
        groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|&(name, unit, better)| Layer {
                name,
                unit,
                better,
                moves,
            })
            .collect::<Vec<_>>()
    };
    let mut out = match workload {
        "table2_full" => with(&[&MAIN_RUN, &TABLE2_ONLY, &ATTRIBUTION], "iter_s"),
        "seed_sweep" => with(&[&MAIN_RUN, &RUNNER, &ATTRIBUTION], "work_per_s"),
        "fleet_burst" => with(&[&FLEET, &RUNNER, &ATTRIBUTION], "work_per_s"),
        "feed_sync" => with(
            &[&FEED, &FEED_EXACT, &FEED_COHORT, &ATTRIBUTION],
            "work_per_s",
        ),
        _ => Vec::new(),
    };
    // The cohort leg dominates feed_sync's iteration time; memory-side
    // layers move the peak resident set.
    for l in &mut out {
        match l.name {
            "simnet.trace.entries" | "feedserve.cohort.state_bytes" => l.moves = "peak_rss_mb",
            "feedserve.cohort.build_ms" | "feedserve.cohort.walk_ms" => l.moves = "iter_s",
            _ => {}
        }
    }
    out
}

/// Every per-layer metric as reported: `(workload.name, layer)`.
pub fn per_layer() -> Vec<(String, Layer)> {
    WORKLOADS
        .iter()
        .flat_map(|(w, _)| {
            layers(w)
                .into_iter()
                .map(move |l| (format!("{w}.{}", l.name), l))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` as it must read.
    pub fn benchmark_json(run_seconds: u64) -> String {
        let mut s = String::from("{\n  \"command\": [\"python3\", \"benchmark/run.py\"],\n");
        s.push_str("  \"paths\": [\"benchmark\"],\n");
        s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
        s.push_str("  \"workloads\": [\n");
        let rows: Vec<String> = WORKLOADS
            .iter()
            .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n  \"end_to_end\": [\n");
        let rows: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.key(),
                    m.bound
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n  \"per_layer\": [\n");
        let rows: Vec<String> = per_layer()
            .iter()
            .map(|(name, l)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    l.unit,
                    l.better.key()
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(per_layer().into_iter().map(|(n, _)| n));
        for n in names {
            assert!(valid_name(&n), "bad metric name {n:?}");
            assert!(seen.insert(n.clone()), "{n} used twice");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn every_layer_maps_to_an_end_to_end_metric_of_its_workload() {
        for (w, _) in WORKLOADS {
            let layers = layers(w);
            assert!(!layers.is_empty(), "{w} has no layers");
            for l in layers {
                assert!(
                    END_TO_END.iter().any(|m| m.name == l.moves),
                    "{w}.{} moves unknown metric {}",
                    l.name,
                    l.moves
                );
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let run_seconds = serde_json::from_str::<serde_json::Value>(&text)
            .expect("valid JSON")
            .get("run_seconds")
            .and_then(|v| v.as_u64())
            .expect("run_seconds");
        assert_eq!(
            text,
            benchmark_json(run_seconds),
            "regenerate BENCHMARK.json"
        );
    }
}
