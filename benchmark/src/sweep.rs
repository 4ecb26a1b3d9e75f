//! `seed_sweep`: a sweep of the fast main-experiment configuration
//! (no background volume) over consecutive seeds, on the shared sweep
//! runner.

use crate::bench::{threads, Layers, Traced, Workload};
use crate::table2::{ms, traced_main, RunSummary};
use phishsim_core::experiment::{run_main_experiment, MainConfig};
use phishsim_core::run_sweep_with_threads;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one seed's run contributes to the sweep record.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedResult {
    seed: u64,
    run: RunSummary,
    observations: usize,
}

fn one_seed(seed: u64) -> SeedResult {
    let r = run_main_experiment(&MainConfig {
        seed,
        ..MainConfig::fast()
    });
    SeedResult {
        seed,
        run: RunSummary::of(&r),
        observations: r.observations.len(),
    }
}

/// The seed-sweep workload.
pub struct SeedSweep {
    seeds: Vec<u64>,
    threads: usize,
    /// The same sweep on one thread, the reference every iteration must equal.
    reference: Vec<SeedResult>,
}

impl SeedSweep {
    /// Set up a sweep of `runs` seeds starting at `seed`.
    pub fn new(seed: u64, runs: usize) -> Self {
        let seeds: Vec<u64> = (0..runs as u64).map(|i| seed.wrapping_add(i)).collect();
        let reference = run_sweep_with_threads(&seeds, 1, |&s| one_seed(s));
        SeedSweep {
            seeds,
            threads: threads(),
            reference,
        }
    }
}

impl Workload for SeedSweep {
    type Output = Vec<SeedResult>;

    fn run(&self) -> Vec<SeedResult> {
        run_sweep_with_threads(&self.seeds, self.threads, |&s| one_seed(s))
    }

    fn check(&self, out: &Vec<SeedResult>) -> Result<(), String> {
        if out.len() != self.reference.len() {
            return Err("sweep lost runs".into());
        }
        if let Some((a, _)) = out.iter().zip(&self.reference).find(|(a, b)| a != b) {
            return Err(format!("seed {} differs from the 1-thread sweep", a.seed));
        }
        Ok(())
    }

    fn work_units(&self, out: &Vec<SeedResult>) -> f64 {
        out.len() as f64
    }

    fn traced(&self, reference: &Vec<SeedResult>) -> Result<Traced, String> {
        let wall = Instant::now();
        let per_seed = run_sweep_with_threads(&self.seeds, self.threads, |&seed| {
            let t0 = Instant::now();
            let config = MainConfig {
                seed,
                ..MainConfig::fast()
            };
            let t = traced_main(&config);
            (seed, t, t0.elapsed().as_nanos() as u64)
        });
        let wall_ns = wall.elapsed().as_nanos() as u64;

        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut busy_ns = 0u64;
        let mut attributed_ns = 0u64;
        for ((seed, t, closure_ns), want) in per_seed.iter().zip(reference) {
            if *seed != want.seed {
                return Err("traced sweep lost its seed order".into());
            }
            t.matches(&want.run)
                .map_err(|e| format!("seed {seed}: {e}"))?;
            for (name, v) in t.layers() {
                *sums.entry(name).or_default() += v;
            }
            busy_ns += closure_ns;
            attributed_ns += t.rec.attributed_ns();
        }
        // Ratios are not additive: per-fetch cost comes from the summed
        // transport totals, cache hit ratios average over seeds.
        let n = per_seed.len().max(1) as f64;
        let ns_per_fetch = sums["transport.busy_ms"] * 1e6 / sums["transport.fetches"].max(1.0);
        let mut layers: Layers = sums
            .into_iter()
            .filter(|(name, _)| *name != "simnet.trace.entries")
            .map(|(name, v)| match name {
                "transport.ns_per_fetch" => (name, ns_per_fetch),
                "browser.render_cache.hit_ratio" | "antiphish.verdict_store.hit_ratio" => {
                    (name, v / n)
                }
                _ => (name, v),
            })
            .collect();
        layers.push(("simnet.runner.busy_ms", ms(busy_ns)));
        layers.push((
            "simnet.runner.efficiency",
            busy_ns as f64 / (self.threads as f64 * wall_ns as f64),
        ));
        layers.push(("traced_wall_ms", ms(wall_ns)));
        layers.push(("unattributed_ms", ms(busy_ns - attributed_ns)));
        Ok(Traced {
            layers,
            spans: per_seed.into_iter().map(|(_, t, _)| t.rec).collect(),
        })
    }
}
