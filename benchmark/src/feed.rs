//! `feed_sync`: the Safe-Browsing feed-distribution scenario
//! (`run_sb_scale_with_threads`) run twice per iteration: with the exact
//! per-client walker, and in cohort mode at a population ten times
//! larger. The two modes share the feedserve layer, so a change that
//! speeds one and slows the other shows in the same iteration. (At 40
//! times, 10M clients, the two-thread cohort build's time is bimodal on
//! a shared 2-core host and spreads by more than the metric bounds.)

use crate::bench::{threads, Traced, Workload};
use crate::table2::ms;
use crate::trace::Recorder;
use phishsim_core::experiment::sb_scale::{delays_from_result, TechniqueDelay};
use phishsim_core::experiment::{run_main_experiment, run_sb_scale_with_threads};
use phishsim_core::experiment::{SbScaleConfig, SbScaleResult};
use phishsim_feedserve::{
    run_population_with_threads, CohortSpec, CohortTable, FeedServer, ListingEvent,
    PopulationReport,
};
use phishsim_simnet::{DetRng, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// The scenario at `seed` for `clients` clients, exact or in cohort
/// mode: feed content, client schedules and the main-experiment leg
/// all take the seed.
fn scenario(seed: u64, clients: usize, cohorts: bool) -> SbScaleConfig {
    let mut cfg = SbScaleConfig::paper();
    cfg.seed = seed;
    cfg.main.seed = seed;
    cfg.population.seed = seed;
    cfg.population.clients = clients;
    cfg.population.cohorts = cohorts.then(CohortSpec::default);
    cfg
}

/// The feed-distribution workload.
pub struct FeedSync {
    exact: SbScaleConfig,
    cohort: SbScaleConfig,
    threads: usize,
    /// Cohort mode at the exact population: the exact leg's guard.
    cohort_at_exact: PopulationReport,
}

impl FeedSync {
    /// Set up the exact leg at `exact_clients` and the cohort leg at
    /// `cohort_clients`.
    pub fn new(seed: u64, exact_clients: usize, cohort_clients: usize) -> Self {
        let threads = threads();
        let cohort_at_exact =
            run_sb_scale_with_threads(&scenario(seed, exact_clients, true), threads).population;
        FeedSync {
            exact: scenario(seed, exact_clients, false),
            cohort: scenario(seed, cohort_clients, true),
            threads,
            cohort_at_exact,
        }
    }
}

/// One iteration's two legs.
pub struct FeedLegs {
    exact: SbScaleResult,
    exact_s: f64,
    cohort: SbScaleResult,
}

/// Every event's p50/p95/p99 blind window in `a` must sit within one
/// protected-fraction sample step of `b`'s: the cohort quantization
/// bound the cohort sweep guards.
fn within_one_step(
    a: &PopulationReport,
    b: &PopulationReport,
    step: SimDuration,
) -> Result<(), String> {
    let step = step.as_mins() as f64;
    if a.events.len() != b.events.len() {
        return Err("event lists differ".into());
    }
    for (x, y) in a.events.iter().zip(&b.events) {
        for (p, dx, dy) in [
            ("p50", x.p50_exposure_mins, y.p50_exposure_mins),
            ("p95", x.p95_exposure_mins, y.p95_exposure_mins),
            ("p99", x.p99_exposure_mins, y.p99_exposure_mins),
        ] {
            if x.label != y.label || (dx - dy).abs() > step {
                return Err(format!(
                    "{} {p}: {dx:.2} vs {dy:.2} min, more than one {step} min step",
                    x.label
                ));
            }
        }
    }
    Ok(())
}

impl Workload for FeedSync {
    type Output = FeedLegs;

    fn run(&self) -> FeedLegs {
        let t0 = Instant::now();
        let exact = run_sb_scale_with_threads(&self.exact, self.threads);
        let exact_s = t0.elapsed().as_secs_f64();
        let cohort = run_sb_scale_with_threads(&self.cohort, self.threads);
        FeedLegs {
            exact,
            exact_s,
            cohort,
        }
    }

    fn check(&self, out: &FeedLegs) -> Result<(), String> {
        let (exact, cohort) = (&out.exact.population, &out.cohort.population);
        for (pop, cfg) in [(exact, &self.exact), (cohort, &self.cohort)] {
            if pop.clients != cfg.population.clients
                || pop.fetches == 0
                || pop.cohorts.is_some() != cfg.population.cohorts.is_some()
            {
                return Err(format!("{} clients, {} fetches", pop.clients, pop.fetches));
            }
        }
        let step = self.exact.population.sample_every;
        within_one_step(exact, &self.cohort_at_exact, step)?;
        within_one_step(cohort, exact, step)
    }

    /// Accepted update fetches of the exact walker...
    fn work_units(&self, out: &FeedLegs) -> f64 {
        out.exact.population.fetches as f64
    }

    /// ...per second of its leg; the cohort leg dominates `iter_s`.
    fn work_secs(&self, out: &FeedLegs) -> Option<f64> {
        Some(out.exact_s)
    }

    fn traced(&self, reference: &FeedLegs) -> Result<Traced, String> {
        let wall = Instant::now();
        let mut rec = Recorder::new();
        let mut probe_ns = 0;
        let mut legs = Vec::new();
        for (cfg, want) in [
            (&self.exact, &reference.exact),
            (&self.cohort, &reference.cohort),
        ] {
            let delays = rec.span("feedserve.scenario", || {
                delays_from_result(&run_main_experiment(&cfg.main))
            });
            let (server, events) = rec.span("feedserve.feed_build", || build_feed(cfg, &delays));
            let cohort = cfg.population.cohorts.is_some();
            // Cohort construction happens inside `run_population_with_threads`,
            // so it is timed here on its own, as the median of three builds
            // (its time on two threads is bimodal on a shared host), and
            // left out of the traced wall.
            let table = cohort.then(|| {
                let t0 = Instant::now();
                let mut builds: Vec<(u64, usize, u64)> = (0..3)
                    .map(|_| {
                        let t0 = Instant::now();
                        let t = CohortTable::from_population(
                            &cfg.population,
                            server.config().min_wait,
                            self.threads,
                        );
                        (t0.elapsed().as_nanos() as u64, t.len(), t.state_bytes())
                    })
                    .collect();
                probe_ns += t0.elapsed().as_nanos() as u64;
                builds.sort_unstable();
                builds[1]
            });
            let span = if cohort {
                "feedserve.cohort"
            } else {
                "feedserve.exact"
            };
            let population = rec.span(span, || {
                run_population_with_threads(&cfg.population, &server, &events, self.threads)
            });
            let same = serde_json::to_string(&population).ok()
                == serde_json::to_string(&want.population).ok()
                && server.current_version() == want.versions_published;
            if !same {
                return Err("traced feed scenario diverged from run_sb_scale".into());
            }
            let counters = population.counters.clone();
            rec.span("feedserve.teardown", || {
                drop((server, events, population, delays))
            });
            legs.push((counters, table));
        }
        let wall_ns = wall.elapsed().as_nanos() as u64 - probe_ns;

        let totals = rec.totals();
        let busy = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.busy_ns));
        let c = |k: &str| legs.iter().map(|(c, _)| c.get(k) as f64).sum::<f64>();
        let (build_ns, rows, state_bytes) = legs[1].1.expect("cohort leg built a table");
        Ok(Traced {
            layers: vec![
                ("feedserve.scenario_ms", busy("feedserve.scenario")),
                ("feedserve.feed_build_ms", busy("feedserve.feed_build")),
                ("feedserve.teardown_ms", busy("feedserve.teardown")),
                ("feedserve.server.diffs", c("update.diff")),
                ("feedserve.server.full_resets", c("update.full_reset")),
                (
                    "feedserve.server.bytes",
                    c("bytes.diff") + c("bytes.full_reset"),
                ),
                ("feedserve.population.exact_ms", busy("feedserve.exact")),
                (
                    "feedserve.population.exact_fetches",
                    reference.exact.population.fetches as f64,
                ),
                ("feedserve.cohort.build_ms", ms(build_ns)),
                (
                    "feedserve.cohort.walk_ms",
                    busy("feedserve.cohort") - ms(build_ns),
                ),
                ("feedserve.cohort.rows", rows as f64),
                ("feedserve.cohort.state_bytes", state_bytes as f64),
                ("traced_wall_ms", ms(wall_ns)),
                (
                    "unattributed_ms",
                    ms(wall_ns.saturating_sub(rec.attributed_ns())),
                ),
            ],
            spans: vec![rec],
        })
    }
}

/// FNV-1a over the label with the top bit set: the synthetic full hash
/// the scenario lists for each technique (background hashes keep the
/// top bit clear).
fn event_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | (1 << 63)
}

/// The scenario's feed timeline: baseline hashes, background churn and
/// one listing per technique, as `run_sb_scale_with_threads` builds it.
fn build_feed(cfg: &SbScaleConfig, delays: &[TechniqueDelay]) -> (FeedServer, Vec<ListingEvent>) {
    let mut rng = DetRng::new(cfg.seed).fork("sb-scale-feed");
    let mut background = || -> u64 { rng.range(0..u64::MAX >> 1) };
    let horizon = SimTime::ZERO + cfg.population.horizon;
    let mut additions: BTreeMap<SimTime, Vec<u64>> = BTreeMap::new();
    let mut events = Vec::with_capacity(delays.len());
    for d in delays {
        let hash = event_hash(&d.technique);
        let listed_at = match d.median_listing_delay_mins {
            None => cfg.report_at,
            Some(mins) => {
                let at = cfg.report_at + SimDuration::from_mins(mins);
                if at <= horizon {
                    additions.entry(at).or_default().push(hash);
                }
                at
            }
        };
        events.push(ListingEvent {
            label: d.technique.clone(),
            full_hash: hash,
            listed_at,
        });
    }
    let mut churn_at = SimTime::ZERO + cfg.churn_every;
    while churn_at <= horizon {
        let batch: Vec<u64> = (0..cfg.churn_add).map(|_| background()).collect();
        additions.entry(churn_at).or_default().extend(batch);
        churn_at += cfg.churn_every;
    }
    let mut server = FeedServer::new(cfg.server.clone());
    let mut feed: Vec<u64> = (0..cfg.baseline_hashes).map(|_| background()).collect();
    feed.sort_unstable();
    server.publish(feed.iter().copied(), SimTime::ZERO);
    for (at, mut batch) in additions {
        feed.append(&mut batch);
        server.publish(feed.iter().copied(), at);
    }
    (server, events)
}
