//! `fleet_burst`: the crawl-fleet sweep's four paper points (64 and 256
//! workers, FIFO and feed-reputation queues) over a bursty report
//! stream.

use crate::bench::{threads, Layers, Traced, Workload};
use crate::table2::ms;
use crate::trace::{FetchStats, Recorder, TimedTransport};
use phishsim_antiphish::fleet::{run_fleet, FleetResult, ReportArrival};
use phishsim_antiphish::Engine;
use phishsim_browser::transport::DirectTransport;
use phishsim_core::experiment::{
    fleet_points, run_fleet_point, run_fleet_sweep_with_threads, FleetPoint, FleetSweepConfig,
    FleetSweepResult,
};
use phishsim_core::run_sweep_with_threads;
use phishsim_http::{Url, VirtualHosting};
use phishsim_phishgen::{
    Brand, CompromisedSite, EvasionTechnique, FakeSiteGenerator, GateConfig, PhishKit,
};
use phishsim_simnet::{DetRng, ObsSink, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// The fleet workload.
pub struct FleetBurst {
    cfg: FleetSweepConfig,
    threads: usize,
    /// The sweep's record on one thread; every iteration must equal it.
    reference: String,
}

impl FleetBurst {
    /// Set up `base` (its seed replaced by `seed`).
    pub fn new(seed: u64, base: FleetSweepConfig) -> Self {
        let cfg = FleetSweepConfig { seed, ..base };
        let reference = record(&run_fleet_sweep_with_threads(&cfg, 1));
        FleetBurst {
            cfg,
            threads: threads(),
            reference,
        }
    }
}

fn record(r: &FleetSweepResult) -> String {
    serde_json::to_string(r).expect("fleet record serializes")
}

impl Workload for FleetBurst {
    type Output = FleetSweepResult;

    fn run(&self) -> FleetSweepResult {
        run_fleet_sweep_with_threads(&self.cfg, self.threads)
    }

    fn check(&self, out: &FleetSweepResult) -> Result<(), String> {
        if let Some(p) = out
            .points
            .iter()
            .find(|p| p.completed != self.cfg.reports as u64)
        {
            return Err(format!(
                "{} workers/{}: {} of {} reports completed",
                p.workers, p.discipline, p.completed, self.cfg.reports
            ));
        }
        if record(out) != self.reference {
            return Err("fleet record differs from the 1-thread sweep".into());
        }
        Ok(())
    }

    fn work_units(&self, out: &FleetSweepResult) -> f64 {
        out.points.iter().map(|p| p.completed as f64).sum()
    }

    fn traced(&self, reference: &FleetSweepResult) -> Result<Traced, String> {
        let points = fleet_points(&self.cfg);
        let wall = Instant::now();
        let traced = run_sweep_with_threads(&points, self.threads, |p| traced_point(&self.cfg, p));
        let wall_ns = wall.elapsed().as_nanos() as u64;

        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut busy_ns = 0;
        let mut attributed_ns = 0;
        for (t, want) in traced.iter().zip(&reference.points) {
            let r = &t.result;
            let c = |k: &str| r.counters.get(k);
            let same = r.outcomes.len() as u64 == want.completed
                && c("fleet.stolen") == want.stolen
                && c("fleet.spilled") == want.spilled
                && c("fleet.shed") == want.shed
                && c("fleet.throttled") == want.throttled
                && r.deepest_queue == want.deepest_queue
                && r.makespan.as_mins() == want.makespan_mins
                && r.outcomes
                    .iter()
                    .filter(|o| o.detected_at.is_some())
                    .count() as u64
                    == want.detections;
            if !same {
                return Err(format!(
                    "traced fleet diverged at {} workers/{}",
                    want.workers, want.discipline
                ));
            }
            let totals = t.rec.totals();
            let fleet = totals.get("antiphish.fleet").copied().unwrap_or_default();
            let busy = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.busy_ns));
            for (name, v) in [
                ("phishgen.sites.busy_ms", busy("phishgen.sites")),
                ("antiphish.fleet.busy_ms", ms(fleet.busy_ns)),
                ("antiphish.fleet.self_ms", ms(fleet.self_ns)),
                (
                    "antiphish.fleet.teardown_ms",
                    busy("antiphish.fleet.teardown"),
                ),
                ("transport.fetches", t.fetch.fetches as f64),
                ("transport.busy_ms", ms(t.fetch.busy_ns)),
                ("antiphish.fleet.stolen", c("fleet.stolen") as f64),
                ("antiphish.fleet.spilled", c("fleet.spilled") as f64),
                ("antiphish.fleet.shed", c("fleet.shed") as f64),
                ("antiphish.fleet.throttled", c("fleet.throttled") as f64),
            ] {
                *sums.entry(name).or_default() += v;
            }
            busy_ns += t.closure_ns;
            attributed_ns += t.rec.attributed_ns();
        }

        // Event counts from a separate pass with a memory sink, so the
        // sink's cost never lands in the timed spans above.
        let counted = run_sweep_with_threads(&points, self.threads, |p| {
            let obs = ObsSink::memory();
            run_fleet_point(&self.cfg, p, &obs);
            let m = obs.buffer().expect("memory sink has a buffer").metrics();
            [
                (
                    "antiphish.engine.dedup_hits",
                    m.counter("engine.dedup_hits"),
                ),
                ("simnet.sched.scheduled", m.counter("sched.scheduled")),
                ("simnet.sched.dispatched", m.counter("sched.dispatched")),
                ("simnet.sched.cancelled", m.counter("sched.cancelled")),
            ]
        });
        for point in counted {
            for (name, v) in point {
                *sums.entry(name).or_default() += v as f64;
            }
        }

        let mut layers: Layers = sums.into_iter().collect();
        layers.push(("simnet.runner.busy_ms", ms(busy_ns)));
        layers.push((
            "simnet.runner.efficiency",
            busy_ns as f64 / (self.threads as f64 * wall_ns as f64),
        ));
        layers.push(("traced_wall_ms", ms(wall_ns)));
        layers.push(("unattributed_ms", ms(busy_ns - attributed_ns)));
        Ok(Traced {
            layers,
            spans: traced.into_iter().map(|t| t.rec).collect(),
        })
    }
}

/// One traced fleet point.
struct TracedPoint {
    result: FleetResult,
    rec: Recorder,
    fetch: FetchStats,
    closure_ns: u64,
}

/// `run_fleet_point` up to the fleet result, rebuilt from public
/// functions with spans around site generation, the fleet run and the
/// teardown, and a [`TimedTransport`] between the fleet and the sites.
fn traced_point(cfg: &FleetSweepConfig, point: &FleetPoint) -> TracedPoint {
    let t0 = Instant::now();
    let mut rec = Recorder::new();
    let mut fetch = FetchStats::default();
    let rng = DetRng::new(cfg.seed);
    let (vhosts, arrivals) = rec.span("phishgen.sites", || {
        let (vhosts, urls) = deploy_sites(cfg, &rng);
        let arrivals = build_arrivals(cfg, &urls, &rng);
        (vhosts, arrivals)
    });
    let mut transport = DirectTransport::new(vhosts);
    let mut fleet_cfg = cfg.fleet.clone();
    fleet_cfg.workers = point.workers;
    fleet_cfg.discipline = point.discipline;

    rec.begin("antiphish.fleet", fetch.busy_ns);
    let mut engine = Engine::new(cfg.engine, &rng);
    let fleet_rng = rng.fork(&format!(
        "fleet:{}:{}",
        point.workers,
        point.discipline.key()
    ));
    let result = {
        let mut t = TimedTransport::new(&mut transport, &mut fetch);
        run_fleet(
            &mut engine,
            &mut t,
            &fleet_cfg,
            &arrivals,
            &fleet_rng,
            &ObsSink::Null,
        )
    };
    rec.end(fetch.busy_ns);
    rec.span("antiphish.fleet.teardown", || {
        drop((engine, transport, arrivals));
    });
    TracedPoint {
        result,
        rec,
        fetch,
        closure_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// The fleet sweep's site population: `sites` compromised hosts cycling
/// through the main-experiment techniques and both brands.
fn deploy_sites(cfg: &FleetSweepConfig, rng: &DetRng) -> (VirtualHosting, Vec<Url>) {
    let techniques = [
        EvasionTechnique::None,
        EvasionTechnique::AlertBox,
        EvasionTechnique::SessionGate,
    ];
    let brands = [Brand::PayPal, Brand::Facebook];
    let mut vhosts = VirtualHosting::new();
    let mut urls = Vec::with_capacity(cfg.sites);
    for i in 0..cfg.sites {
        let host = format!("fleet-target-{i}.com");
        let site_rng = rng.fork(&format!("site:{host}"));
        let bundle = FakeSiteGenerator::new(&site_rng).generate(&host);
        let kit = PhishKit::new(
            brands[i % brands.len()],
            GateConfig::simple(techniques[i % techniques.len()]),
        );
        urls.push(kit.phishing_url(&host));
        vhosts.install(
            &host,
            Box::new(CompromisedSite::new(bundle, kit, &site_rng)),
        );
    }
    (vhosts, urls)
}

/// The fleet sweep's feeds and their reputations.
const FEEDS: [(&str, u16); 4] = [
    ("user-report", 120),
    ("honeypot", 380),
    ("partner-feed", 650),
    ("takedown-vendor", 920),
];

/// The fleet sweep's arrival stream: a steady phase plus a burst
/// centred at half the window.
fn build_arrivals(cfg: &FleetSweepConfig, urls: &[Url], rng: &DetRng) -> Vec<ReportArrival> {
    let mut rng = rng.fork("fleet-arrivals");
    let window_ms = cfg.window.as_millis().max(1);
    let burst_n = ((cfg.reports as f64) * cfg.burst_fraction) as usize;
    let burst_len = ((window_ms as f64) * cfg.burst_window_fraction).max(1.0) as u64;
    let burst_start = window_ms / 2;
    let mut ats: Vec<u64> = Vec::with_capacity(cfg.reports);
    for _ in 0..cfg.reports - burst_n {
        ats.push(rng.range(0..window_ms));
    }
    for _ in 0..burst_n {
        ats.push(burst_start + rng.range(0..burst_len));
    }
    ats.sort_unstable();
    ats.iter()
        .enumerate()
        .map(|(i, &at)| {
            let (feed, reputation) = FEEDS[i % FEEDS.len()];
            ReportArrival {
                url: urls[i % urls.len()].clone(),
                at: SimTime::from_millis(at),
                feed: feed.to_string(),
                reputation,
            }
        })
        .collect()
}
