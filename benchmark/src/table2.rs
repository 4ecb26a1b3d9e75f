//! `table2_full`: the paper's Table 2 (main experiment, 105 reports,
//! full background volume), and the traced re-run that reproduces it
//! from the simulator's public functions.

use crate::bench::{Layers, Traced, Workload};
use crate::trace::{FetchStats, Recorder, TimedTransport};
use phishsim_antiphish::{
    render_cache_enabled, shared_cache_enabled, Engine, EngineId, EngineProfile, FeedNetwork,
    RunCaches,
};
use phishsim_core::experiment::main_experiment::assignment;
use phishsim_core::experiment::{register_spread, run_main_experiment, synth_domains};
use phishsim_core::experiment::{MainConfig, MainResult};
use phishsim_core::monitor::monitor_listings;
use phishsim_core::tables::{cell_key, Table2};
use phishsim_core::{deploy_armed_site, World};
use phishsim_html::{Document, PageSummary};
use phishsim_phishgen::{Brand, EvasionTechnique};
use phishsim_simnet::{Ipv4Sim, SimDuration, SimTime, TraceEvent, TraceKind};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Where the committed Table 2 record lives, relative to the repository root.
pub const TABLE2_RECORD: &str = "results/table2.json";

/// What a main-experiment run must reproduce exactly: its Table 2, its
/// traffic fraction and the length of its access log.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    table: String,
    traffic_within_2h: f64,
    log_lines: usize,
}

impl RunSummary {
    fn new(table: &Table2, traffic_within_2h: f64, log_lines: usize) -> Self {
        RunSummary {
            table: serde_json::to_string(table).expect("Table 2 serializes"),
            traffic_within_2h,
            log_lines,
        }
    }

    /// The summary of an untraced run.
    pub fn of(r: &MainResult) -> Self {
        Self::new(&r.table, r.traffic_within_2h, r.world.log.len())
    }
}

/// The Table 2 workload.
pub struct Table2Full {
    config: MainConfig,
    committed: Committed,
    /// A run of the same seed at set-up: every iteration must repeat it.
    reference: RunSummary,
}

impl Table2Full {
    /// Set up at `seed` with background volume `volume_scale` (1.0 is
    /// the paper's), checked against the committed record at `record`
    /// and against a set-up run of the same seed.
    pub fn new(seed: u64, record: &str, volume_scale: f64) -> Result<Self, String> {
        let config = MainConfig {
            seed,
            volume_scale,
            ..MainConfig::paper()
        };
        let text = std::fs::read_to_string(record).map_err(|e| format!("reading {record}: {e}"))?;
        let committed = Committed::parse(&text)?;
        let reference = RunSummary::of(&run_main_experiment(&config));
        Ok(Table2Full {
            config,
            committed,
            reference,
        })
    }
}

/// The committed Table 2 record's cells and total.
pub struct Committed {
    cells: Value,
    total: Value,
    seed: u64,
}

impl Committed {
    /// Parse `results/table2.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let record: Value =
            serde_json::from_str(text).map_err(|e| format!("parsing {TABLE2_RECORD}: {e:?}"))?;
        let table = record.get("table");
        let field = |k: &str| table.and_then(|t| t.get(k)).cloned();
        match (
            field("cells"),
            field("total"),
            record.get("seed").and_then(Value::as_u64),
        ) {
            (Some(cells), Some(total), Some(seed)) => Ok(Committed { cells, total, seed }),
            _ => Err(format!("{TABLE2_RECORD} lacks seed, cells or total")),
        }
    }
}

/// Check a Table 2 against the committed record: cell for cell at the
/// record's seed; at any other seed, the paper's shape as the record
/// shows it: GSB detects all six alert-box URLs and no engine detects a
/// reCAPTCHA-gated one.
pub fn check_table(table: &Table2, seed: u64, committed: &Committed) -> Result<(), String> {
    if table.total.total != 105 {
        return Err(format!("{} reports, expected 105", table.total.total));
    }
    let cells = serde_json::to_value(&table.cells);
    if seed == committed.seed {
        if cells != committed.cells || serde_json::to_value(&table.total) != committed.total {
            return Err(format!(
                "Table 2 differs from {TABLE2_RECORD}: total {}/{}",
                table.total.hits, table.total.total
            ));
        }
        return Ok(());
    }
    for brand in [Brand::Facebook, Brand::PayPal] {
        let shape = EngineId::main_experiment()
            .into_iter()
            .map(|e| (e, EvasionTechnique::CaptchaGate))
            .chain([(EngineId::Gsb, EvasionTechnique::AlertBox)]);
        for (engine, technique) in shape {
            let key = cell_key(engine, brand, technique);
            if cells.get(&key) != committed.cells.get(&key) {
                let c = table.cell(engine, brand, technique);
                return Err(format!(
                    "{key}: {}/{} breaks the paper's shape",
                    c.hits, c.total
                ));
            }
        }
    }
    Ok(())
}

impl Workload for Table2Full {
    type Output = MainResult;

    fn run(&self) -> MainResult {
        run_main_experiment(&self.config)
    }

    fn check(&self, out: &MainResult) -> Result<(), String> {
        if RunSummary::of(out) != self.reference {
            return Err("run differs from the set-up run of the same seed".into());
        }
        check_table(&out.table, self.config.seed, &self.committed)
    }

    /// Access-log lines: one per request the hosting farm served.
    fn work_units(&self, out: &MainResult) -> f64 {
        out.world.log.len() as f64
    }

    fn traced(&self, reference: &MainResult) -> Result<Traced, String> {
        let t = traced_main(&self.config);
        t.matches(&RunSummary::of(reference))?;
        let mut layers = t.layers();
        layers.push(("html.parse_us_per_page", html_parse_us(&t.fetch.bodies)));
        layers.push(("traced_wall_ms", ms(t.wall_ns)));
        layers.push(("unattributed_ms", ms(t.wall_ns - t.rec.attributed_ns())));
        Ok(Traced {
            layers,
            spans: vec![t.rec],
        })
    }
}

/// What the traced re-run measured in one main-experiment run.
pub struct TracedMain {
    /// Table 2, for the transparency check.
    pub table: Table2,
    /// Mean fraction of traffic within 2 h of the report.
    pub traffic_within_2h: f64,
    /// The run's spans.
    pub rec: Recorder,
    /// What the transport wrapper saw.
    pub fetch: FetchStats,
    /// Inclusive engine time on OpenPhish reports, ns.
    pub openphish_ns: u64,
    /// Access-log lines when the run ended.
    pub trace_entries: u64,
    /// Render-cache and verdict-store hits and misses.
    pub caches: BTreeMap<String, u64>,
    /// Wall time of the whole run, ns.
    pub wall_ns: u64,
}

impl TracedMain {
    /// Fail unless the traced run reproduced `untraced` exactly.
    pub fn matches(&self, untraced: &RunSummary) -> Result<(), String> {
        let traced = RunSummary::new(
            &self.table,
            self.traffic_within_2h,
            self.trace_entries as usize,
        );
        if &traced != untraced {
            return Err("traced re-run diverged from run_main_experiment".into());
        }
        Ok(())
    }

    /// The per-layer metrics of this run.
    pub fn layers(&self) -> Layers {
        let totals = self.rec.totals();
        let busy = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.busy_ns));
        let engine = totals.get("antiphish.engine").copied().unwrap_or_default();
        let ratio = |layer: &str| {
            let hit = self
                .caches
                .get(&format!("{layer}.hit"))
                .copied()
                .unwrap_or(0);
            let miss = self
                .caches
                .get(&format!("{layer}.miss"))
                .copied()
                .unwrap_or(0);
            hit as f64 / (hit + miss).max(1) as f64
        };
        vec![
            ("core.world.build_ms", busy("core.world.build")),
            ("core.domains.busy_ms", busy("core.domains")),
            (
                "core.deploy.calls",
                totals.get("core.deploy").map_or(0.0, |t| t.calls as f64),
            ),
            ("core.deploy.busy_ms", busy("core.deploy")),
            ("core.report.busy_ms", busy("core.report")),
            ("antiphish.engine.reports", engine.calls as f64),
            ("antiphish.engine.busy_ms", ms(engine.busy_ns)),
            ("antiphish.engine.self_ms", ms(engine.self_ns)),
            ("antiphish.engine.openphish.busy_ms", ms(self.openphish_ns)),
            ("transport.fetches", self.fetch.fetches as f64),
            ("transport.errors", self.fetch.errors as f64),
            ("transport.busy_ms", ms(self.fetch.busy_ns)),
            (
                "transport.ns_per_fetch",
                self.fetch.busy_ns as f64 / self.fetch.fetches.max(1) as f64,
            ),
            ("core.monitor.busy_ms", busy("core.monitor")),
            ("simnet.trace.entries", self.trace_entries as f64),
            ("simnet.trace.scan_ms", busy("simnet.trace.scan")),
            ("core.world.teardown_ms", busy("core.world.teardown")),
            ("browser.render_cache.hit_ratio", ratio("render_cache")),
            ("antiphish.verdict_store.hit_ratio", ratio("verdict_store")),
        ]
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Host µs per page to run `Document::parse` and `PageSummary::extract`
/// over `bodies`, the median of five passes.
pub fn html_parse_us(bodies: &[String]) -> f64 {
    if bodies.is_empty() {
        return 0.0;
    }
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for body in bodies {
                let doc = Document::parse(std::hint::black_box(body));
                std::hint::black_box(PageSummary::extract(&doc));
            }
            t0.elapsed().as_secs_f64() * 1e6 / bodies.len() as f64
        })
        .collect();
    passes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    passes[2]
}

/// `run_main_experiment`, rebuilt from the public functions it calls
/// with a span around each layer and a [`TimedTransport`] between the
/// engines and the world. Must produce the same Table 2 and traffic
/// fraction; [`TracedMain::matches`] checks that.
pub fn traced_main(config: &MainConfig) -> TracedMain {
    assert!(
        !config.snapshots && config.upgrade.is_none() && config.shared_frozen.is_none(),
        "the traced re-run covers the plain main experiment only"
    );
    let wall = Instant::now();
    let mut rec = Recorder::new();
    let mut fetch = FetchStats::default();

    rec.begin("core.world.build", 0);
    let mut world = World::new(config.seed)
        .with_faults(config.faults.clone())
        .with_obs(config.obs.clone());
    let mut feeds = FeedNetwork::paper_topology(&world.rng);
    let cells = assignment();
    let total_urls: usize = cells.iter().map(|(_, _, _, n)| n).sum();
    let run_caches = (render_cache_enabled() && shared_cache_enabled()).then(RunCaches::fresh);
    let mut engines: BTreeMap<EngineId, Engine> = EngineId::main_experiment()
        .into_iter()
        .map(|id| {
            let mut engine = Engine::with_profile(EngineProfile::of(id), &world.rng)
                .with_captcha_provider(world.captcha.clone())
                .with_obs(config.obs.clone());
            if let Some(caches) = &run_caches {
                engine = engine.with_run_caches(caches);
            }
            (id, engine)
        })
        .collect();
    let mut report_rng = world.rng.fork("main-report-times");
    rec.end(0);

    rec.begin("core.domains", 0);
    let domains = synth_domains(&world.rng, &world.registry, total_urls, "main");
    let reg_rng = world.rng.fork("main-registration");
    register_spread(
        &mut world.registry,
        &domains,
        SimTime::ZERO,
        SimDuration::from_days(14),
        &reg_rng,
    );
    rec.end(0);
    let deploy_at = SimTime::ZERO + SimDuration::from_days(14);
    let report_start = deploy_at + SimDuration::from_days(7);

    let mut table = Table2::default();
    let mut arms = Vec::new();
    let mut deployments = Vec::new();
    let mut all_urls = Vec::new();
    let mut gsb_alert_delays: Vec<f64> = Vec::new();
    let mut netcraft_session_delays: Vec<f64> = Vec::new();
    let mut openphish_ns = 0;
    let mut domain_iter = domains.iter();
    for (engine_id, brand, technique, n) in cells {
        for _ in 0..n {
            let domain = domain_iter.next().expect("enough domains").clone();
            rec.begin("core.deploy", 0);
            let deployment = deploy_armed_site(&mut world, &domain, brand, technique, deploy_at);
            rec.end(0);
            let url = deployment.url.clone();
            let reported_at =
                report_start + SimDuration::from_mins(report_rng.range(0..(12 * 24 * 60) as u64));

            rec.begin("antiphish.engine", fetch.busy_ns);
            world.log.record(TraceEvent {
                at: reported_at,
                kind: TraceKind::Report,
                src: Ipv4Sim::new(192, 0, 2, 1),
                host: url.host.clone(),
                path: url.target(),
                user_agent: None,
                actor: engine_id.key().to_string(),
            });
            let engine = engines.get_mut(&engine_id).expect("engine exists");
            let outcome = {
                let mut t = TimedTransport::new(&mut world, &mut fetch);
                engine.process_report(&mut t, &url, reported_at, config.volume_scale)
            };
            let engine_ns = rec.end(fetch.busy_ns);
            if engine_id == EngineId::OpenPhish {
                openphish_ns += engine_ns;
            }

            rec.begin("core.report", 0);
            config.obs.observe(
                &format!("phase.intake.{technique}"),
                outcome.first_visit_at.since(reported_at).as_mins(),
            );
            if let Some(at) = outcome.detected_at {
                config.obs.observe(
                    &format!("phase.detect.{technique}"),
                    at.since(reported_at).as_mins(),
                );
                feeds.publish(engine_id, &url, at);
                let delay_mins = at.since(reported_at).as_mins_f64();
                if engine_id == EngineId::Gsb && technique == EvasionTechnique::AlertBox {
                    gsb_alert_delays.push(delay_mins);
                }
                if engine_id == EngineId::NetCraft && technique == EvasionTechnique::SessionGate {
                    netcraft_session_delays.push(delay_mins);
                }
            }
            table.record(engine_id, brand, technique, outcome.detected_at.is_some());
            all_urls.push(url.clone());
            arms.push((url, outcome.reported_at));
            deployments.push(deployment);
            rec.end(0);
        }
    }
    rec.begin("core.report", 0);
    if !gsb_alert_delays.is_empty() {
        table.gsb_alert_mean_mins =
            Some(gsb_alert_delays.iter().sum::<f64>() / gsb_alert_delays.len() as f64);
    }
    netcraft_session_delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    table.netcraft_session_delays_mins = netcraft_session_delays;
    rec.end(0);

    let horizon = report_start + config.horizon;
    let observations = rec.span("core.monitor", || {
        monitor_listings(&feeds, &all_urls, deploy_at, horizon, &world.log)
    });

    let traffic_within_2h = rec.span("simnet.trace.scan", || {
        let fractions: Vec<f64> = arms
            .iter()
            .map(|(url, reported_at)| {
                world
                    .log
                    .fraction_within(&url.host, *reported_at, SimDuration::from_hours(2))
            })
            .collect();
        if fractions.is_empty() {
            0.0
        } else {
            fractions.iter().sum::<f64>() / fractions.len() as f64
        }
    });

    let trace_entries = world.log.len() as u64;
    let caches: BTreeMap<String, u64> = run_caches
        .as_ref()
        .map(|c| {
            c.counters()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .unwrap_or_default();
    rec.span("core.world.teardown", || {
        drop((world, feeds, engines, run_caches));
        drop((arms, deployments, all_urls, observations));
    });

    TracedMain {
        table,
        traffic_within_2h,
        rec,
        fetch,
        openphish_ns,
        trace_entries,
        caches,
        wall_ns: wall.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_rerun_is_transparent_on_the_fast_config() {
        let config = MainConfig::fast();
        let reference = run_main_experiment(&config);
        let traced = traced_main(&config);
        traced
            .matches(&RunSummary::of(&reference))
            .expect("traced run reproduces Table 2 and the access log");
        assert!(traced.fetch.fetches > 0);
        let layers = traced.layers();
        let get = |n: &str| layers.iter().find(|(k, _)| *k == n).expect(n).1;
        assert_eq!(get("core.deploy.calls"), 105.0);
        assert_eq!(get("antiphish.engine.reports"), 105.0);
    }

    #[test]
    fn committed_record_passes_and_a_changed_cell_fails() {
        // Tests run from the package directory; the record is one up.
        let text = std::fs::read_to_string(format!("../{TABLE2_RECORD}")).expect("record");
        let committed = Committed::parse(&text).expect("record parses");
        let r = run_main_experiment(&MainConfig::fast());
        check_table(&r.table, committed.seed, &committed).expect("default seed matches");
        let mut changed = r.table.clone();
        changed.record(
            EngineId::Apwg,
            Brand::PayPal,
            EvasionTechnique::AlertBox,
            true,
        );
        changed.total.total -= 1;
        changed.total.hits -= 1;
        assert!(check_table(&changed, committed.seed, &committed).is_err());
        // At another seed only the shape counts: a reCAPTCHA detection
        // breaks it.
        let mut captcha = r.table.clone();
        captcha.record(
            EngineId::Apwg,
            Brand::PayPal,
            EvasionTechnique::CaptchaGate,
            true,
        );
        captcha.total.total -= 1;
        assert!(check_table(&r.table, 1, &committed).is_ok());
        assert!(check_table(&captcha, 1, &committed).is_err());
    }
}
