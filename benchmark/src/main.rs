//! `phishbench`: the phishsim benchmark.
//!
//! ```text
//! phishbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up at least three times (the
//! median is `setup_s`), then runs closed-loop iterations for `--seconds` and
//! reports the end-to-end metrics. With `--trace 1` it runs every
//! workload's traced re-run once, after a short untraced run of the same
//! workload for the overhead baseline, and reports every per-layer
//! metric. The last line of standard output is the result object; the
//! line before it records the seed and the host facts the result
//! depends on. Run it from the repository root (`benchmark/run.py`
//! builds it and does).

mod bench;
mod catalog;
mod feed;
mod fleet;
mod sweep;
mod table2;
mod trace;

use bench::{available_parallelism, measure, median, peak_rss_mb, threads, Workload};
use catalog::{END_TO_END, WORKLOADS};
use feed::FeedSync;
use fleet::FleetBurst;
use phishsim_core::experiment::FleetSweepConfig;
use std::time::{Duration, Instant};
use sweep::SeedSweep;
use table2::Table2Full;

/// An untraced run sets up at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median.
const SETUP_RUNS: usize = 3;
/// See [`SETUP_RUNS`]: a set-up of microseconds is timed many times.
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed iterations per run, however long they take.
const MIN_ITERS: usize = 3;

/// The workloads' input sizes, and where the committed Table 2 record is.
pub struct Sizes {
    table2_record: &'static str,
    table2_volume: f64,
    sweep_runs: usize,
    fleet: FleetSweepConfig,
    feed_exact_clients: usize,
    feed_cohort_clients: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn paper() -> Self {
        Sizes {
            table2_record: table2::TABLE2_RECORD,
            table2_volume: 1.0,
            sweep_runs: 32,
            fleet: FleetSweepConfig::paper(),
            feed_exact_clients: 250_000,
            feed_cohort_clients: 2_500_000,
        }
    }
}

/// Calls [`Visit::visit`] with a workload's set-up function.
trait Visit {
    type Out;
    fn visit<W: Workload>(self, setup: &dyn Fn() -> Result<W, String>) -> Self::Out;
}

/// Hand the set-up of workload `name` at `seed` to `v`; `None` for an
/// unknown name.
fn dispatch<V: Visit>(name: &str, seed: u64, sizes: &Sizes, v: V) -> Option<V::Out> {
    Some(match name {
        "table2_full" => {
            v.visit(&|| Table2Full::new(seed, sizes.table2_record, sizes.table2_volume))
        }
        "seed_sweep" => v.visit(&|| Ok(SeedSweep::new(seed, sizes.sweep_runs))),
        "fleet_burst" => v.visit(&|| Ok(FleetBurst::new(seed, sizes.fleet.clone()))),
        "feed_sync" => v.visit(&|| {
            Ok(FeedSync::new(
                seed,
                sizes.feed_exact_clients,
                sizes.feed_cohort_clients,
            ))
        }),
        _ => return None,
    })
}

/// A run's result line.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run: set up repeatedly, then iterate.
struct Timed {
    seconds: u64,
}

impl Visit for Timed {
    type Out = Result<Outcome, String>;

    fn visit<W: Workload>(self, setup: &dyn Fn() -> Result<W, String>) -> Self::Out {
        let mut setup_s = Vec::new();
        let mut w = None;
        let start = Instant::now();
        while setup_s.len() < SETUP_RUNS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
            drop(w.take());
            let t0 = Instant::now();
            w = Some(setup()?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let w = w.expect("set up at least once");
        let s = measure(&w, Duration::from_secs(self.seconds), MIN_ITERS);
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("catalogued metric")
                .unit
        };
        let metrics = [
            ("iter_s", median(&s.iter_s)),
            ("work_per_s", median(&s.work_per_s)),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", median(&setup_s)),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v, unit(n)))
        .collect();
        let samples: Vec<String> = s.iter_s.iter().map(|v| format!("{v:.4}")).collect();
        let mut notes = vec![format!("\"iter_s_samples\": [{}]", samples.join(", "))];
        if let Some(f) = s.first_failure {
            notes.push(format!("\"first_failure\": {f:?}"));
        }
        Ok(Outcome {
            attempted: s.iter_s.len() as u64,
            failed: s.failed,
            metrics,
            notes,
        })
    }
}

/// The traced run of one workload: an untraced baseline for `budget`,
/// one untraced reference output, then the traced re-run.
struct Traced<'a> {
    workload: &'a str,
    budget: Duration,
}

impl Visit for Traced<'_> {
    type Out = Result<Outcome, String>;

    fn visit<W: Workload>(self, setup: &dyn Fn() -> Result<W, String>) -> Self::Out {
        let w = setup()?;
        let base = measure(&w, self.budget, MIN_ITERS);
        let reference = w.run();
        let mut out = Outcome {
            attempted: base.iter_s.len() as u64 + 1,
            failed: base.failed,
            ..Outcome::default()
        };
        if let Err(e) = w.check(&reference) {
            out.failed += 1;
            out.notes
                .push(format!("\"{}_failure\": {e:?}", self.workload));
        }
        let layers = match w.traced(&reference) {
            Ok(traced) => {
                if let Err(e) = write_spans(self.workload, &traced.spans) {
                    out.notes
                        .push(format!("\"{}_spans\": {e:?}", self.workload));
                }
                traced.layers
            }
            Err(e) => {
                // A traced re-run that diverged measured something else:
                // its numbers are reported as zero and the run fails.
                out.failed += 1;
                out.notes
                    .push(format!("\"{}_trace\": {e:?}", self.workload));
                Vec::new()
            }
        };
        drop(reference);
        let value = |name: &str| layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        for l in catalog::layers(self.workload) {
            let v = match l.name {
                "trace_overhead_ms" => {
                    value("traced_wall_ms").map(|t| t - median(&base.iter_s) * 1e3)
                }
                name => value(name),
            };
            out.metrics.push((
                format!("{}.{}", self.workload, l.name),
                v.unwrap_or(0.0),
                l.unit,
            ));
        }
        if let Some((name, _)) = layers
            .iter()
            .find(|(n, _)| !catalog::layers(self.workload).iter().any(|l| l.name == *n))
        {
            return Err(format!(
                "{} reports uncatalogued layer {name}",
                self.workload
            ));
        }
        Ok(out)
    }
}

/// Write a traced run's spans to
/// `$CARGO_TARGET_DIR/phishbench-spans/<workload>.tsv`.
fn write_spans(workload: &str, spans: &[trace::Recorder]) -> std::io::Result<()> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = std::path::Path::new(&target).join("phishbench-spans");
    std::fs::create_dir_all(&dir)?;
    let mut tsv = String::from("run\tname\tstart_ns\tend_ns\tparent\tfetch_ns\n");
    for (run, rec) in spans.iter().enumerate() {
        rec.write_tsv(run, &mut tsv);
    }
    std::fs::write(dir.join(format!("{workload}.tsv")), tsv)
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(phishsim_core::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Run what `args` asks for at `sizes`.
fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    if !args.trace {
        let timed = Timed {
            seconds: args.seconds,
        };
        return dispatch(&args.workload, args.seed, sizes, timed).expect("workload was validated");
    }
    // The traced run covers every workload, so it reports every per-layer
    // metric; the untraced baselines share the run's time budget.
    let budget = Duration::from_secs_f64(args.seconds as f64 / WORKLOADS.len() as f64);
    let mut all = Outcome::default();
    for (workload, _) in WORKLOADS {
        let traced = Traced { workload, budget };
        let out = dispatch(workload, args.seed, sizes, traced).expect("catalogued workload")?;
        all.attempted += out.attempted;
        all.failed += out.failed;
        all.metrics.extend(out.metrics);
        all.notes.extend(out.notes);
    }
    Ok(all)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("phishbench: {e}");
            eprintln!("usage: phishbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args, &Sizes::paper()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("phishbench: {e}");
            std::process::exit(1);
        }
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut info = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.trace),
        format!("\"available_parallelism\": {}", available_parallelism()),
        format!("\"threads\": {}", threads()),
        format!("\"profile\": \"{profile}\""),
    ];
    info.extend(outcome.notes.iter().cloned());
    println!("{{{}}}", info.join(", "));
    println!("{}", outcome.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishsim_antiphish::fleet::FleetConfig;
    use phishsim_simnet::SimDuration;

    /// Sizes small enough for a test run.
    fn tiny() -> Sizes {
        Sizes {
            // Tests run from the package directory, one below the root.
            table2_record: "../results/table2.json",
            table2_volume: 0.0,
            sweep_runs: 2,
            fleet: FleetSweepConfig {
                sites: 8,
                reports: 80,
                window: SimDuration::from_mins(2),
                worker_points: vec![4],
                fleet: FleetConfig {
                    workers: 4,
                    shard_capacity: 8,
                    egress_identities: 16,
                    egress_per_report: 2,
                    volume_scale: 0.0,
                    ..FleetConfig::default()
                },
                ..FleetSweepConfig::fast()
            },
            feed_exact_clients: 3_000,
            feed_cohort_clients: 120_000,
        }
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: phishsim_core::DEFAULT_SEED,
            seconds: 0,
            trace,
        }
    }

    #[test]
    fn every_workload_runs_and_checks_at_tiny_size() {
        for (workload, _) in WORKLOADS {
            let out = run(&args(workload, false), &tiny()).expect(workload);
            assert!(out.correct(), "{workload}: {:?}", out.notes);
            assert_eq!(out.attempted, MIN_ITERS as u64);
            let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            for (name, value, _) in &out.metrics {
                assert!(*value > 0.0, "{workload} {name} = {value}");
            }
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let out = run(&args("seed_sweep", true), &tiny()).expect("traced run");
        assert!(out.correct(), "{:?}", out.notes);
        let names: Vec<String> = out.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        let want: Vec<String> = catalog::per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, want);
        let get = |n: &str| out.metrics.iter().find(|(m, _, _)| m == n).expect(n).1;
        assert_eq!(get("table2_full.antiphish.engine.reports"), 105.0);
        assert_eq!(get("seed_sweep.core.deploy.calls"), 210.0);
        assert!(get("fleet_burst.antiphish.fleet.busy_ms") > 0.0);
        assert!(get("feed_sync.feedserve.cohort.rows") > 0.0);
    }

    #[test]
    fn arguments_are_validated() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload fleet_burst --seed 5 --seconds 3 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (5, 3, true));
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload table2_full --trace 2")).is_err());
        assert!(parse_args(&a("--workload table2_full --seed")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
    }
}
