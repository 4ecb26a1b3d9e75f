//! PhishTime-style longitudinal study: the evasion techniques
//! re-deployed in weekly waves, with and without a mid-study
//! mitigation rollout. The two study arms are independent full
//! simulations, so they run concurrently through the shared sweep
//! runner.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin longitudinal
//! ```

use phishsim_core::experiment::{run_longitudinal, LongitudinalConfig};
use phishsim_phishgen::EvasionTechnique;
use phishsim_simnet::runner::run_sweep;

fn print_series(label: &str, r: &phishsim_core::experiment::LongitudinalResult) {
    println!("{label}");
    println!(
        "  {:<12} {}",
        "technique",
        (0..r.waves.len())
            .map(|w| format!("wk{w:<4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for technique in EvasionTechnique::main_experiment() {
        let series = r.series(technique);
        let cells: Vec<String> = series
            .iter()
            .map(|v| format!("{:>4.0}%", v * 100.0))
            .collect();
        println!("  {:<12} {}", technique.to_string(), cells.join(" "));
    }
    println!();
}

fn main() {
    eprintln!("running both six-wave arms (status quo, wave-3 rollout) in parallel...");
    let arms = [
        LongitudinalConfig::status_quo(),
        LongitudinalConfig::with_midstudy_upgrade(),
    ];
    let mut results = run_sweep(&arms, run_longitudinal);
    let upgraded = results.pop().expect("two arms");
    let status_quo = results.pop().expect("two arms");

    print_series("Status quo (2020 engine capabilities):", &status_quo);
    print_series("Server-side mitigations rolled out at week 3:", &upgraded);

    println!(
        "Without adaptation the curves are flat: the techniques keep working week\n\
         after week (the paper's warning about phishers exploiting them 'on a\n\
         massive scale'). The rollout bends alert-box and session to 100% from\n\
         week 3 — but the reCAPTCHA row never moves without a human solving farm."
    );

    let record = serde_json::json!({
        "experiment": "longitudinal",
        "status_quo": EvasionTechnique::main_experiment().iter().map(|t| {
            serde_json::json!({ "technique": t.to_string(), "series": status_quo.series(*t) })
        }).collect::<Vec<_>>(),
        "with_upgrade": EvasionTechnique::main_experiment().iter().map(|t| {
            serde_json::json!({ "technique": t.to_string(), "series": upgraded.series(*t) })
        }).collect::<Vec<_>>(),
    });
    phishsim_bench::write_record("longitudinal", &record);
}
