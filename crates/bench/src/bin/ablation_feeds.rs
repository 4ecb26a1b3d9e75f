//! Ablation: the cross-feed propagation graph (DESIGN.md §4.5).
//!
//! Table 1's "Also blacklisted by" column is explained by a directed
//! sharing graph between vendors. Removing the edges and re-running
//! the preliminary test should empty the column while leaving each
//! engine's own detections untouched — establishing that the column
//! measures *propagation*, not independent detection.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin ablation_feeds
//! ```

use phishsim_antiphish::{EngineId, FeedNetwork};
use phishsim_core::experiment::{run_preliminary, PreliminaryConfig};
use phishsim_http::Url;
use phishsim_simnet::runner::run_sweep;
use phishsim_simnet::{DetRng, SimTime};

fn main() {
    // Arm 1: the paper topology (the default preliminary run).
    let config = PreliminaryConfig::fast();
    eprintln!("arm 1: paper feed topology...");
    let with_edges = run_preliminary(&config);

    // Arm 2: replay the same primary detections through an isolated
    // network (no edges).
    eprintln!("arm 2: isolated feeds (edges removed)...");
    let mut isolated = FeedNetwork::isolated(&DetRng::new(config.seed));
    for outcome in &with_edges.outcomes {
        if let Some(at) = outcome.detected_at {
            isolated.publish(outcome.engine, &outcome.url, at);
        }
    }

    println!(
        "{:<14} {:<38} {:<38}",
        "Reported to", "Also blacklisted by (paper graph)", "Also blacklisted by (no edges)"
    );
    let horizon = SimTime::from_hours(48);
    // Both arms' "also blacklisted by" cells are pure reads against the
    // two feed networks — compute every engine's row in parallel.
    let engines = EngineId::all();
    let table = run_sweep(&engines, |&id| {
        let urls: Vec<&Url> = with_edges
            .outcomes
            .iter()
            .filter(|o| o.engine == id)
            .map(|o| &o.url)
            .collect();
        let carriers = |net: &FeedNetwork| -> String {
            let mut v: Vec<&str> = Vec::new();
            for url in &urls {
                for (carrier, _) in net.carriers(url, horizon) {
                    if carrier != id && !v.contains(&carrier.display()) {
                        v.push(carrier.display());
                    }
                }
            }
            if v.is_empty() {
                "-".into()
            } else {
                v.join(", ")
            }
        };
        (carriers(&with_edges.feeds), carriers(&isolated))
    });
    for (id, (paper_graph, no_edges)) in engines.iter().zip(&table) {
        println!("{:<14} {:<38} {:<38}", id.display(), paper_graph, no_edges);
    }
    println!(
        "\nWith the edges removed, every 'Also blacklisted by' cell collapses to '-':\n\
         the column is pure feed propagation, as the paper inferred (§4.1 result 1)."
    );

    let record = serde_json::json!({
        "experiment": "ablation_feeds",
        "seed": config.seed,
        "edges_in_paper_topology": with_edges.feeds.edges().len(),
    });
    phishsim_bench::write_record("ablation_feeds", &record);
}
