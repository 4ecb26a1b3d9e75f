//! The §5.1 PhishTank-community anecdote, quantified.
//!
//! "Although the URL was submitted to Phishtank, a community-based URL
//! blacklist based on user reports, it was not confirmed by any other
//! user and thus, it did not appear on the official blacklist."
//!
//! This harness submits naked and gated kits to simulated voter
//! communities of varying diligence and measures how often each gets
//! published. Each (community, submission) pair is an independent
//! seeded simulation, so the whole grid fans out through the shared
//! sweep runner.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin community_voting
//! ```

use phishsim_antiphish::{SubmissionView, VoterProfile, VotingQueue};
use phishsim_http::Url;
use phishsim_simnet::runner::run_sweep;
use phishsim_simnet::{DetRng, SimTime};

fn main() {
    let communities: [(&str, VoterProfile); 3] = [
        ("casual (diligence 0.25)", VoterProfile::casual()),
        (
            "mixed (diligence 0.50)",
            VoterProfile {
                diligence: 0.5,
                accuracy_on_payload: 0.95,
            },
        ),
        ("expert (diligence 0.90)", VoterProfile::expert()),
    ];
    let n: u64 = 200;
    println!("Publication rates over {n} submissions, quorum 2, 10 voting rounds:");
    println!(
        "{:<26} {:>12} {:>12}",
        "community", "naked kits", "gated kits"
    );

    // Flatten the (community, submission) grid into one sweep.
    let grid: Vec<(usize, u64)> = (0..communities.len())
        .flat_map(|c| (0..n).map(move |i| (c, i)))
        .collect();
    let outcomes: Vec<(bool, bool)> = run_sweep(&grid, |&(c, i)| {
        let voter = &communities[c].1;
        let mut q = VotingQueue::new(2, &DetRng::new(i));
        let nu = Url::parse(&format!("https://naked-{i}.com/p")).unwrap();
        let gu = Url::parse(&format!("https://gated-{i}.com/p")).unwrap();
        q.submit(nu.clone(), SubmissionView::naked(), SimTime::ZERO);
        q.submit(gu.clone(), SubmissionView::gated(), SimTime::ZERO);
        for round in 0..10 {
            let at = SimTime::from_hours(round);
            q.vote_once(voter, at);
            q.vote_once(voter, at);
        }
        (q.is_published(&nu), q.is_published(&gu))
    });

    let mut rows = Vec::new();
    for (c, (label, _)) in communities.iter().enumerate() {
        let (mut naked, mut gated) = (0u64, 0u64);
        for ((gc, _), (np, gp)) in grid.iter().zip(&outcomes) {
            if *gc == c {
                naked += *np as u64;
                gated += *gp as u64;
            }
        }
        println!(
            "{:<26} {:>11.0}% {:>11.0}%",
            label,
            naked as f64 * 100.0 / n as f64,
            gated as f64 * 100.0 / n as f64
        );
        rows.push(serde_json::json!({
            "community": label,
            "naked_rate": naked as f64 / n as f64,
            "gated_rate": gated as f64 / n as f64,
        }));
    }
    println!(
        "\nHuman-verification gates suppress community listings the same way they\n\
         suppress crawlers: the casual reviewer sees a benign page and votes\n\
         'not a phish'. Only reviewer diligence — not better automation —\n\
         closes the gap, matching the paper's anecdote."
    );
    phishsim_bench::write_record(
        "community_voting",
        &serde_json::json!({ "experiment": "community_voting", "rows": rows }),
    );
}
