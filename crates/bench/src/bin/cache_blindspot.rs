//! Regenerate the **verdict-cache blind spot** sweep (experiment E5,
//! §2.4): "the built-in browser anti-phishing system ... does not
//! resend [the URL] to the server and serves instead the cached result
//! usually valid for 5 to 60 minutes."
//!
//! For each cache TTL (evaluated in parallel through the shared sweep
//! runner — each TTL is an independent simulation), we measure the
//! *blind window*: how long a same-URL content swap (the reCAPTCHA
//! kit's trick) stays invisible to a client that checked the URL while
//! it was still benign — even when the URL gets blacklisted immediately
//! after the swap.
//!
//! ```text
//! cargo run --release -p phishsim-bench --bin cache_blindspot
//! ```

use phishsim_browser::{Verdict, VerdictCache};
use phishsim_http::Url;
use phishsim_simnet::runner::run_sweep;
use phishsim_simnet::{SimDuration, SimTime};

fn main() {
    let ttls = [5u64, 10, 15, 30, 45, 60];
    println!("Verdict-cache blind spot vs cache TTL (probe every minute):");
    println!(
        "{:>10} {:>16} {:>22}",
        "TTL (min)", "blind window", "lookups suppressed"
    );

    let results = run_sweep(&ttls, |&ttl_mins| {
        let url = Url::parse("https://victim.example.com/account/verify.php").unwrap();
        let mut cache = VerdictCache::new(SimDuration::from_mins(ttl_mins));
        let t_check = SimTime::from_mins(0);
        // The URL is checked (benign) at t=0; the payload swap and the
        // server-side blacklisting happen one minute later.
        cache.store(&url, Verdict::Safe, t_check);
        let listed_at = SimTime::from_mins(1);
        let mut blind_until = listed_at;
        let mut suppressed = 0u64;
        for m in 1..=180 {
            let now = SimTime::from_mins(m);
            match cache.lookup(&url, now) {
                Some(Verdict::Safe) => {
                    suppressed += 1;
                    blind_until = now;
                }
                Some(Verdict::Phishing) => break,
                None => {
                    // The client re-checks the server, sees the listing.
                    cache.store(&url, Verdict::Phishing, now);
                    break;
                }
            }
        }
        (blind_until.since(listed_at).as_mins(), suppressed)
    });

    let mut rows = Vec::new();
    for (&ttl_mins, (blind_mins, suppressed)) in ttls.iter().zip(&results) {
        println!("{:>10} {:>13} min {:>22}", ttl_mins, blind_mins, suppressed);
        rows.push(serde_json::json!({
            "ttl_mins": ttl_mins,
            "blind_window_mins": blind_mins,
            "suppressed_lookups": suppressed,
        }));
    }

    println!(
        "\nThe blind window tracks the TTL almost one-for-one: during it, the user\n\
         sees the phishing payload while their protection serves the stale 'Safe'\n\
         verdict — exactly the §2.4 mechanism that makes same-URL CAPTCHA swaps\n\
         so effective."
    );

    let record = serde_json::json!({
        "experiment": "cache_blindspot",
        "rows": rows,
    });
    phishsim_bench::write_record("cache_blindspot", &record);
}
