//! Model check of the compact, interned [`TraceLog`] against a naive
//! `Vec<TraceEvent>` reference: random event sequences, appended in two
//! different orders, must answer every query identically — including
//! after `clear()` and reuse.

use phishsim_simnet::{DetRng, Ipv4Sim, SimDuration, SimTime, TraceEvent, TraceKind, TraceLog};
use proptest::prelude::*;
use std::collections::HashSet;

/// The reference: every event kept whole, every query a full scan.
#[derive(Default)]
struct NaiveLog {
    events: Vec<TraceEvent>,
}

impl NaiveLog {
    fn sorted(&self, pred: impl Fn(&TraceEvent) -> bool) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.events.iter().filter(|e| pred(e)).cloned().collect();
        out.sort_by(|a, b| {
            a.at.cmp(&b.at)
                .then_with(|| a.actor.cmp(&b.actor))
                .then_with(|| a.host.cmp(&b.host))
                .then_with(|| a.path.cmp(&b.path))
                .then_with(|| a.src.cmp(&b.src))
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.user_agent.cmp(&b.user_agent))
        });
        out
    }

    fn requests(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind == TraceKind::HttpRequest)
    }

    fn requests_for(&self, actor: &str, host: Option<&str>) -> usize {
        self.requests()
            .filter(|e| e.actor == actor && host.is_none_or(|h| e.host == h))
            .count()
    }

    fn unique_ips_for(&self, actor: &str) -> usize {
        let set: HashSet<Ipv4Sim> = self
            .requests()
            .filter(|e| e.actor == actor)
            .map(|e| e.src)
            .collect();
        set.len()
    }

    fn fraction_within(&self, host: &str, start: SimTime, window: SimDuration) -> f64 {
        let all: Vec<&TraceEvent> = self.requests().filter(|e| e.host == host).collect();
        if all.is_empty() {
            return 0.0;
        }
        let within = all.iter().filter(|e| e.at <= start + window).count();
        within as f64 / all.len() as f64
    }

    fn first_request_after(&self, host: &str, start: SimTime) -> Option<SimTime> {
        self.requests()
            .filter(|e| e.host == host && e.at >= start)
            .map(|e| e.at)
            .min()
    }

    fn arrival_histogram(
        &self,
        host: Option<&str>,
        start: SimTime,
        bucket: SimDuration,
        n: usize,
    ) -> Vec<usize> {
        let mut buckets = vec![0usize; n + 1];
        for e in self.requests() {
            if host.is_some_and(|h| e.host != h) || e.at < start {
                continue;
            }
            let idx = (e.at.since(start).as_millis() / bucket.as_millis().max(1)) as usize;
            buckets[idx.min(n)] += 1;
        }
        buckets
    }

    fn paths_for(&self, actor: &str) -> Vec<String> {
        self.sorted(|e| e.kind == TraceKind::HttpRequest && e.actor == actor)
            .into_iter()
            .map(|e| e.path)
            .collect()
    }
}

/// Values events draw from. Queries also ask about hosts and actors
/// the log has never seen, including strings it has seen in another
/// field.
const HOSTS: &[&str] = &["a.com", "b.com", "c.org"];
const ACTORS: &[&str] = &["gsb", "openphish", "human"];
const PATHS: &[&str] = &["/", "/x", "/kit.zip", "/a?b=1"];
const AGENTS: &[Option<&str>] = &[None, Some("Mozilla/5.0"), Some("curl/7")];

const KINDS: &[TraceKind] = &[
    TraceKind::HttpRequest,
    TraceKind::Dropped,
    TraceKind::Report,
    TraceKind::Blacklist,
    TraceKind::AbuseEmail,
];

/// Random events over small value sets, so ties in time and content
/// are common. Six in ten are HTTP requests.
fn event() -> impl Strategy<Value = TraceEvent> {
    (
        0u64..40,
        0usize..10,
        0u8..4,
        0usize..HOSTS.len(),
        0usize..PATHS.len(),
        (0usize..AGENTS.len(), 0usize..ACTORS.len()),
    )
        .prop_map(|(mins, kind, ip, host, path, (ua, actor))| TraceEvent {
            at: SimTime::from_mins(mins),
            kind: KINDS[kind.saturating_sub(5)],
            src: Ipv4Sim::new(10, 0, 0, ip),
            host: HOSTS[host].to_string(),
            path: PATHS[path].to_string(),
            user_agent: AGENTS[ua].map(str::to_string),
            actor: ACTORS[actor].to_string(),
        })
}

/// `events` in a second append order drawn from `seed`.
fn shuffled(events: &[TraceEvent], seed: u64) -> Vec<TraceEvent> {
    let mut out = events.to_vec();
    DetRng::new(seed).shuffle(&mut out);
    out
}

fn digest(events: &[TraceEvent]) -> String {
    format!("{events:?}")
}

/// Assert that `log` answers every query as `model` does.
fn assert_agrees(log: &TraceLog, model: &NaiveLog, start: SimTime, window: SimDuration) {
    assert_eq!(log.len(), model.events.len());
    assert_eq!(log.is_empty(), model.events.is_empty());
    assert_eq!(digest(&log.snapshot()), digest(&model.sorted(|_| true)));
    let preds: [fn(&TraceEvent) -> bool; 3] = [
        |e| e.user_agent.is_none(),
        |e| e.kind == TraceKind::Report || e.path.contains('x'),
        |e| e.host == "b.com" && e.actor == "gsb",
    ];
    for pred in preds {
        assert_eq!(digest(&log.filter(pred)), digest(&model.sorted(pred)));
        assert_eq!(
            log.count(pred),
            model.events.iter().filter(|e| pred(e)).count()
        );
    }
    let hosts = HOSTS.iter().copied().chain(["unknown.net", "/", "gsb"]);
    let actors = ACTORS.iter().copied().chain(["nobody", "a.com"]);
    for actor in actors {
        assert_eq!(log.unique_ips_for(actor), model.unique_ips_for(actor));
        assert_eq!(log.paths_for(actor), model.paths_for(actor));
        assert_eq!(
            log.requests_for(actor, None),
            model.requests_for(actor, None)
        );
        for host in hosts.clone() {
            assert_eq!(
                log.requests_for(actor, Some(host)),
                model.requests_for(actor, Some(host))
            );
        }
    }
    let bucket = SimDuration::from_mins(7);
    for host in hosts {
        assert_eq!(
            log.fraction_within(host, start, window).to_bits(),
            model.fraction_within(host, start, window).to_bits()
        );
        assert_eq!(
            log.first_request_after(host, start),
            model.first_request_after(host, start)
        );
        assert_eq!(
            log.arrival_histogram(Some(host), start, bucket, 4),
            model.arrival_histogram(Some(host), start, bucket, 4)
        );
    }
    assert_eq!(
        log.arrival_histogram(None, start, bucket, 4),
        model.arrival_histogram(None, start, bucket, 4)
    );
    assert_eq!(
        log.arrival_histogram(None, start, SimDuration::ZERO, 3),
        model.arrival_histogram(None, start, SimDuration::ZERO, 3)
    );
}

proptest! {
    #[test]
    fn compact_log_matches_naive_model_in_any_append_order(
        first in proptest::collection::vec(event(), 0..60),
        second in proptest::collection::vec(event(), 0..60),
        seed in any::<u64>(),
        start_mins in 0u64..45,
        window_mins in 0u64..30,
    ) {
        let first_shuffled = shuffled(&first, seed);
        let second_shuffled = shuffled(&second, seed ^ 1);
        let start = SimTime::from_mins(start_mins);
        let window = SimDuration::from_mins(window_mins);
        let a = TraceLog::new();
        let b = TraceLog::new();
        let mut model = NaiveLog::default();
        for (x, y) in first.iter().zip(&first_shuffled) {
            a.record(x.clone());
            b.record_ref(y.borrowed());
            model.events.push(x.clone());
        }
        assert_agrees(&a, &model, start, window);
        assert_agrees(&b, &model, start, window);

        // Clear, then reuse: nothing from the first phase may survive,
        // including the per-host index.
        a.clear();
        b.clear();
        model.events.clear();
        assert_agrees(&a, &model, start, window);
        for (x, y) in second.iter().zip(&second_shuffled) {
            a.record_ref(x.borrowed());
            b.record(y.clone());
            model.events.push(x.clone());
        }
        assert_agrees(&a, &model, start, window);
        assert_agrees(&b, &model, start, window);
    }
}
