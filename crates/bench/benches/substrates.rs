//! Criterion performance benches over the substrates.
//!
//! These measure the machinery the experiments run on: the HTTP wire
//! codec, the HTML parser, the classifier, the fake-site generator
//! (the paper quotes "2 minutes to generate a fully functional website
//! with 30 different pages"; ours is a few hundred microseconds), the
//! event scheduler, the CAPTCHA flow, and the drop-catch pipeline scan
//! rate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use phishsim_antiphish::{classify, ClassifierMode};
use phishsim_captcha::{CaptchaProvider, SolverProfile};
use phishsim_dns::reputation::{PopulationConfig, SyntheticPopulation};
use phishsim_dns::Resolver;
use phishsim_html::{Document, PageSummary};
use phishsim_http::{decode_request, encode_request, Request, Url};
use phishsim_phishgen::{Brand, FakeSiteGenerator};
use phishsim_simnet::{DetRng, Scheduler, SimDuration, SimTime};

fn bench_http_codec(c: &mut Criterion) {
    let req = Request::post_form(
        Url::https("victim-site.com", "/secure/login.php").with_param("step", "2"),
        &[
            ("login_email", "user@example.com"),
            ("login_pass", "hunter2"),
        ],
    )
    .with_user_agent(phishsim_http::UserAgent::Firefox.as_str());
    let wire = encode_request(&req);
    let mut g = c.benchmark_group("http_codec");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_request", |b| {
        b.iter(|| encode_request(black_box(&req)))
    });
    g.bench_function("decode_request", |b| {
        b.iter_batched(
            || bytes::BytesMut::from(&wire[..]),
            |mut buf| decode_request(black_box(&mut buf)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_html(c: &mut Criterion) {
    let html = Brand::PayPal.login_page_html();
    let mut g = c.benchmark_group("html");
    g.throughput(Throughput::Bytes(html.len() as u64));
    g.bench_function("parse_paypal_clone", |b| {
        b.iter(|| Document::parse(black_box(&html)))
    });
    g.bench_function("summarise_paypal_clone", |b| {
        b.iter(|| PageSummary::from_html(black_box(&html)))
    });
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let phishing = PageSummary::from_html(&Brand::PayPal.login_page_html());
    let rng = DetRng::new(1);
    let bundle = FakeSiteGenerator::new(&rng).generate("green-energy.com");
    let benign = PageSummary::from_html(&bundle.pages.values().next().unwrap().html);
    let mut g = c.benchmark_group("classifier");
    g.bench_function("classify_phishing_payload", |b| {
        b.iter(|| {
            classify(black_box(&phishing), "green-energy.com")
                .score(ClassifierMode::SignatureAndHeuristics)
        })
    });
    g.bench_function("classify_benign_cover", |b| {
        b.iter(|| {
            classify(black_box(&benign), "green-energy.com").score(ClassifierMode::SignatureOnly)
        })
    });
    g.finish();
}

fn bench_sitegen(c: &mut Criterion) {
    let rng = DetRng::new(7);
    c.bench_function("sitegen_30_page_site", |b| {
        let mut generator = FakeSiteGenerator::new(&rng);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            generator.generate(&format!("bench-host-{i}.com"))
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_and_drain_10k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u32> = Scheduler::new();
            for i in 0..10_000u32 {
                s.schedule_at(
                    SimTime::from_millis(((i * 2_654_435_761) % 1_000_000) as u64),
                    i,
                );
            }
            let mut n = 0;
            while s.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    // Retry-timer shape: near-term (0-60 s) events, a third of them
    // cancelled before the drain, so tombstones are swept at the front.
    g.bench_function("schedule_cancel_drain_10k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u32> = Scheduler::new();
            let ids: Vec<_> = (0..10_000u32)
                .map(|i| {
                    s.schedule_at(
                        SimTime::from_millis(((i * 2_654_435_761) % 60_000) as u64),
                        i,
                    )
                })
                .collect();
            for id in ids.iter().step_by(3) {
                s.cancel(*id);
            }
            let mut n = 0;
            while s.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    // Fleet shape: a backlog of arrivals spread over 15 min, each
    // followed by a completion 0-30 s after it pops, so most inserts
    // land near the front of a large queue.
    g.bench_function("backlog_near_term_10k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u32> = Scheduler::new();
            for i in 0..10_000u32 {
                s.schedule_at(SimTime::from_millis((i as u64) * 90), i);
            }
            let mut n = 0u32;
            while let Some((t, e)) = s.pop() {
                n += 1;
                if e < 10_000 {
                    s.schedule_at(
                        t + SimDuration::from_millis(((e * 2_654_435_761) % 30_000) as u64),
                        e + 10_000,
                    );
                }
            }
            n
        })
    });
    g.finish();
}

fn bench_captcha(c: &mut Criterion) {
    c.bench_function("captcha_solve_and_verify", |b| {
        let mut provider = CaptchaProvider::new(&DetRng::new(1));
        let (site, secret) = provider.register_site();
        let solver = SolverProfile::Human { skill: 1.0 };
        b.iter(|| {
            let token = provider.attempt(&site, &solver, SimTime::ZERO).unwrap();
            provider.siteverify(&secret, &token, SimTime::ZERO)
        })
    });
}

fn bench_pipeline_scan(c: &mut Criterion) {
    // NXDOMAIN scan rate over a 5k-domain population (the full 1M scan
    // is the `funnel` binary's job).
    let now = SimTime::from_hours(24 * 700);
    let pop = SyntheticPopulation::generate(&PopulationConfig::small(), &DetRng::new(3), now);
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(pop.alexa.len() as u64));
    g.bench_function("nxdomain_scan_5k", |b| {
        b.iter(|| {
            let mut resolver = Resolver::uncached();
            pop.alexa
                .entries()
                .iter()
                .filter(|d| resolver.is_nxdomain(&pop.registry, d, now))
                .count()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_http_codec,
    bench_html,
    bench_classifier,
    bench_sitegen,
    bench_scheduler,
    bench_captcha,
    bench_pipeline_scan
);
criterion_main!(benches);
