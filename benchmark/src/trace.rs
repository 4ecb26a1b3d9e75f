//! Outside-in tracing: spans recorded around calls into the simulator's
//! public API, and a timing [`Transport`] wrapper for the functions that
//! take `&mut dyn Transport`.
//!
//! Spans are kept in memory and aggregated per name when the traced run
//! ends. A span's self time is its duration minus the time of the spans
//! nested in it and of the transport fetches made while it was open.

use phishsim_browser::{FetchError, Transport};
use phishsim_http::{Request, Response};
use phishsim_simnet::{Ipv4Sim, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// One span.
#[derive(Debug)]
struct Span {
    /// Layer name, e.g. `core.deploy`.
    name: &'static str,
    /// Start, ns since the recorder's origin.
    start_ns: u64,
    /// End, ns since the recorder's origin.
    end_ns: u64,
    /// The enclosing span, by index into the recorder's spans.
    parent: Option<usize>,
    /// Transport time spent inside this span and outside nested spans.
    fetch_ns: u64,
}

impl Span {
    /// Inclusive duration.
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans closed under this name.
    pub calls: u64,
    /// Sum of inclusive durations, ns.
    pub busy_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// In-memory span recorder for one thread of work.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `fetch_ns_now` is the transport's running busy total,
    /// so fetches made while the span is open can be subtracted from it.
    pub fn begin(&mut self, name: &'static str, fetch_ns_now: u64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().map(|&(i, _)| i),
            fetch_ns: 0,
        });
        self.open.push((idx, fetch_ns_now));
    }

    /// Close the innermost open span and return its duration in ns.
    pub fn end(&mut self, fetch_ns_now: u64) -> u64 {
        let (idx, fetch_at_open) = self.open.pop().expect("end without begin");
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.fetch_ns = fetch_ns_now - fetch_at_open;
        // Fetches inside this span are not the parent's own fetch time.
        let (dur, fetch_ns) = (span.dur_ns(), span.fetch_ns);
        if let Some((_, parent_open)) = self.open.last_mut() {
            *parent_open += fetch_ns;
        }
        dur
    }

    /// Time `f` as a span that makes no transport fetches.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name, 0);
        let out = f();
        self.end(0);
        out
    }

    /// Sum of the durations of the outermost spans: the time attributed
    /// to named layers.
    pub fn attributed_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child + s.fetch_ns);
        }
        out
    }

    /// Append the spans to `out` as tab-separated lines: `run`, name,
    /// start and end (ns since the recorder's origin), parent index, and
    /// fetch time (ns).
    pub fn write_tsv(&self, run: usize, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{run}\t{}\t{}\t{}\t{parent}\t{}\n",
                s.name, s.start_ns, s.end_ns, s.fetch_ns
            ));
        }
    }
}

/// Keep every this-many-th HTML response body for the HTML parse probe.
const BODY_SAMPLE_EVERY: u64 = 256;

/// What a [`TimedTransport`] saw; outlives the wrapper, so one set of
/// totals can span calls that each need the inner transport on their own.
#[derive(Debug, Default)]
pub struct FetchStats {
    /// Fetches forwarded.
    pub fetches: u64,
    /// Fetches that returned an error.
    pub errors: u64,
    /// Host time spent inside the inner transport, ns.
    pub busy_ns: u64,
    html_seen: u64,
    /// A sample of the HTML response bodies: every 256th.
    pub bodies: Vec<String>,
}

/// A [`Transport`] that times every fetch of the transport it wraps.
///
/// It forwards each call unchanged and returns the inner result as is,
/// so it changes no response and draws no random number.
pub struct TimedTransport<'a> {
    inner: &'a mut dyn Transport,
    stats: &'a mut FetchStats,
}

impl<'a> TimedTransport<'a> {
    /// Wrap `inner`, adding what it sees to `stats`.
    pub fn new(inner: &'a mut dyn Transport, stats: &'a mut FetchStats) -> Self {
        TimedTransport { inner, stats }
    }
}

impl Transport for TimedTransport<'_> {
    fn fetch(
        &mut self,
        src: Ipv4Sim,
        actor: &str,
        req: &Request,
        now: SimTime,
    ) -> Result<(Response, SimDuration), FetchError> {
        let t0 = Instant::now();
        let out = self.inner.fetch(src, actor, req, now);
        let stats = &mut *self.stats;
        stats.busy_ns += t0.elapsed().as_nanos() as u64;
        stats.fetches += 1;
        match &out {
            Err(_) => stats.errors += 1,
            Ok((resp, _))
                if resp
                    .headers
                    .get("content-type")
                    .is_some_and(|ct| ct.contains("html")) =>
            {
                if stats.html_seen.is_multiple_of(BODY_SAMPLE_EVERY) {
                    stats.bodies.push(resp.body.clone());
                }
                stats.html_seen += 1;
            }
            Ok(_) => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans_and_fetches() {
        let mut r = Recorder::new();
        r.begin("outer", 0);
        r.begin("inner", 100);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(400); // 300 ns of fetches inside `inner`
        r.end(1_000); // 700 ns more inside `outer` itself
        let t = r.totals();
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(r.spans[1].fetch_ns, 300);
        assert_eq!(r.spans[0].fetch_ns, 700);
        assert_eq!(inner.self_ns, inner.busy_ns - 300);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns - 700);
        assert_eq!(r.attributed_ns(), outer.busy_ns);
    }
}
