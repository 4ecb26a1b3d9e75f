//! Traffic tracing.
//!
//! The paper's §4 analysis is largely *server log analysis*: counting
//! requests per engine (Table 1), observing that "we received about 90 %
//! of the traffic during the first 2 hours", and discovering that
//! OpenPhish probes for web shells, phishing-kit archives, and stolen
//! credential logs. [`TraceLog`] is the simulated equivalent of the Nginx
//! access log: every HTTP exchange appends a [`TraceEvent`], and the
//! experiment harness answers its questions by querying the log.

use crate::ip::Ipv4Sim;
use crate::time::{SimDuration, SimTime};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What kind of exchange a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceKind {
    /// An HTTP request that reached a simulated web server.
    HttpRequest,
    /// A request dropped by fault injection (never reached the server).
    Dropped,
    /// A report submitted to an anti-phishing entity.
    Report,
    /// A blacklist publication event.
    Blacklist,
    /// An abuse-notification email.
    AbuseEmail,
}

/// One entry in the traffic log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// The kind of event.
    pub kind: TraceKind,
    /// Source address (crawler / reporter).
    pub src: Ipv4Sim,
    /// Requested host (domain name).
    pub host: String,
    /// Requested path (including query string, as servers log it).
    pub path: String,
    /// The `User-Agent` presented, if any.
    pub user_agent: Option<String>,
    /// Name of the actor on whose behalf the request was made (an
    /// anti-phishing engine name, `"human"`, etc.). The real experiment
    /// infers this from IP ranges; the simulation records ground truth so
    /// tests can verify the inference logic too.
    pub actor: String,
}

/// A borrowed view of one log line, for appending without allocating:
/// [`TraceLog::record_ref`] interns the strings, so a caller that
/// already holds them (the hosting farm, per served request) never
/// builds an owned [`TraceEvent`].
#[derive(Debug, Clone, Copy)]
pub struct TraceEventRef<'a> {
    /// When the event occurred.
    pub at: SimTime,
    /// The kind of event.
    pub kind: TraceKind,
    /// Source address (crawler / reporter).
    pub src: Ipv4Sim,
    /// Requested host (domain name).
    pub host: &'a str,
    /// Requested path (including query string).
    pub path: &'a str,
    /// The `User-Agent` presented, if any.
    pub user_agent: Option<&'a str>,
    /// Name of the actor on whose behalf the request was made.
    pub actor: &'a str,
}

impl TraceEvent {
    /// This event as a [`TraceEventRef`].
    pub fn borrowed(&self) -> TraceEventRef<'_> {
        TraceEventRef {
            at: self.at,
            kind: self.kind,
            src: self.src,
            host: &self.host,
            path: &self.path,
            user_agent: self.user_agent.as_deref(),
            actor: &self.actor,
        }
    }
}

/// Id of an interned string. Ids are handed out in first-append order,
/// which is thread-interleaving-dependent, so an id may be compared for
/// *equality* (equal ids ⇔ equal strings) but never for order.
type Sym = u32;

/// The `user_agent` symbol of a row that presented none.
const NO_UA: Sym = Sym::MAX;

/// One stored log line: 32 bytes, strings replaced by symbol ids.
#[derive(Debug, Clone, Copy)]
struct Row {
    at: SimTime,
    src: Ipv4Sim,
    host: Sym,
    path: Sym,
    user_agent: Sym,
    actor: Sym,
    kind: TraceKind,
}

const _: () = assert!(std::mem::size_of::<Row>() == 32);

/// Each distinct string stored once; `ids` and `strings` share it.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = Sym::try_from(self.strings.len())
            .ok()
            .filter(|&id| id != NO_UA)
            .expect("trace log interner overflow");
        let s: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&s));
        self.ids.insert(s, id);
        id
    }

    fn lookup(&self, s: &str) -> Option<Sym> {
        self.ids.get(s).copied()
    }

    fn resolve(&self, id: Sym) -> &str {
        &self.strings[id as usize]
    }

    /// Compare two symbols by string content.
    fn cmp(&self, a: Sym, b: Sym) -> Ordering {
        if a == b {
            Ordering::Equal
        } else {
            self.resolve(a).cmp(self.resolve(b))
        }
    }
}

/// Everything behind the log's lock.
#[derive(Debug, Default)]
struct Store {
    rows: Vec<Row>,
    symbols: Interner,
    /// `HttpRequest` arrival times per host, indexed by the host's
    /// symbol id (empty for symbols that are not request hosts).
    requests_by_host: Vec<Vec<SimTime>>,
}

impl Store {
    fn push(&mut self, e: TraceEventRef<'_>) {
        let row = Row {
            at: e.at,
            src: e.src,
            host: self.symbols.intern(e.host),
            path: self.symbols.intern(e.path),
            user_agent: e.user_agent.map_or(NO_UA, |ua| self.symbols.intern(ua)),
            actor: self.symbols.intern(e.actor),
            kind: e.kind,
        };
        if row.kind == TraceKind::HttpRequest {
            let h = row.host as usize;
            if h >= self.requests_by_host.len() {
                self.requests_by_host.resize_with(h + 1, Vec::new);
            }
            self.requests_by_host[h].push(row.at);
        }
        self.rows.push(row);
    }

    /// Arrival times of every HTTP request for `host`, in append order.
    fn requests_to(&self, host: &str) -> &[SimTime] {
        self.symbols
            .lookup(host)
            .and_then(|h| self.requests_by_host.get(h as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// HTTP request rows for `actor`, optionally restricted to `host`.
    /// An actor or host never seen matches nothing.
    fn requests(&self, actor: &str, host: Option<&str>) -> impl Iterator<Item = &Row> {
        let actor = self.symbols.lookup(actor);
        let host = host.map(|h| self.symbols.lookup(h));
        self.rows.iter().filter(move |r| {
            r.kind == TraceKind::HttpRequest
                && actor == Some(r.actor)
                && host.is_none_or(|h| h == Some(r.host))
        })
    }

    /// Write `row` into `out`, reusing its string buffers.
    fn fill(&self, row: &Row, out: &mut TraceEvent) {
        fn set(buf: &mut String, s: &str) {
            buf.clear();
            buf.push_str(s);
        }
        out.at = row.at;
        out.kind = row.kind;
        out.src = row.src;
        set(&mut out.host, self.symbols.resolve(row.host));
        set(&mut out.path, self.symbols.resolve(row.path));
        set(&mut out.actor, self.symbols.resolve(row.actor));
        match row.user_agent {
            NO_UA => out.user_agent = None,
            ua => set(
                out.user_agent.get_or_insert_with(String::new),
                self.symbols.resolve(ua),
            ),
        }
    }

    fn event(&self, row: &Row) -> TraceEvent {
        let mut e = TraceEvent {
            at: row.at,
            kind: row.kind,
            src: row.src,
            host: String::new(),
            path: String::new(),
            user_agent: None,
            actor: String::new(),
        };
        self.fill(row, &mut e);
        e
    }

    /// Rows whose materialised event satisfies `pred`, in append order.
    /// One scratch event is refilled for every row, so a scan does not
    /// allocate per row.
    fn matching<'a, F: Fn(&TraceEvent) -> bool + 'a>(
        &'a self,
        pred: F,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        let mut scratch = self.rows.first().map(|r| self.event(r));
        self.rows.iter().filter(move |r| {
            let e = scratch.as_mut().expect("a row exists to iterate");
            self.fill(r, e);
            pred(e)
        })
    }

    /// Sort rows into the deterministic total order described on
    /// [`TraceLog`], comparing strings by content. Stable, so the
    /// append sequence breaks exact ties.
    fn sort(&self, rows: &mut [Row]) {
        let s = &self.symbols;
        rows.sort_by(|a, b| {
            a.at.cmp(&b.at)
                .then_with(|| s.cmp(a.actor, b.actor))
                .then_with(|| s.cmp(a.host, b.host))
                .then_with(|| s.cmp(a.path, b.path))
                .then_with(|| a.src.cmp(&b.src))
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| match (a.user_agent, b.user_agent) {
                    (x, y) if x == y => Ordering::Equal,
                    (NO_UA, _) => Ordering::Less,
                    (_, NO_UA) => Ordering::Greater,
                    (x, y) => s.cmp(x, y),
                })
        });
    }
}

/// A shared, append-only traffic log.
///
/// Cloning is cheap (an `Arc`); all clones append to the same log. The
/// lock is `parking_lot::RwLock` so concurrent table harnesses can read
/// while a simulation thread appends.
///
/// # Storage
///
/// Each line is a 32-byte row whose host, path, user agent and actor
/// are ids into a string interner kept under the same lock, and every
/// `HttpRequest` time is also appended to a per-host index, so the
/// per-host timing queries read one host's times rather than the whole
/// log.
///
/// # Ordering
///
/// Appends from parallel sweep workers land in the backing vector in
/// thread-interleaving-dependent order, so raw append order must never
/// leak into records that are supposed to be byte-identical across
/// thread counts. Every order-exposing query therefore sorts on a
/// deterministic total order: `(at, actor, host, path, src, kind,
/// user_agent)`, with the append sequence — assigned under the write
/// lock — as the final tie-break (via stable sort). Two events that
/// differ in any field always compare by content; fully identical
/// events are interchangeable in any digest, so the residual
/// append-order tie-break cannot make output thread-dependent. Symbol
/// ids are assigned in the same interleaving-dependent order, so they
/// are only ever compared for equality, never sorted on.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    inner: Arc<RwLock<Store>>,
}

impl TraceLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn record(&self, event: TraceEvent) {
        self.record_ref(event.borrowed());
    }

    /// Append an event from borrowed strings. Allocates only for a
    /// string the log has not seen before.
    pub fn record_ref(&self, event: TraceEventRef<'_>) {
        self.inner.write().push(event);
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.read().rows.is_empty()
    }

    /// Snapshot of all events, in the deterministic total order (see
    /// the type-level ordering note) — not raw append order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.filter(|_| true)
    }

    /// Events matching a predicate, in the deterministic total order.
    pub fn filter<F: Fn(&TraceEvent) -> bool>(&self, pred: F) -> Vec<TraceEvent> {
        let store = self.inner.read();
        let mut rows: Vec<Row> = store.matching(pred).copied().collect();
        store.sort(&mut rows);
        rows.iter().map(|r| store.event(r)).collect()
    }

    /// Count of events matching a predicate.
    pub fn count<F: Fn(&TraceEvent) -> bool>(&self, pred: F) -> usize {
        self.inner.read().matching(pred).count()
    }

    /// Number of HTTP requests attributed to `actor` for `host`
    /// (Table 1's "# of requests" column).
    pub fn requests_for(&self, actor: &str, host: Option<&str>) -> usize {
        self.inner.read().requests(actor, host).count()
    }

    /// Unique source IPs attributed to `actor` (Table 1's "Unique IPs").
    pub fn unique_ips_for(&self, actor: &str) -> usize {
        let store = self.inner.read();
        let set: HashSet<Ipv4Sim> = store.requests(actor, None).map(|r| r.src).collect();
        set.len()
    }

    /// Fraction of all HTTP requests for `host` that arrived at or
    /// before `start + window` ("we received about 90 % of the traffic
    /// during the first 2 hours after reporting"). The denominator is
    /// every request the host ever received, and requests from before
    /// `start` count as within the window: the figure reads as "share
    /// of traffic in the first `window` after `start`" only when
    /// nothing reached the host before `start`. Returns 0.0 for a host
    /// with no requests.
    pub fn fraction_within(&self, host: &str, start: SimTime, window: SimDuration) -> f64 {
        let store = self.inner.read();
        let times = store.requests_to(host);
        if times.is_empty() {
            return 0.0;
        }
        let cutoff = start + window;
        let within = times.iter().filter(|&&at| at <= cutoff).count();
        within as f64 / times.len() as f64
    }

    /// Time of the first HTTP request for `host` at or after `start`.
    pub fn first_request_after(&self, host: &str, start: SimTime) -> Option<SimTime> {
        self.inner
            .read()
            .requests_to(host)
            .iter()
            .copied()
            .filter(|&at| at >= start)
            .min()
    }

    /// Histogram of request arrival offsets from `start`, bucketed by
    /// `bucket` width, over `n_buckets` buckets (requests beyond the last
    /// bucket are counted in a final overflow bucket). Used by the
    /// traffic-timing experiment (E3).
    pub fn arrival_histogram(
        &self,
        host: Option<&str>,
        start: SimTime,
        bucket: SimDuration,
        n_buckets: usize,
    ) -> Vec<usize> {
        let store = self.inner.read();
        let mut buckets = vec![0usize; n_buckets + 1];
        let mut add = |at: SimTime| {
            if at >= start {
                let idx = (at.since(start).as_millis() / bucket.as_millis().max(1)) as usize;
                buckets[idx.min(n_buckets)] += 1;
            }
        };
        match host {
            Some(h) => store.requests_to(h).iter().for_each(|&at| add(at)),
            None => store
                .rows
                .iter()
                .filter(|r| r.kind == TraceKind::HttpRequest)
                .for_each(|r| add(r.at)),
        }
        buckets
    }

    /// Paths requested by `actor`, in arrival order (kit-probing
    /// analysis). "Arrival" means simulated time, via the deterministic
    /// total order — raw append order is interleaving-dependent when
    /// sweep workers share a log.
    pub fn paths_for(&self, actor: &str) -> Vec<String> {
        let store = self.inner.read();
        let mut rows: Vec<Row> = store.requests(actor, None).copied().collect();
        store.sort(&mut rows);
        rows.iter()
            .map(|r| store.symbols.resolve(r.path).to_string())
            .collect()
    }

    /// Clear the log (between experiment phases): rows, interned
    /// strings and the host index all start over.
    pub fn clear(&self) {
        *self.inner.write() = Store::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_min: u64, actor: &str, host: &str, path: &str, src: Ipv4Sim) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_mins(at_min),
            kind: TraceKind::HttpRequest,
            src,
            host: host.to_string(),
            path: path.to_string(),
            user_agent: None,
            actor: actor.to_string(),
        }
    }

    #[test]
    fn shared_clones_append_to_same_log() {
        let log = TraceLog::new();
        let clone = log.clone();
        clone.record(ev(1, "gsb", "a.com", "/", Ipv4Sim::new(1, 1, 1, 1)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn request_and_ip_counts() {
        let log = TraceLog::new();
        log.record(ev(1, "gsb", "a.com", "/", Ipv4Sim::new(1, 1, 1, 1)));
        log.record(ev(2, "gsb", "a.com", "/x", Ipv4Sim::new(1, 1, 1, 1)));
        log.record(ev(3, "gsb", "b.com", "/", Ipv4Sim::new(1, 1, 1, 2)));
        log.record(ev(4, "netcraft", "a.com", "/", Ipv4Sim::new(9, 9, 9, 9)));
        assert_eq!(log.requests_for("gsb", None), 3);
        assert_eq!(log.requests_for("gsb", Some("a.com")), 2);
        assert_eq!(log.unique_ips_for("gsb"), 2);
        assert_eq!(log.unique_ips_for("netcraft"), 1);
        assert_eq!(log.unique_ips_for("nobody"), 0);
    }

    #[test]
    fn fraction_within_window() {
        let log = TraceLog::new();
        for m in [5, 10, 30, 60, 90, 100, 110, 115, 119, 500] {
            log.record(ev(m, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        }
        let f = log.fraction_within("a.com", SimTime::ZERO, SimDuration::from_hours(2));
        assert!((f - 0.9).abs() < 1e-9, "fraction {f}");
        assert_eq!(
            log.fraction_within("none.com", SimTime::ZERO, SimDuration::from_hours(2)),
            0.0
        );
    }

    #[test]
    fn fraction_within_counts_requests_before_start() {
        // The numerator is every request at or before `start + window`,
        // so arrivals before `start` count as "within"; the denominator
        // is every request to the host.
        let log = TraceLog::new();
        for m in [10, 50, 100, 200] {
            log.record(ev(m, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        }
        let f = log.fraction_within("a.com", SimTime::from_mins(60), SimDuration::from_mins(1));
        assert_eq!(f, 0.5);
        let f = log.fraction_within("a.com", SimTime::from_mins(300), SimDuration::ZERO);
        assert_eq!(f, 1.0);
    }

    #[test]
    fn first_request_after_start() {
        let log = TraceLog::new();
        log.record(ev(5, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(12, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        assert_eq!(
            log.first_request_after("a.com", SimTime::from_mins(6)),
            Some(SimTime::from_mins(12))
        );
        assert_eq!(
            log.first_request_after("a.com", SimTime::from_mins(13)),
            None
        );
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let log = TraceLog::new();
        for m in [0, 1, 1, 2, 59, 61, 500] {
            log.record(ev(m, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        }
        let h = log.arrival_histogram(Some("a.com"), SimTime::ZERO, SimDuration::from_mins(30), 2);
        // Buckets: [0-30), [30-60), overflow.
        assert_eq!(h, vec![4, 1, 2]);
    }

    #[test]
    fn paths_in_order() {
        let log = TraceLog::new();
        log.record(ev(1, "op", "a.com", "/shell.php", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(2, "op", "a.com", "/kit.zip", Ipv4Sim::new(1, 0, 0, 1)));
        assert_eq!(log.paths_for("op"), vec!["/shell.php", "/kit.zip"]);
    }

    #[test]
    fn queries_are_append_order_independent() {
        // Two logs fed the same events in different (thread-
        // interleaving-like) orders must answer every order-exposing
        // query identically.
        let events = vec![
            ev(3, "op", "a.com", "/kit.zip", Ipv4Sim::new(1, 0, 0, 2)),
            ev(1, "gsb", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)),
            ev(3, "gsb", "b.com", "/x", Ipv4Sim::new(1, 0, 0, 1)),
            ev(3, "gsb", "a.com", "/y", Ipv4Sim::new(1, 0, 0, 3)),
        ];
        let a = TraceLog::new();
        for e in &events {
            a.record(e.clone());
        }
        let b = TraceLog::new();
        for e in events.iter().rev() {
            b.record(e.clone());
        }
        let digest = |log: &TraceLog| {
            log.snapshot()
                .iter()
                .map(|e| format!("{}|{}|{}|{}|{}", e.at, e.actor, e.host, e.path, e.src))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(log_paths(&a), log_paths(&b));

        fn log_paths(log: &TraceLog) -> Vec<String> {
            let mut p = log.paths_for("gsb");
            p.extend(log.paths_for("op"));
            p
        }
    }

    #[test]
    fn snapshot_orders_by_time_then_content() {
        let log = TraceLog::new();
        log.record(ev(5, "b", "z.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(5, "a", "z.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.record(ev(2, "z", "z.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        let snap = log.snapshot();
        assert_eq!(snap[0].actor, "z", "earlier time first");
        assert_eq!(snap[1].actor, "a", "equal times order by content");
        assert_eq!(snap[2].actor, "b");
    }

    #[test]
    fn clear_resets() {
        let log = TraceLog::new();
        log.record(ev(1, "x", "a.com", "/", Ipv4Sim::new(1, 0, 0, 1)));
        log.clear();
        assert!(log.is_empty());
    }
}
