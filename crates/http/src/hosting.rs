//! Virtual hosting: the simulated Nginx front end.
//!
//! The paper uploads its generated sites to "hosting infrastructures in
//! one of the European countries with 22 different IP addresses and the
//! Nginx web server". [`HostingFarm`] reproduces that layer: a farm of
//! hosting IPs, a `Host`-header dispatch table of per-site handlers, TLS
//! certificates per site, and an access log (the shared
//! [`TraceLog`]) that the experiment's log analysis queries.

use crate::message::{Request, Response};
use crate::tls::TlsCertificate;
use phishsim_simnet::{Ipv4Sim, ObsSink, SimTime, TraceEventRef, TraceKind, TraceLog};
use std::collections::HashMap;

/// Per-request context a handler sees (the server-side view).
///
/// Borrows the actor name from the caller: one context is built per
/// fetch on the hot path, and every fetch cloning an owned `String`
/// actor showed up in sweep profiles. Handlers that persist the name
/// (access logs, gate records) own it explicitly via `to_string()`.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx<'a> {
    /// Source address of the client.
    pub src: Ipv4Sim,
    /// Ground-truth actor name (engine name or "human"); real servers
    /// infer this from IP ranges, the simulation records it for
    /// verification.
    pub actor: &'a str,
    /// Server-side timestamp of the request.
    pub now: SimTime,
}

/// A site: something that turns requests into responses. Handlers are
/// stateful (`&mut self`) — the session-gate site stores sessions, the
/// alert-box site logs payload retrievals.
pub trait Handler: Send {
    /// Handle one request.
    fn handle(&mut self, req: &Request, ctx: &RequestCtx<'_>) -> Response;
}

impl<F> Handler for F
where
    F: FnMut(&Request, &RequestCtx<'_>) -> Response + Send,
{
    fn handle(&mut self, req: &Request, ctx: &RequestCtx<'_>) -> Response {
        self(req, ctx)
    }
}

/// Stable hosting-farm shard for a host: which of `shards` hosting
/// farms (providers, in the crawl-fleet's pacing model) serves `host`.
///
/// Real crawl fleets pace their request rate *per hosting provider*,
/// not per URL — hammering one farm gets the whole crawler range
/// blocked. The simulation has no global host→provider table, so the
/// shard is derived the way the farm itself spreads sites over its
/// addresses: a stable hash of the host name folded onto the shard
/// count. FNV-1a keeps the mapping identical across platforms and
/// process runs (the fleet's rate-limit keys must be replayable).
pub fn hosting_shard(host: &str, shards: usize) -> usize {
    assert!(shards > 0, "hosting_shard needs at least one shard");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in host.as_bytes() {
        hash ^= u64::from(b.to_ascii_lowercase());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// `Host`-header dispatch over boxed handlers.
#[derive(Default)]
pub struct VirtualHosting {
    sites: HashMap<String, Box<dyn Handler>>,
}

impl VirtualHosting {
    /// An empty dispatch table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a site for `host`, replacing any existing one.
    pub fn install(&mut self, host: &str, handler: Box<dyn Handler>) {
        self.sites.insert(host.to_ascii_lowercase(), handler);
    }

    /// Remove a site.
    pub fn remove(&mut self, host: &str) -> bool {
        self.sites.remove(&host.to_ascii_lowercase()).is_some()
    }

    /// Hosts currently served.
    pub fn hosts(&self) -> Vec<String> {
        let mut v: Vec<String> = self.sites.keys().cloned().collect();
        v.sort();
        v
    }

    /// Dispatch a request by its URL host; unknown hosts get Nginx's 404.
    pub fn dispatch(&mut self, req: &Request, ctx: &RequestCtx<'_>) -> Response {
        match self.sites.get_mut(&req.url.host) {
            Some(handler) => handler.handle(req, ctx),
            None => Response::not_found(),
        }
    }
}

impl std::fmt::Debug for VirtualHosting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualHosting")
            .field("hosts", &self.hosts())
            .finish()
    }
}

/// The full hosting farm: IPs, sites, certificates, and the access log.
pub struct HostingFarm {
    /// Hosting IP addresses (the paper used 22).
    addrs: Vec<Ipv4Sim>,
    vhosts: VirtualHosting,
    certs: HashMap<String, TlsCertificate>,
    log: TraceLog,
    /// Reused buffer for the logged request target (path + query).
    target_buf: String,
    next_addr: usize,
    obs: ObsSink,
}

impl HostingFarm {
    /// Create a farm over the given addresses, logging to `log`.
    pub fn new(addrs: Vec<Ipv4Sim>, log: TraceLog) -> Self {
        assert!(!addrs.is_empty(), "hosting farm needs at least one IP");
        HostingFarm {
            addrs,
            vhosts: VirtualHosting::new(),
            certs: HashMap::new(),
            log,
            target_buf: String::new(),
            next_addr: 0,
            obs: ObsSink::Null,
        }
    }

    /// Attach an observability sink: every served request emits one
    /// `http.request` span. Because the span is emitted exactly where
    /// the access-log line is recorded, per-actor span counts reconcile
    /// with Table 1's request counts by construction.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Install a site and return the hosting address assigned to it
    /// (round-robin over the farm's IPs, as the paper spread 112 sites
    /// over 22 addresses).
    pub fn install_site(
        &mut self,
        host: &str,
        handler: Box<dyn Handler>,
        cert: Option<TlsCertificate>,
    ) -> Ipv4Sim {
        self.vhosts.install(host, handler);
        if let Some(c) = cert {
            self.certs.insert(host.to_ascii_lowercase(), c);
        }
        let addr = self.addrs[self.next_addr % self.addrs.len()];
        self.next_addr += 1;
        addr
    }

    /// The certificate presented for `host`, if TLS is deployed.
    pub fn certificate(&self, host: &str) -> Option<&TlsCertificate> {
        self.certs.get(&host.to_ascii_lowercase())
    }

    /// Serve one request: append to the access log, then dispatch.
    pub fn serve(&mut self, req: &Request, ctx: &RequestCtx<'_>) -> Response {
        self.target_buf.clear();
        req.url.write_target(&mut self.target_buf);
        self.log.record_ref(TraceEventRef {
            at: ctx.now,
            kind: TraceKind::HttpRequest,
            src: ctx.src,
            host: &req.url.host,
            path: &self.target_buf,
            user_agent: req.user_agent(),
            actor: ctx.actor,
        });
        let span = self
            .obs
            .span_start(None, "http.request", ctx.actor, ctx.now);
        let resp = self.vhosts.dispatch(req, ctx);
        self.obs.span_end(span, ctx.now);
        resp
    }

    /// The farm's access log.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Hosts currently served.
    pub fn hosts(&self) -> Vec<String> {
        self.vhosts.hosts()
    }

    /// The farm's addresses.
    pub fn addrs(&self) -> &[Ipv4Sim] {
        &self.addrs
    }
}

impl std::fmt::Debug for HostingFarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostingFarm")
            .field("addrs", &self.addrs.len())
            .field("hosts", &self.vhosts.hosts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;
    use crate::url::Url;

    fn ctx() -> RequestCtx<'static> {
        RequestCtx {
            src: Ipv4Sim::new(9, 9, 9, 9),
            actor: "test",
            now: SimTime::from_mins(1),
        }
    }

    #[test]
    fn hosting_shard_is_stable_case_insensitive_and_in_range() {
        for shards in [1usize, 7, 22, 64] {
            for host in ["a.com", "B.com", "login-secure.example", "x"] {
                let s = hosting_shard(host, shards);
                assert!(s < shards);
                assert_eq!(s, hosting_shard(host, shards), "stable");
                assert_eq!(
                    hosting_shard(&host.to_ascii_uppercase(), shards),
                    s,
                    "case-insensitive like Host-header dispatch"
                );
            }
        }
        // Distinct hosts spread over shards rather than collapsing.
        let spread: std::collections::HashSet<usize> = (0..100)
            .map(|i| hosting_shard(&format!("site-{i}.com"), 22))
            .collect();
        assert!(spread.len() > 10, "hash must spread hosts across farms");
    }

    #[test]
    fn dispatch_by_host() {
        let mut v = VirtualHosting::new();
        v.install(
            "a.com",
            Box::new(|_req: &Request, _ctx: &RequestCtx| Response::html("site A")),
        );
        v.install(
            "b.com",
            Box::new(|_req: &Request, _ctx: &RequestCtx| Response::html("site B")),
        );
        let ra = v.dispatch(&Request::get(Url::https("a.com", "/")), &ctx());
        assert_eq!(ra.body, "site A");
        let rb = v.dispatch(&Request::get(Url::https("B.COM", "/")), &ctx());
        assert_eq!(rb.body, "site B");
        let rn = v.dispatch(&Request::get(Url::https("c.com", "/")), &ctx());
        assert_eq!(rn.status, Status::NotFound);
    }

    #[test]
    fn stateful_handler_keeps_state() {
        let mut v = VirtualHosting::new();
        let mut hits = 0u32;
        v.install(
            "counter.com",
            Box::new(move |_req: &Request, _ctx: &RequestCtx| {
                hits += 1;
                Response::html(format!("hits={hits}"))
            }),
        );
        let r1 = v.dispatch(&Request::get(Url::https("counter.com", "/")), &ctx());
        let r2 = v.dispatch(&Request::get(Url::https("counter.com", "/")), &ctx());
        assert_eq!(r1.body, "hits=1");
        assert_eq!(r2.body, "hits=2");
    }

    #[test]
    fn remove_site() {
        let mut v = VirtualHosting::new();
        v.install(
            "a.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::html("x")),
        );
        assert!(v.remove("A.com"));
        assert!(!v.remove("a.com"));
        let r = v.dispatch(&Request::get(Url::https("a.com", "/")), &ctx());
        assert_eq!(r.status, Status::NotFound);
    }

    #[test]
    fn farm_logs_and_assigns_addrs_round_robin() {
        let log = TraceLog::new();
        let addrs = vec![Ipv4Sim::new(10, 0, 0, 1), Ipv4Sim::new(10, 0, 0, 2)];
        let mut farm = HostingFarm::new(addrs, log.clone());
        let a1 = farm.install_site(
            "a.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::html("A")),
            None,
        );
        let a2 = farm.install_site(
            "b.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::html("B")),
            None,
        );
        let a3 = farm.install_site(
            "c.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::html("C")),
            None,
        );
        assert_ne!(a1, a2);
        assert_eq!(a1, a3, "round robin wraps");
        let req = Request::get(Url::https("a.com", "/index.php").with_param("q", "1"))
            .with_user_agent("TestAgent/1.0");
        farm.serve(&req, &ctx());
        assert_eq!(log.len(), 1);
        let e = &log.snapshot()[0];
        assert_eq!(e.host, "a.com");
        assert_eq!(e.path, "/index.php?q=1");
        assert_eq!(e.user_agent.as_deref(), Some("TestAgent/1.0"));
        assert_eq!(e.actor, "test");
    }

    #[test]
    fn obs_spans_reconcile_with_access_log() {
        let log = TraceLog::new();
        let mut farm = HostingFarm::new(vec![Ipv4Sim::new(10, 0, 0, 1)], log.clone());
        let sink = ObsSink::memory();
        farm.set_obs(sink.clone());
        farm.install_site(
            "a.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::html("A")),
            None,
        );
        for _ in 0..5 {
            farm.serve(&Request::get(Url::https("a.com", "/")), &ctx());
        }
        // Unknown host still produces a log line and a span (404s are
        // requests too).
        farm.serve(&Request::get(Url::https("nope.com", "/")), &ctx());
        let counts = sink.buffer().unwrap().span_counts_by_actor("http.request");
        assert_eq!(counts.get("test"), Some(&6));
        assert_eq!(log.requests_for("test", None), 6);
    }

    #[test]
    fn farm_serves_certificates() {
        let log = TraceLog::new();
        let mut farm = HostingFarm::new(vec![Ipv4Sim::new(10, 0, 0, 1)], log);
        let cert = crate::tls::CertificateAuthority::acme().issue("tls.com", SimTime::ZERO);
        farm.install_site(
            "tls.com",
            Box::new(|_: &Request, _: &RequestCtx| Response::html("ok")),
            Some(cert),
        );
        assert!(farm.certificate("TLS.com").is_some());
        assert!(farm.certificate("other.com").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one IP")]
    fn empty_farm_panics() {
        HostingFarm::new(vec![], TraceLog::new());
    }
}
