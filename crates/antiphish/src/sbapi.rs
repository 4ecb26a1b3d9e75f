//! The Safe-Browsing Update-API protocol: hash-prefix lists.
//!
//! §2.1 of the paper: "Users' privacy is preserved by sending the
//! hashed version of the URLs to the server" — and §2.4's caching
//! behaviour ("the cached result usually valid for 5 to 60 minutes")
//! is a property of this protocol's full-hash responses. This module
//! models the protocol at the fidelity the paper relies on:
//!
//! 1. the client periodically downloads a set of **32-bit hash
//!    prefixes** of blacklisted URLs;
//! 2. on navigation it hashes the URL locally and checks the prefix
//!    set — most URLs miss and cost no network traffic and leak
//!    nothing;
//! 3. on a prefix hit it asks the server for the **full hashes** under
//!    that prefix and compares locally; the response carries a cache
//!    TTL (5–60 minutes), which is exactly the blind window the
//!    reCAPTCHA kit hides in.

use crate::blacklist::Blacklist;
use parking_lot::Mutex;
use phishsim_feedserve::{prefix_of, PrefixStore};
use phishsim_http::Url;
use phishsim_simnet::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Full 64-bit hash of a canonicalised URL (query stripped, as the
/// real canonicalisation collapses most expressions).
pub fn full_hash(url: &Url) -> u64 {
    url.without_query().privacy_hash()
}

/// The 32-bit prefix the client shares with the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HashPrefix(pub u32);

impl HashPrefix {
    /// Prefix of a full hash (same convention as
    /// `phishsim_feedserve::prefix_of`).
    pub fn of(hash: u64) -> HashPrefix {
        HashPrefix(prefix_of(hash))
    }
}

/// Memoized snapshot of the blacklist as the Update API serves it:
/// the shared [`PrefixStore`] plus the sorted full hashes behind it.
#[derive(Debug)]
struct Snapshot {
    /// Blacklist mutation version the snapshot was built from.
    version: u64,
    /// Entries listed as of the snapshot's `now` (for a fixed version,
    /// this count uniquely identifies the as-of-time membership —
    /// listings form a filtration).
    listed: usize,
    store: Arc<PrefixStore>,
    /// Sorted full hashes; full-hash fetches range-scan by prefix.
    full: Arc<Vec<u64>>,
}

/// The server side: derives prefix sets and full-hash answers from an
/// engine's blacklist.
///
/// The seed implementation rebuilt a `BTreeSet<HashPrefix>` — parsing
/// and hashing every listed URL — on *every* prefix-set and
/// `full_hashes` call. The store is now the shared
/// `phishsim_feedserve::PrefixStore`, built once per
/// `(blacklist version, listed count)` pair and handed out as an
/// `Arc`; repeat calls within one blacklist state are O(1).
#[derive(Debug)]
pub struct SbServer<'a> {
    list: &'a Blacklist,
    cache: Mutex<Option<Snapshot>>,
}

impl<'a> SbServer<'a> {
    /// Expose a blacklist through the Update API.
    pub fn new(list: &'a Blacklist) -> Self {
        SbServer {
            list,
            cache: Mutex::new(None),
        }
    }

    fn snapshot(&self, now: SimTime) -> (Arc<PrefixStore>, Arc<Vec<u64>>) {
        let version = self.list.version();
        let listed = self.list.listed_count_at(now);
        let mut cache = self.cache.lock();
        if let Some(snap) = cache.as_ref() {
            if snap.version == version && snap.listed == listed {
                return (Arc::clone(&snap.store), Arc::clone(&snap.full));
            }
        }
        let mut full: Vec<u64> = self
            .list
            .feed_snapshot(now)
            .into_iter()
            .filter_map(|(key, _)| Url::parse(&key).ok())
            .map(|u| full_hash(&u))
            .collect();
        full.sort_unstable();
        full.dedup();
        let store = Arc::new(PrefixStore::from_hashes(full.iter().copied()));
        let full = Arc::new(full);
        *cache = Some(Snapshot {
            version,
            listed,
            store: Arc::clone(&store),
            full: Arc::clone(&full),
        });
        (store, full)
    }

    /// The shared prefix store as of `now` (what an update download
    /// installs client-side). Memoized per blacklist state.
    pub fn store(&self, now: SimTime) -> Arc<PrefixStore> {
        self.snapshot(now).0
    }

    /// Full hashes under a prefix as of `now` (the full-hash fetch),
    /// plus the response's cache TTL.
    pub fn full_hashes(&self, prefix: HashPrefix, now: SimTime) -> (Vec<u64>, SimDuration) {
        let (_, full) = self.snapshot(now);
        let lo = u64::from(prefix.0) << 32;
        let start = full.partition_point(|&h| h < lo);
        let hashes = full[start..]
            .iter()
            .copied()
            .take_while(|&h| HashPrefix::of(h) == prefix)
            .collect();
        (hashes, SimDuration::from_mins(30))
    }
}

/// A verdict from the client-side check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SbVerdict {
    /// Not on the list (as far as the client's state says).
    Safe,
    /// Full-hash match: blacklisted.
    Unsafe,
}

/// What one check cost/leaked — the observable the privacy claim is
/// about.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckTrace {
    /// Answered entirely locally; the server learned nothing.
    LocalMiss,
    /// Answered from the full-hash cache; the server learned nothing
    /// new.
    CachedHit,
    /// A full-hash request was sent; the server saw this prefix only.
    PrefixQuery(HashPrefix),
}

#[derive(Debug, Clone)]
struct CachedHashes {
    hashes: Vec<u64>,
    expires_at: SimTime,
}

/// The client side: local prefix store + full-hash cache.
#[derive(Debug)]
pub struct SbClient {
    /// The shared store downloaded at the last update (all clients of
    /// one blacklist state share the same `Arc`).
    store: Arc<PrefixStore>,
    last_update: Option<SimTime>,
    update_period: SimDuration,
    full_hash_cache: HashMap<HashPrefix, CachedHashes>,
    /// Every exchange's trace, for privacy analysis.
    pub traces: Vec<CheckTrace>,
}

impl Default for SbClient {
    fn default() -> Self {
        Self::new(SimDuration::from_mins(30))
    }
}

impl SbClient {
    /// A client that refreshes its prefix store every `update_period`.
    pub fn new(update_period: SimDuration) -> Self {
        SbClient {
            store: Arc::new(PrefixStore::new()),
            last_update: None,
            update_period,
            full_hash_cache: HashMap::new(),
            traces: Vec::new(),
        }
    }

    /// The client's local prefix store.
    pub fn store(&self) -> &PrefixStore {
        &self.store
    }

    /// Whether the local prefix set is due for a refresh.
    pub fn needs_update(&self, now: SimTime) -> bool {
        match self.last_update {
            None => true,
            Some(t) => now.since(t) >= self.update_period,
        }
    }

    /// Download the current prefix store (an `Arc` clone of the
    /// server's memoized snapshot — no per-client rebuild).
    pub fn update(&mut self, server: &SbServer, now: SimTime) {
        self.store = server.store(now);
        self.last_update = Some(now);
    }

    /// Check a URL. Performs an update first if one is due.
    pub fn check(&mut self, url: &Url, server: &SbServer, now: SimTime) -> SbVerdict {
        if self.needs_update(now) {
            self.update(server, now);
        }
        let hash = full_hash(url);
        let prefix = HashPrefix::of(hash);
        if !self.store.contains(prefix.0) {
            self.traces.push(CheckTrace::LocalMiss);
            return SbVerdict::Safe;
        }
        if let Some(cached) = self.full_hash_cache.get(&prefix) {
            if cached.expires_at > now {
                self.traces.push(CheckTrace::CachedHit);
                return if cached.hashes.contains(&hash) {
                    SbVerdict::Unsafe
                } else {
                    SbVerdict::Safe
                };
            }
        }
        let (hashes, ttl) = server.full_hashes(prefix, now);
        self.traces.push(CheckTrace::PrefixQuery(prefix));
        let verdict = if hashes.contains(&hash) {
            SbVerdict::Unsafe
        } else {
            SbVerdict::Safe
        };
        self.full_hash_cache.insert(
            prefix,
            CachedHashes {
                hashes,
                expires_at: now + ttl,
            },
        );
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed_url() -> Url {
        Url::parse("https://victim.com/account/verify.php").unwrap()
    }

    fn list_with(urls: &[&Url], at: SimTime) -> Blacklist {
        let mut b = Blacklist::new();
        for u in urls {
            b.add(u, at);
        }
        b
    }

    #[test]
    fn listed_url_flagged_after_update() {
        let u = listed_url();
        let list = list_with(&[&u], SimTime::from_mins(1));
        let server = SbServer::new(&list);
        let mut client = SbClient::default();
        assert_eq!(
            client.check(&u, &server, SimTime::from_mins(5)),
            SbVerdict::Unsafe
        );
    }

    #[test]
    fn unlisted_urls_cost_nothing_and_leak_nothing() {
        let u = listed_url();
        let list = list_with(&[&u], SimTime::from_mins(1));
        let server = SbServer::new(&list);
        let mut client = SbClient::default();
        client.update(&server, SimTime::from_mins(2));
        for i in 0..50 {
            let clean = Url::parse(&format!("https://clean-site-{i}.com/page")).unwrap();
            let v = client.check(&clean, &server, SimTime::from_mins(3));
            assert_eq!(v, SbVerdict::Safe);
        }
        // With a 50-entry probe over a 1-entry list, 32-bit prefixes
        // should never collide: every trace is a local miss.
        assert!(client.traces.iter().all(|t| *t == CheckTrace::LocalMiss));
    }

    #[test]
    fn server_only_ever_sees_prefixes() {
        let u = listed_url();
        let list = list_with(&[&u], SimTime::from_mins(1));
        let server = SbServer::new(&list);
        let mut client = SbClient::default();
        client.check(&u, &server, SimTime::from_mins(5));
        let queries: Vec<&CheckTrace> = client
            .traces
            .iter()
            .filter(|t| matches!(t, CheckTrace::PrefixQuery(_)))
            .collect();
        assert_eq!(queries.len(), 1);
        // The privacy claim: what went over the wire is 32 bits, not
        // the URL. (The type system enforces it; this documents it.)
        match queries[0] {
            CheckTrace::PrefixQuery(p) => {
                assert_eq!(*p, HashPrefix::of(full_hash(&u)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn full_hash_responses_are_cached() {
        let u = listed_url();
        let list = list_with(&[&u], SimTime::from_mins(1));
        let server = SbServer::new(&list);
        let mut client = SbClient::default();
        let t = SimTime::from_mins(5);
        client.check(&u, &server, t);
        client.check(&u, &server, t + SimDuration::from_mins(1));
        let cached = client
            .traces
            .iter()
            .filter(|tr| matches!(tr, CheckTrace::CachedHit))
            .count();
        assert_eq!(cached, 1, "second check must come from the cache");
    }

    #[test]
    fn stale_prefix_set_is_a_blind_window() {
        // The same-URL swap scenario, protocol-level: the URL gets
        // listed *after* the client's last update; until the next
        // update the client's prefix set misses it entirely.
        let u = listed_url();
        let empty = Blacklist::new();
        let mut client = SbClient::new(SimDuration::from_mins(30));
        {
            let server = SbServer::new(&empty);
            client.update(&server, SimTime::from_mins(0));
        }
        let listed = list_with(&[&u], SimTime::from_mins(1));
        let server = SbServer::new(&listed);
        // Within the update period: blind.
        assert_eq!(
            client.check(&u, &server, SimTime::from_mins(10)),
            SbVerdict::Safe
        );
        assert!(matches!(client.traces.last(), Some(CheckTrace::LocalMiss)));
        // After the period, the auto-update catches it.
        assert_eq!(
            client.check(&u, &server, SimTime::from_mins(31)),
            SbVerdict::Unsafe
        );
    }

    #[test]
    fn query_parameters_do_not_evade_hashing() {
        let u = listed_url();
        let list = list_with(&[&u], SimTime::from_mins(1));
        let server = SbServer::new(&list);
        let mut client = SbClient::default();
        let variant = u.clone().with_param("session", "xyz");
        assert_eq!(
            client.check(&variant, &server, SimTime::from_mins(5)),
            SbVerdict::Unsafe,
            "canonicalisation strips the query"
        );
    }

    #[test]
    fn prefix_collisions_resolve_via_full_hashes() {
        // Construct two URLs and force them under the same prefix via
        // a synthetic list: even when the prefix matches, the full-hash
        // comparison keeps the verdicts distinct.
        let listed = listed_url();
        let unlisted = Url::parse("https://innocent.org/home").unwrap();
        let list = list_with(&[&listed], SimTime::from_mins(1));
        let server = SbServer::new(&list);
        let mut client = SbClient::default();
        client.update(&server, SimTime::from_mins(2));
        // Inject the unlisted URL's prefix into the client store to
        // simulate a collision.
        client.store = Arc::new(PrefixStore::from_prefixes(
            client
                .store
                .iter()
                .chain([HashPrefix::of(full_hash(&unlisted)).0])
                .collect(),
        ));
        let v = client.check(&unlisted, &server, SimTime::from_mins(3));
        assert_eq!(
            v,
            SbVerdict::Safe,
            "collision must not produce a false positive"
        );
        assert!(matches!(
            client.traces.last(),
            Some(CheckTrace::PrefixQuery(_))
        ));
    }
}
