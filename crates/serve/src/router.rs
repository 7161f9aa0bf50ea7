//! The thin routing tier: consistent-hash request routing over the
//! static peer list, with failover to survivors when a shard is down.
//!
//! `occache-route` owns no scheduler, no cache and no traces — it parses
//! just enough of each request to compute routing keys, forwards
//! canonicalised requests to the owning shard, and merges shard
//! responses. Ownership uses rendezvous (highest-random-weight) hashing
//! over [`route_key`]: every router and every node rank the peer list
//! identically for a key, rankings are stable across restarts (the hash
//! has no seed or process state), and removing one peer reassigns only
//! the keys that peer owned — the minimal-disruption property the
//! membership-change tests pin down.
//!
//! The routing key deliberately differs from the cache's
//! [`occache_runtime::keys::point_key`]: the true point key hashes the
//! materialised trace fingerprint, which only a node that has generated
//! the traces can know. [`route_key`] hashes the *request identity* —
//! model name, reference count, warm-up and the config's full `Debug`
//! rendering. Trace generation is deterministic, so two requests with
//! equal route keys resolve to the same point key on every node; the
//! router stays trace-free and still agrees with the shards about
//! ownership.
//!
//! Failure model: a forward to the owner that fails (deadline, refused,
//! torn response) is retried per [`crate::peer::PeerPolicy`], then the
//! request re-ranks to the best *available* survivor — which computes
//! the point itself rather than proxying on (forwarded requests carry
//! `peer_fill: true`, suppressing onward fan-out). Only when every peer
//! is unreachable does the router answer, and then with a structured,
//! retryable 503 — never an unattributed error.
//!
//! [`Router`] is a [`Handler`] behind the same [`Listener`] the node
//! runs, so its connection deadlines, 408/413/400 refusals and
//! connection faults (`OCCACHE_SERVE_FAULT`'s `torn-write`,
//! `stall-read`, `drop-conn`) are the node's, and every status it
//! writes is counted in `occache_route_client_errors_total` or
//! `occache_route_server_errors_total`.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use occache_core::CacheConfig;
use occache_runtime::instrument::{Counter, Registry};
use occache_runtime::keys::fnv1a;

use crate::fault::ServeFault;
use crate::http::{Handler, Listener, Reply, Request, CONN_TIMEOUT};
use crate::json::{escape, ErrorBody, Json};
use crate::peer::{PeerPolicy, PeerSet};
use crate::service::parse_point_request;

/// Default bind address for the router.
const DEFAULT_ROUTE_ADDR: &str = "127.0.0.1:7806";

/// The routing key of one design point: FNV-1a over the request
/// identity (lowercased model, refs, warm-up, config `Debug`). Nodes
/// and routers must compute this identically — it is the unit of
/// ownership.
pub fn route_key(model: &str, refs: usize, warmup: usize, config: &CacheConfig) -> u64 {
    fnv1a(
        format!(
            "route\u{1f}{}\u{1f}{refs}\u{1f}{warmup}\u{1f}{config:?}",
            model.to_ascii_lowercase()
        )
        .as_bytes(),
    )
}

/// The rendezvous weight of `peer` for `key`.
fn score(peer: &str, key: u64) -> u64 {
    let mut bytes = Vec::with_capacity(peer.len() + 9);
    bytes.extend_from_slice(peer.as_bytes());
    bytes.push(0xff);
    bytes.extend_from_slice(&key.to_le_bytes());
    fnv1a(&bytes)
}

/// Peers ranked best-first for `key` (rendezvous hashing, ties broken
/// by address so the order is total). `ranked(...)[0]` is the owner;
/// the rest is the deterministic failover order.
pub fn ranked(key: u64, peers: &[String]) -> Vec<&str> {
    let mut scored: Vec<(u64, &str)> = peers.iter().map(|p| (score(p, key), p.as_str())).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    scored.into_iter().map(|(_, p)| p).collect()
}

/// The peer owning `key`: the top-ranked entry of the full list.
pub fn owner(key: u64, peers: &[String]) -> &str {
    ranked(key, peers).first().copied().unwrap_or("")
}

/// Renders one config as the request-body JSON object the nodes parse.
pub fn config_json(config: &CacheConfig) -> String {
    format!(
        "{{\"net\":{},\"block\":{},\"sub\":{},\"assoc\":{},\"word\":{}}}",
        config.net_size(),
        config.block_size(),
        config.sub_block_size(),
        config.associativity(),
        config.word_size(),
    )
}

/// Renders the canonical peer-to-peer request body: explicit `refs` and
/// `warmup` (so both sides compute identical route keys regardless of
/// local defaults) and `peer_fill: true` (so the receiving node answers
/// from its own cache/scheduler without fanning out further).
pub fn render_peer_request(
    model: &str,
    refs: usize,
    warmup: usize,
    configs: &[CacheConfig],
    single: bool,
) -> String {
    let model = escape(model);
    if single {
        let config = configs.first().map(config_json).unwrap_or_default();
        format!(
            "{{\"model\":\"{model}\",\"refs\":{refs},\"warmup\":{warmup},\
             \"peer_fill\":true,\"config\":{config}}}"
        )
    } else {
        let points: Vec<String> = configs.iter().map(config_json).collect();
        format!(
            "{{\"model\":\"{model}\",\"refs\":{refs},\"warmup\":{warmup},\
             \"peer_fill\":true,\"points\":[{}]}}",
            points.join(",")
        )
    }
}

/// Extracts the raw text inside `"field":[ ... ]` without reparsing —
/// shard responses are spliced byte-for-byte into the merged response so
/// the exact float renderings survive. Returns `None` when the field is
/// absent or unterminated. Safe against brackets inside JSON strings
/// (string state and escapes are tracked; a literal `"field":[` cannot
/// occur inside a JSON string because its quotes would be escaped).
fn extract_array_raw<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":[");
    let start = body.find(&needle)? + needle.len();
    let bytes = body.as_bytes();
    let mut depth = 1usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[start..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Router tuning, normally read from the environment.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`OCCACHE_ROUTE_ADDR`, default `127.0.0.1:7806`).
    pub addr: String,
    /// The shard list (`OCCACHE_PEERS`, required).
    pub peers: Vec<String>,
    /// Default references when a request omits `refs` (`OCCACHE_REFS`).
    pub default_refs: usize,
    /// Peer call deadline/retry/breaker policy ([`PeerPolicy::default`]
    /// in production).
    pub policy: PeerPolicy,
    /// Per-connection wall-clock deadline ([`CONN_TIMEOUT`] in
    /// production; `None` disables).
    pub conn_timeout: Option<Duration>,
    /// Deterministic chaos injection (`OCCACHE_SERVE_FAULT`).
    pub fault: Option<Arc<ServeFault>>,
}

impl RouterConfig {
    /// Reads the configuration from the environment. `OCCACHE_PEERS` is
    /// mandatory — a router with no shards routes nothing.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed variable.
    pub fn try_from_env() -> Result<RouterConfig, String> {
        let peers = occache_runtime::config::try_peers()?
            .ok_or("OCCACHE_PEERS must be set for occache-route")?;
        Ok(RouterConfig {
            addr: std::env::var("OCCACHE_ROUTE_ADDR")
                .unwrap_or_else(|_| DEFAULT_ROUTE_ADDR.to_string()),
            peers,
            default_refs: occache_experiments::sweep::try_trace_len()?,
            policy: PeerPolicy::default(),
            conn_timeout: Some(CONN_TIMEOUT),
            fault: ServeFault::try_from_env()?.map(Arc::new),
        })
    }

    /// A test configuration: ephemeral port, fast peer policy.
    pub fn for_tests(peers: Vec<String>) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            peers,
            default_refs: 2_000,
            policy: PeerPolicy::for_tests(),
            conn_timeout: Some(CONN_TIMEOUT),
            fault: None,
        }
    }
}

/// Router request counters.
#[derive(Debug, Default)]
struct RouteCounters {
    requests: Counter,
    forwarded: Counter,
    rerouted: Counter,
    unroutable: Counter,
    scrapes: Counter,
    client_errors: Counter,
    server_errors: Counter,
}

/// The routing service shared by every connection thread.
#[derive(Debug)]
pub struct Router {
    peers: Arc<PeerSet>,
    addrs: Vec<String>,
    default_refs: usize,
    counters: RouteCounters,
    fault: Option<Arc<ServeFault>>,
    started: Instant,
}

impl Router {
    /// Builds the router and starts its peer probes.
    pub fn new(config: &RouterConfig) -> Router {
        let peers = PeerSet::start(
            config.peers.clone(),
            None,
            config.policy.clone(),
            config.fault.clone(),
        );
        Router {
            addrs: peers.addrs(),
            peers,
            default_refs: config.default_refs,
            counters: RouteCounters::default(),
            fault: config.fault.clone(),
            started: Instant::now(),
        }
    }

    /// The live peer set (tests and embedders).
    pub fn peers(&self) -> &Arc<PeerSet> {
        &self.peers
    }

    /// Tries `key`'s peers best-first: available ones in ranked order,
    /// then — if the breaker benched everyone — the owner regardless, so
    /// a fully-benched cluster still gets one live attempt instead of a
    /// reflex 503. Returns the relayed response and whether a non-owner
    /// answered.
    fn forward_ranked(&self, key: u64, path: &str, body: &str) -> Option<(u16, Vec<u8>, bool)> {
        let order = ranked(key, &self.addrs);
        let mut attempted = false;
        for (i, addr) in order.iter().enumerate() {
            if !self.peers.available(addr) {
                continue;
            }
            attempted = true;
            if let Ok((status, reply)) = self.peers.call(addr, "POST", path, body.as_bytes()) {
                return Some((status, reply, i > 0));
            }
        }
        if !attempted {
            if let Some(addr) = order.first() {
                if let Ok((status, reply)) = self.peers.call(addr, "POST", path, body.as_bytes()) {
                    return Some((status, reply, false));
                }
            }
        }
        None
    }

    fn forward_simulate(&self, body: &[u8]) -> (u16, String) {
        let parsed = match parse_point_request(body, self.default_refs) {
            Ok(p) => p,
            Err(why) => return (400, ErrorBody::new("bad-request", &why, false).render()),
        };
        let Some(config) = parsed.configs.first().copied() else {
            return (
                400,
                ErrorBody::new("bad-request", "no config given", false).render(),
            );
        };
        let key = route_key(&parsed.model, parsed.refs, parsed.warmup, &config);
        let wire = render_peer_request(&parsed.model, parsed.refs, parsed.warmup, &[config], true);
        match self.forward_ranked(key, "/v1/simulate", &wire) {
            Some((status, reply, rerouted)) => {
                self.counters.forwarded.bump();
                if rerouted {
                    self.counters.rerouted.bump();
                }
                (status, String::from_utf8_lossy(&reply).into_owned())
            }
            None => {
                self.counters.unroutable.bump();
                (
                    503,
                    ErrorBody::new("no-peers-available", "every peer is unreachable", true)
                        .render(),
                )
            }
        }
    }

    fn forward_sweep(&self, body: &[u8]) -> (u16, String) {
        let parsed = match parse_point_request(body, self.default_refs) {
            Ok(p) => p,
            Err(why) => return (400, ErrorBody::new("bad-request", &why, false).render()),
        };
        if parsed.configs.is_empty() {
            return (
                400,
                ErrorBody::new("bad-request", "empty grid", false).render(),
            );
        }
        // Partition the grid by owner — BTreeMap so sub-requests (and
        // the merged point order) are deterministic.
        let mut groups: BTreeMap<&str, Vec<CacheConfig>> = BTreeMap::new();
        for config in &parsed.configs {
            let key = route_key(&parsed.model, parsed.refs, parsed.warmup, config);
            let order = ranked(key, &self.addrs);
            let target = order
                .iter()
                .find(|a| self.peers.available(a))
                .or_else(|| order.first())
                .copied()
                .unwrap_or("");
            groups.entry(target).or_default().push(*config);
        }
        let mut total = 0u64;
        let mut cached = 0u64;
        let mut computed = 0u64;
        let mut points = String::new();
        let mut failures = String::new();
        for (addr, configs) in &groups {
            let wire =
                render_peer_request(&parsed.model, parsed.refs, parsed.warmup, configs, false);
            let key = route_key(&parsed.model, parsed.refs, parsed.warmup, &configs[0]);
            let reply = if let Ok(r) = self.peers.call(addr, "POST", "/v1/sweep", wire.as_bytes()) {
                self.counters.forwarded.bump();
                Some(r)
            } else {
                // The group's owner is gone mid-request: re-rank and let
                // a survivor compute the whole group.
                self.forward_ranked(key, "/v1/sweep", &wire)
                    .map(|(status, reply, _)| {
                        self.counters.forwarded.bump();
                        self.counters.rerouted.bump();
                        (status, reply)
                    })
            };
            let Some((status, reply)) = reply else {
                self.counters.unroutable.bump();
                return (
                    503,
                    ErrorBody::new("no-peers-available", "every peer is unreachable", true)
                        .render(),
                );
            };
            let text = String::from_utf8_lossy(&reply).into_owned();
            if status != 200 {
                // One shard refusing (429 under pressure, 503 draining)
                // fails the whole sweep with that shard's own structured
                // body — attributed, and retryable when the shard says so.
                return (status, text);
            }
            let doc = match Json::parse(&text) {
                Ok(d) => d,
                Err(e) => {
                    self.counters.unroutable.bump();
                    return (
                        502,
                        ErrorBody::new(
                            "bad-peer-response",
                            &format!("peer {addr} sent unparseable sweep response: {e}"),
                            true,
                        )
                        .render(),
                    );
                }
            };
            let field = |name: &str| doc.get(name).and_then(Json::as_u64).unwrap_or(0);
            total += field("total");
            cached += field("cached");
            computed += field("computed");
            for (dst, name) in [(&mut points, "points"), (&mut failures, "failures")] {
                if let Some(raw) = extract_array_raw(&text, name) {
                    if !raw.is_empty() {
                        if !dst.is_empty() {
                            dst.push(',');
                        }
                        dst.push_str(raw);
                    }
                }
            }
        }
        (
            200,
            format!(
                "{{\"model\":\"{}\",\"refs\":{},\"warmup\":{},\"total\":{total},\
                 \"cached\":{cached},\"computed\":{computed},\
                 \"points\":[{points}],\"failures\":[{failures}]}}",
                escape(&parsed.model),
                parsed.refs,
                parsed.warmup,
            ),
        )
    }

    fn status_json(&self) -> String {
        let up = self
            .addrs
            .iter()
            .filter(|a| self.peers.available(a))
            .count();
        // `journal_replayed` is always 0 here — the router is stateless —
        // but stays in the schema so dashboards read one shape for both
        // front-ends.
        format!(
            "{{\"service\":\"occache-route\",\"peers\":{},\"peers_up\":{up},\
             \"forwarded\":{},\"rerouted\":{},\"unroutable\":{},\
             \"peer_down_total\":{},\"uptime_s\":{},\
             \"journal_replayed\":0}}",
            self.addrs.len(),
            self.counters.forwarded.get(),
            self.counters.rerouted.get(),
            self.counters.unroutable.get(),
            self.peers.down_total(),
            self.started.elapsed().as_secs(),
        )
    }

    fn metrics_text(&self) -> String {
        let mut reg = Registry::new();
        reg.counter(
            "occache_route_requests_total",
            "Requests accepted by the router.",
            self.counters.requests.get(),
        )
        .counter(
            "occache_route_forwarded_total",
            "Requests forwarded to a shard.",
            self.counters.forwarded.get(),
        )
        .counter(
            "occache_route_rerouted_total",
            "Requests answered by a survivor instead of the owner.",
            self.counters.rerouted.get(),
        )
        .counter(
            "occache_route_unroutable_total",
            "Requests refused because every peer was unreachable.",
            self.counters.unroutable.get(),
        )
        .counter(
            "occache_route_client_errors_total",
            "Requests answered 4xx.",
            self.counters.client_errors.get(),
        )
        .counter(
            "occache_route_server_errors_total",
            "Requests answered 5xx.",
            self.counters.server_errors.get(),
        )
        .counter(
            "occache_peer_down_total",
            "Per-peer circuit-breaker trips.",
            self.peers.down_total(),
        )
        .counter(
            "occache_peer_probe_failures_total",
            "Failed liveness probes.",
            self.peers.probe_failures(),
        )
        .counter(
            "occache_peer_calls_total",
            "Outbound peer calls attempted.",
            self.peers.calls_made(),
        )
        .labeled_gauge(
            "occache_peer_state",
            "Per-peer breaker state: 0 down, 1 half-open, 2 up.",
            "peer",
            self.peers.state_gauge(),
        )
        .gauge_seconds(
            "occache_uptime_seconds",
            "Seconds since router start.",
            self.started.elapsed().as_secs_f64(),
        );
        if let Some(fault) = &self.fault {
            for (kind, fired) in fault.injected() {
                reg.counter(
                    &format!("occache_fault_{kind}_injected_total"),
                    "Chaos injections fired (OCCACHE_SERVE_FAULT).",
                    fired,
                );
            }
        }
        reg.render_prometheus()
    }
}

impl Handler for Router {
    fn handle(&self, request: &Request) -> Reply {
        self.counters.requests.bump();
        let path = request
            .head
            .target
            .split('?')
            .next()
            .unwrap_or(&request.head.target);
        let method = request.head.method.as_str();
        let (status, body) = match (method, path) {
            ("POST", "/v1/simulate") => self.forward_simulate(&request.body),
            ("POST", "/v1/sweep") => self.forward_sweep(&request.body),
            ("GET", "/v1/health") => (200, "{\"status\":\"ok\"}".to_string()),
            ("GET", "/v1/ready") => {
                if self.addrs.iter().any(|a| self.peers.available(a)) {
                    (200, "{\"ready\":true}".to_string())
                } else {
                    (
                        503,
                        ErrorBody::new("no-peers-available", "every peer is down", true).render(),
                    )
                }
            }
            ("GET", "/v1/status") => {
                self.counters.scrapes.bump();
                (200, self.status_json())
            }
            ("GET", "/metrics") => {
                self.counters.scrapes.bump();
                return Reply::metrics(self.metrics_text());
            }
            (
                _,
                "/v1/simulate" | "/v1/sweep" | "/v1/status" | "/v1/health" | "/v1/ready"
                | "/metrics",
            ) => (
                405,
                ErrorBody::new("method-not-allowed", "method not allowed", false).render(),
            ),
            _ => (
                404,
                ErrorBody::new("not-found", "no such endpoint", false).render(),
            ),
        };
        Reply::json(status, body)
    }

    fn answered(&self, status: u16) {
        match status {
            400..=499 => self.counters.client_errors.bump(),
            500..=599 => self.counters.server_errors.bump(),
            _ => {}
        }
    }

    fn shutdown(&self) {
        self.peers.shutdown();
    }
}

/// A running router: the shared [`Listener`] in front of a [`Router`].
pub type RouterServer = Listener<Router>;

impl RouterServer {
    /// Binds and starts the listener. [`Listener::stop`] stops
    /// accepting, drains, and joins the peer probes.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: &RouterConfig) -> io::Result<RouterServer> {
        let socket = TcpListener::bind(&config.addr)?;
        Listener::spawn(
            socket,
            "occache-route",
            Arc::new(Router::new(config)),
            config.conn_timeout,
            config.fault.clone(),
        )
    }

    /// The shared router (tests and embedders).
    pub fn router(&self) -> &Arc<Router> {
        self.handler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn peers(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:780{i}")).collect()
    }

    #[test]
    fn ranking_is_deterministic_across_restarts() {
        // A "restart" is just a second computation — the hash carries no
        // process state, so equal inputs must rank equally, always.
        let list = peers(5);
        for key in 0..512u64 {
            assert_eq!(ranked(key, &list), ranked(key, &list));
        }
    }

    #[test]
    fn removing_one_peer_reassigns_only_its_keys() {
        let full = peers(5);
        let removed = "10.0.0.2:7802";
        let survivors: Vec<String> = full.iter().filter(|p| *p != removed).cloned().collect();
        let mut reassigned = 0usize;
        for key in 0..4096u64 {
            let before = owner(key, &full);
            let after = owner(key, &survivors);
            if before == removed {
                reassigned += 1;
                assert_ne!(after, removed);
            } else {
                assert_eq!(before, after, "key {key} moved although its owner survived");
            }
        }
        assert!(
            reassigned > 0,
            "the removed peer owned nothing in 4096 keys"
        );
    }

    #[test]
    fn route_key_separates_every_identity_field() {
        let config = occache_core::CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(4)
            .word_size(2)
            .build()
            .unwrap();
        let other = occache_core::CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(8)
            .word_size(2)
            .build()
            .unwrap();
        let base = route_key("pdp11", 1000, 0, &config);
        assert_eq!(
            base,
            route_key("PDP11", 1000, 0, &config),
            "model case-folds"
        );
        assert_ne!(base, route_key("s370", 1000, 0, &config));
        assert_ne!(base, route_key("pdp11", 1001, 0, &config));
        assert_ne!(base, route_key("pdp11", 1000, 100, &config));
        assert_ne!(base, route_key("pdp11", 1000, 0, &other));
    }

    #[test]
    fn extract_array_raw_handles_strings_and_nesting() {
        let body = r#"{"total":2,"points":[{"key":"00ab","config":{"net":64}},{"key":"00cd"}],"failures":[{"message":"odd ] brace } in text"}]}"#;
        assert_eq!(
            extract_array_raw(body, "points"),
            Some(r#"{"key":"00ab","config":{"net":64}},{"key":"00cd"}"#)
        );
        assert_eq!(
            extract_array_raw(body, "failures"),
            Some(r#"{"message":"odd ] brace } in text"}"#)
        );
        assert_eq!(extract_array_raw(body, "absent"), None);
        assert_eq!(extract_array_raw(r#"{"points":["#, "points"), None);
        assert_eq!(extract_array_raw(r#"{"points":[]}"#, "points"), Some(""));
    }

    #[test]
    fn peer_request_round_trips_through_the_node_parser() {
        let config = occache_core::CacheConfig::builder()
            .net_size(128)
            .block_size(16)
            .sub_block_size(4)
            .associativity(2)
            .word_size(4)
            .build()
            .unwrap();
        let wire = render_peer_request("s370", 5000, 100, &[config], false);
        let parsed = parse_point_request(wire.as_bytes(), 999).unwrap();
        assert_eq!(parsed.model, "s370");
        assert_eq!(parsed.refs, 5000);
        assert_eq!(parsed.warmup, 100);
        assert!(parsed.fill, "peer requests suppress onward fan-out");
        assert_eq!(parsed.configs, vec![config]);
        assert_eq!(
            route_key("s370", 5000, 100, &config),
            route_key(
                &parsed.model,
                parsed.refs,
                parsed.warmup,
                &parsed.configs[0]
            ),
            "routing agrees across the wire"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Minimal disruption, property form: dropping any one peer from
        /// any small cluster reassigns only that peer's keys.
        #[test]
        fn membership_change_is_minimal_disruption(
            n in 2usize..6,
            gone in 0usize..6,
            key in 0u64..=u64::MAX,
        ) {
            let full = peers(n);
            let gone = &full[gone % n].clone();
            let survivors: Vec<String> =
                full.iter().filter(|p| *p != gone).cloned().collect();
            let before = owner(key, &full).to_string();
            let after = owner(key, &survivors).to_string();
            if before == *gone {
                prop_assert_ne!(&after, gone);
            } else {
                prop_assert_eq!(&before, &after);
            }
        }

        /// Every key has exactly one owner and the full ranking is a
        /// permutation of the peer list.
        #[test]
        fn ranking_is_a_permutation(n in 1usize..8, key in 0u64..=u64::MAX) {
            let list = peers(n);
            let order = ranked(key, &list);
            prop_assert_eq!(order.len(), n);
            let mut sorted: Vec<&str> = order.clone();
            sorted.sort_unstable();
            let mut expect: Vec<&str> = list.iter().map(String::as_str).collect();
            expect.sort_unstable();
            prop_assert_eq!(sorted, expect);
        }
    }
}
