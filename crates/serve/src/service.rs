//! The node service: routing, request handling, the trace-set store,
//! and graceful shutdown. The listener and connection loop are
//! [`crate::http::Listener`]; [`Service`] is its [`Handler`].
//!
//! Endpoints:
//!
//! * `POST /v1/simulate` — one design point against a named workload
//!   model; served from the result cache when the content-addressed key
//!   matches, otherwise scheduled on the worker pool.
//! * `POST /v1/sweep` — a grid of points in one request; cache-checked
//!   per point, the misses submitted back-to-back so a worker coalesces
//!   them into multisim engine slices.
//! * `GET /v1/status` — one JSON object for humans and health checks.
//! * `GET /v1/health` — liveness: 200 whenever the process can answer.
//! * `GET /v1/ready` — readiness: 503 once draining begins.
//! * `GET /metrics` — Prometheus-style text exposition.
//!
//! Failure model (DESIGN.md §10): every connection runs under a
//! wall-clock deadline ([`crate::http::CONN_TIMEOUT`]) so a slow-loris
//! client gets a 408 and a close, never a parked thread; admission
//! control sheds bulk (grid) work at half the queue capacity and
//! interactive points only when it is full, with a queue-depth-derived
//! `Retry-After`; a per-point circuit breaker ([`crate::breaker`])
//! quarantines keys that keep failing; with `OCCACHE_SERVE_JOURNAL`
//! set, computed points go write-behind, through the journal
//! [`Appender`] the batch checkpoint layer uses too, to
//! `<dir>/.checkpoint/serve.jsonl`, so a
//! crashed-and-restarted server answers them from disk bit-identically
//! (with any batch journal in the same directory); and every error is a
//! structured [`ErrorBody`] with fault attribution.
//!
//! Shutdown: the listener watches both [`Server::stop`] and the
//! process-wide SIGINT/SIGTERM flag (`occache_runtime::interrupt`).
//! Readiness flips to 503 first, in-flight connections drain, then the
//! scheduler drains and joins and the peer probes stop.

use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use occache_core::CacheConfig;
use occache_experiments::sweep::materialize;
use occache_runtime::config::env_usize;
use occache_runtime::eval::{PointError, PointFault};
use occache_runtime::executor::SupervisorPolicy;
use occache_runtime::fmt::fmt_f64_exact;
use occache_runtime::journal::{journal_path, Appender, Entry, JournalScan, Record};
use occache_runtime::keys::{point_key, trace_fingerprint};
use occache_runtime::store::PointStore;
use occache_workloads::WorkloadSpec;

use crate::breaker::{Breaker, DEFAULT_THRESHOLD};
use crate::fault::ServeFault;
use crate::http::{Handler, Listener, Reply, Request, CONN_TIMEOUT};
use crate::json::{escape, ErrorBody, Json};
use crate::metrics::{Counters, Gauges, PeerStats};
use crate::peer::{PeerPolicy, PeerSet};
use crate::router::{ranked, render_peer_request, route_key};
use occache_runtime::queue::{Job, Priority, Scheduler, SubmitError, TraceSet};

/// The journal artifact the serving layer appends to (batch sweeps use
/// their experiment names).
const JOURNAL: &str = "serve";

/// Bounded scheduler queue capacity.
const QUEUE_CAPACITY: usize = 256;

/// Max design points coalesced per evaluation.
const MAX_BATCH: usize = 64;

/// Result-cache capacity in entries.
const CACHE_CAPACITY: usize = 65_536;

/// How long a request handler waits for the scheduler to answer before
/// returning 503. Generous: the supervisor's own per-point deadline
/// fires first when one is configured.
const REPLY_TIMEOUT: Duration = Duration::from_secs(300);

/// Service tuning, normally read from the environment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`OCCACHE_SERVE_ADDR`, default `127.0.0.1:7807`;
    /// port 0 picks an ephemeral port).
    pub addr: String,
    /// Scheduler worker threads (`OCCACHE_SERVE_WORKERS`; unset or `0`
    /// ⇒ hardware parallelism).
    pub workers: usize,
    /// Bounded queue capacity (256 in production).
    pub queue_capacity: usize,
    /// Max design points coalesced per evaluation (64 in production).
    pub max_batch: usize,
    /// Result-cache capacity in entries (65 536 in production).
    pub cache_capacity: usize,
    /// Default references per trace when a request omits `refs`
    /// (`OCCACHE_REFS`, default the paper's 1 million).
    pub default_refs: usize,
    /// Supervisor policy for evaluations (deadline, retries).
    pub policy: SupervisorPolicy,
    /// Per-connection wall-clock deadline ([`CONN_TIMEOUT`] in
    /// production; `None` disables).
    pub conn_timeout: Option<Duration>,
    /// Directory for the write-behind result journal
    /// (`OCCACHE_SERVE_JOURNAL`; unset ⇒ no journalling, no warm start).
    /// The journal lands at `<dir>/.checkpoint/serve.jsonl`. At startup
    /// every intact point of every `<dir>/.checkpoint/*.jsonl` — this
    /// journal and any batch sweep's — warm-starts the cache, so a
    /// results directory can be served directly.
    pub journal_dir: Option<String>,
    /// Consecutive failures per point key before the circuit breaker
    /// quarantines it ([`DEFAULT_THRESHOLD`] in production; 0 disables).
    pub breaker_threshold: u32,
    /// Deterministic chaos injection (`OCCACHE_SERVE_FAULT`; unset ⇒
    /// none).
    pub fault: Option<Arc<ServeFault>>,
    /// The cluster's static peer list (`OCCACHE_PEERS`; unset ⇒
    /// single-node, no fill, no probes).
    pub peers: Option<Vec<String>>,
    /// This node's own entry in `peers` (`OCCACHE_SELF`; required when
    /// `peers` is set).
    pub self_addr: Option<String>,
    /// Deadline/retry/breaker policy for outbound peer calls
    /// ([`PeerPolicy::default`] in production).
    pub peer_policy: PeerPolicy,
}

impl ServiceConfig {
    /// Reads the configuration from the environment.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed variable.
    pub fn try_from_env() -> Result<ServiceConfig, String> {
        let peers = occache_runtime::config::try_peers()?;
        // Trace generation sizes its pool from OCCACHE_SLICE_THREADS.
        occache_runtime::config::try_slice_threads()?;
        let workers = match env_usize("OCCACHE_SERVE_WORKERS", 0)? {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            n => n,
        };
        Ok(ServiceConfig {
            addr: std::env::var("OCCACHE_SERVE_ADDR")
                .unwrap_or_else(|_| "127.0.0.1:7807".to_string()),
            workers,
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            cache_capacity: CACHE_CAPACITY,
            default_refs: occache_experiments::sweep::try_trace_len()?,
            policy: SupervisorPolicy::try_from_env()?,
            conn_timeout: Some(CONN_TIMEOUT),
            journal_dir: std::env::var("OCCACHE_SERVE_JOURNAL")
                .ok()
                .filter(|s| !s.is_empty()),
            breaker_threshold: DEFAULT_THRESHOLD,
            fault: ServeFault::try_from_env()?.map(Arc::new),
            self_addr: match &peers {
                Some(list) => Some(occache_runtime::config::try_self_addr(list)?),
                None => None,
            },
            peers,
            peer_policy: PeerPolicy::default(),
        })
    }

    /// A small configuration for tests: ephemeral port, tiny defaults,
    /// no deadline, no journal.
    pub fn for_tests() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_batch: 64,
            cache_capacity: 1024,
            default_refs: 2_000,
            policy: SupervisorPolicy::disabled(),
            conn_timeout: Some(CONN_TIMEOUT),
            journal_dir: None,
            breaker_threshold: DEFAULT_THRESHOLD,
            fault: None,
            peers: None,
            self_addr: None,
            peer_policy: PeerPolicy::for_tests(),
        }
    }
}

/// The shared service state behind every connection thread.
#[derive(Debug)]
pub struct Service {
    scheduler: Scheduler,
    cache: PointStore,
    counters: Counters,
    traces: Mutex<HashMap<(String, usize), Arc<TraceSet>>>,
    default_refs: usize,
    started: Instant,
    breaker: Breaker,
    journal: Option<Appender>,
    peers: Option<Arc<PeerSet>>,
    fault: Option<Arc<ServeFault>>,
    draining: AtomicBool,
    journal_replayed: usize,
}

impl Service {
    /// Builds the service: starts the worker pool, loads its point store
    /// from every journal in its `.checkpoint/` directory — the
    /// service's own (crash recovery) and any batch sweep's — and opens
    /// its journal's appender from that same read of its own: the keys
    /// already on disk are not appended again, even ones the bounded
    /// store evicted at load.
    pub fn new(config: &ServiceConfig) -> Service {
        let mut policy = config.policy.clone();
        if let Some(plan) = config.fault.as_ref().and_then(|f| f.worker_fault()) {
            policy.fault = plan;
        }
        let counters = Counters::default();
        let mut journal = None;
        let mut cache = PointStore::new(config.cache_capacity);
        if let Some(dir) = &config.journal_dir {
            let dir_path = std::path::Path::new(dir);
            let own = format!("{JOURNAL}.jsonl");
            let mut on_disk = JournalScan::default();
            cache = PointStore::load_with(dir_path, config.cache_capacity, |name, scan| {
                if name == own {
                    on_disk = scan.clone();
                }
            });
            if !cache.is_empty() {
                let n = cache.len();
                eprintln!("crash recovery: {n} point(s) restored from {dir}/.checkpoint");
            }
            if on_disk.needs_repair() {
                eprintln!(
                    "serve journal {}: {} bad line(s), {} torn tail byte(s) — skipped",
                    journal_path(dir_path, JOURNAL).display(),
                    on_disk.issues.len(),
                    on_disk.torn_tail_bytes,
                );
            }
            let appended = Arc::clone(&counters.journal_appends);
            match Appender::open(dir_path, JOURNAL, &on_disk, appended) {
                Ok(appender) => journal = Some(appender),
                Err(e) => {
                    eprintln!("write-behind journal in {dir} unavailable ({e}); serving without");
                }
            }
        }
        let journal_replayed = cache.len();
        Service {
            scheduler: Scheduler::new(
                config.workers,
                config.queue_capacity,
                config.max_batch,
                policy,
            ),
            cache,
            counters,
            traces: Mutex::new(HashMap::new()),
            default_refs: config.default_refs,
            started: Instant::now(),
            breaker: Breaker::new(config.breaker_threshold),
            journal,
            peers: config.peers.clone().map(|peers| {
                PeerSet::start(
                    peers,
                    config.self_addr.clone(),
                    config.peer_policy.clone(),
                    config.fault.clone(),
                )
            }),
            fault: config.fault.clone(),
            draining: AtomicBool::new(false),
            journal_replayed,
        }
    }

    /// Whether the service would answer `/v1/ready` with 200.
    pub fn ready(&self) -> bool {
        !self.draining.load(Ordering::SeqCst) && !occache_runtime::interrupt::requested()
    }

    /// Marks the service as draining: `/v1/ready` flips to 503 so a
    /// load balancer stops routing here while in-flight work finishes.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// The point store (integration tests inspect it).
    pub fn cache(&self) -> &PointStore {
        &self.cache
    }

    /// Materialises (or recalls) the named model at `refs` references
    /// per trace. Generation happens under the store lock: concurrent
    /// first requests for the same set wait instead of duplicating the
    /// work.
    fn trace_set(&self, model: &str, refs: usize) -> Result<Arc<TraceSet>, String> {
        let specs = WorkloadSpec::set_by_name(model).ok_or_else(|| {
            format!(
                "unknown model {model:?} (sets: {}; any Table 2-5 trace name also works)",
                WorkloadSpec::set_names().join(", ")
            )
        })?;
        let key = (model.to_ascii_lowercase(), refs);
        let mut store = self.traces.lock().expect("trace store lock");
        if let Some(set) = store.get(&key) {
            return Ok(Arc::clone(set));
        }
        let traces = materialize(&specs, refs);
        let fingerprint = trace_fingerprint(&traces);
        let set = Arc::new(TraceSet {
            traces,
            fingerprint,
        });
        store.insert(key, Arc::clone(&set));
        Ok(set)
    }

    fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.scheduler.queue_depth(),
            workers: self.scheduler.workers(),
            workers_busy: self.scheduler.busy_workers(),
            cache_entries: self.cache.len(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            ready: self.ready(),
            draining: self.draining.load(Ordering::SeqCst),
            retry_after: self.scheduler.suggested_retry_after(),
        }
    }

    fn status_json(&self) -> String {
        let g = self.gauges();
        // Peer summary: how many cluster peers this node knows and how
        // many its breakers currently consider routable. A single node
        // reports 0/0.
        let (peers, peers_up) = match &self.peers {
            Some(set) => {
                let addrs = set.addrs();
                let up = addrs.iter().filter(|a| set.available(a)).count();
                (addrs.len(), up)
            }
            None => (0, 0),
        };
        format!(
            "{{\"service\":\"occache-serve\",\"queue_depth\":{},\"workers\":{},\
             \"workers_busy\":{},\"cache_entries\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"uptime_s\":{},\"ready\":{},\
             \"draining\":{},\"retry_after\":{},\"quarantined\":{},\
             \"journal_replayed\":{},\"peers\":{},\"peers_up\":{}}}",
            g.queue_depth,
            g.workers,
            g.workers_busy,
            g.cache_entries,
            g.cache_hits,
            g.cache_misses,
            self.started.elapsed().as_secs(),
            g.ready,
            g.draining,
            g.retry_after,
            self.breaker.tripped(),
            self.journal_replayed,
            peers,
            peers_up,
        )
    }

    /// Records a computed point everywhere it belongs: the store, the
    /// write-behind journal, the counters.
    fn commit_point(&self, key: u64, entry: Entry) {
        self.cache.insert(key, entry, None);
        self.counters.points_computed.bump();
        if let Some(journal) = &self.journal {
            journal.append(Record::Point(key, entry));
        }
        self.breaker.record_success(key);
    }

    /// Warm-cache fill: asks each remote owner for this request's
    /// missing points before computing anything locally. Points that
    /// come back are committed as fills; points whose owner is down,
    /// self, or whose fill call failed stay missing and fall through to
    /// the local scheduler (counted as steals when a remote owner should
    /// have had them). Returns how many points were filled.
    fn peer_fill(
        &self,
        peers: &PeerSet,
        parsed: &PointRequest,
        missing: &[(CacheConfig, u64)],
    ) -> usize {
        let addrs = peers.addrs();
        let mut groups: HashMap<String, Vec<(CacheConfig, u64)>> = HashMap::new();
        for (config, key) in missing {
            let rkey = route_key(&parsed.model, parsed.refs, parsed.warmup, config);
            let order = ranked(rkey, &addrs);
            let Some(&owner) = order.first() else {
                continue;
            };
            if peers.is_self(owner) {
                continue; // ours to compute; no fill, no steal
            }
            if !peers.available(owner) {
                self.counters.peer_steal.bump();
                continue;
            }
            groups
                .entry(owner.to_string())
                .or_default()
                .push((*config, *key));
        }
        let mut filled = 0usize;
        for (addr, points) in &groups {
            let configs: Vec<CacheConfig> = points.iter().map(|(c, _)| *c).collect();
            let wire =
                render_peer_request(&parsed.model, parsed.refs, parsed.warmup, &configs, false);
            if let Ok((200, reply)) = peers.call(addr, "POST", "/v1/sweep", wire.as_bytes()) {
                filled += self.absorb_fill(&reply);
            }
            // Whatever the owner did not deliver is stolen: computed
            // here even though the key hashes elsewhere.
            for (_, key) in points {
                if !self.cache.contains(*key) {
                    self.counters.peer_steal.bump();
                }
            }
        }
        filled
    }

    /// Parses a peer's sweep response and commits every returned point
    /// as a fill: cached and journalled (so a crash-restart replays it),
    /// but *not* counted computed — `occache_points_computed_total`
    /// stays a truthful measure of local scheduler work. The `f64`
    /// metrics round-trip bit-exactly because both sides render with
    /// [`fmt_f64_exact`].
    fn absorb_fill(&self, reply: &[u8]) -> usize {
        let Ok(text) = std::str::from_utf8(reply) else {
            return 0;
        };
        let Ok(doc) = Json::parse(text) else {
            return 0;
        };
        let Some(points) = doc.get("points").and_then(Json::as_array) else {
            return 0;
        };
        let mut filled = 0usize;
        for p in points {
            let Some(key) = p
                .get("key")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
            else {
                continue;
            };
            let metric = |name: &str| p.get(name).and_then(Json::as_f64);
            let (Some(miss), Some(traffic), Some(nibble), Some(redundant)) = (
                metric("miss_ratio"),
                metric("traffic_ratio"),
                metric("nibble_traffic_ratio"),
                metric("redundant_load_fraction"),
            ) else {
                continue;
            };
            let entry = Entry {
                miss,
                traffic,
                nibble,
                redundant,
            };
            if self.cache.insert(key, entry, None) {
                filled += 1;
                self.counters.peer_fill_points.bump();
                if let Some(journal) = &self.journal {
                    journal.append(Record::Point(key, entry));
                }
            }
        }
        filled
    }

    /// `POST /v1/simulate`: one design point, interactive lane.
    fn simulate(&self, body: &[u8]) -> (u16, String) {
        let parsed = match parse_point_request(body, self.default_refs) {
            Ok(p) => p,
            Err(why) => return (400, err("bad-request", &why, false)),
        };
        let set = match self.trace_set(&parsed.model, parsed.refs) {
            Ok(s) => s,
            Err(why) => return (400, err("bad-request", &why, false)),
        };
        let config = match parsed.configs.first() {
            Some(c) => *c,
            None => return (400, err("bad-request", "no config given", false)),
        };
        if parsed.fill {
            self.counters.peer_fill_served.bump();
        }
        let key = point_key(&config, set.fingerprint, parsed.warmup);
        if let Some(entry) = self.cache.get(key) {
            self.counters.points_cached.bump();
            return (200, point_json(&parsed, config, key, &entry, true));
        }
        // Miss: if another shard owns this key, ask it before computing
        // (`peer_fill` requests themselves never fan out further).
        if !parsed.fill {
            if let Some(peers) = &self.peers {
                if self.peer_fill(peers, &parsed, &[(config, key)]) > 0 {
                    if let Some(entry) = self.cache.get(key) {
                        self.counters.points_cached.bump();
                        return (200, point_json(&parsed, config, key, &entry, true));
                    }
                }
            }
        }
        if self.breaker.is_quarantined(key) {
            self.counters.quarantined.bump();
            return (
                503,
                ErrorBody::new(
                    "quarantined",
                    "point keeps failing; circuit breaker is open",
                    false,
                )
                .with_key(key)
                .render(),
            );
        }
        let (tx, rx) = channel();
        let submit = self.scheduler.submit(Job {
            config,
            traces: Arc::clone(&set),
            warmup: parsed.warmup,
            priority: Priority::Interactive,
            key,
            reply: tx,
        });
        match submit {
            Err(SubmitError::Busy) => {
                self.counters.shed_interactive.bump();
                return (429, err("queue-full", "queue full; retry shortly", true));
            }
            Err(SubmitError::Closed) => {
                return (503, err("draining", "service is shutting down", false))
            }
            Ok(()) => {}
        }
        match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(result) => match result.result {
                Ok(point) => {
                    let entry = Entry::of(&point);
                    self.commit_point(key, entry);
                    (200, point_json(&parsed, config, key, &entry, false))
                }
                Err(e) => {
                    self.breaker.record_failure(key);
                    (500, point_error_body(&e, key))
                }
            },
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => (
                503,
                ErrorBody::new(
                    "evaluation-timeout",
                    "evaluation did not finish in time",
                    false,
                )
                .with_key(key)
                .render(),
            ),
        }
    }

    /// `POST /v1/sweep`: a grid in one request, bulk lane (shed first
    /// under pressure).
    fn sweep(&self, body: &[u8]) -> (u16, String) {
        let parsed = match parse_point_request(body, self.default_refs) {
            Ok(p) => p,
            Err(why) => return (400, err("bad-request", &why, false)),
        };
        if parsed.configs.is_empty() {
            return (400, err("bad-request", "empty grid", false));
        }
        let set = match self.trace_set(&parsed.model, parsed.refs) {
            Ok(s) => s,
            Err(why) => return (400, err("bad-request", &why, false)),
        };
        if parsed.fill {
            self.counters.peer_fill_served.bump();
        }
        let keys: Vec<u64> = parsed
            .configs
            .iter()
            .map(|c| point_key(c, set.fingerprint, parsed.warmup))
            .collect();
        // Fill pass: batch-ask each remote owner for the points it
        // should already hold, so the cache pass below hits instead of
        // recomputing another shard's work.
        if !parsed.fill {
            if let Some(peers) = &self.peers {
                let missing: Vec<(CacheConfig, u64)> = keys
                    .iter()
                    .zip(&parsed.configs)
                    .filter(|(key, _)| !self.cache.contains(**key))
                    .map(|(key, config)| (*config, *key))
                    .collect();
                if !missing.is_empty() {
                    self.peer_fill(peers, &parsed, &missing);
                }
            }
        }
        // Cache pass first, then submit every miss back-to-back so a
        // worker claims them as one coalesced batch.
        let mut slots: Vec<Option<(Entry, bool)>> = Vec::with_capacity(keys.len());
        for &key in &keys {
            slots.push(self.cache.get(key).map(|e| (e, true)));
        }
        let (tx, rx) = channel();
        let mut pending = 0usize;
        let mut failures: Vec<PointError> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            if self.breaker.is_quarantined(key) {
                self.counters.quarantined.bump();
                failures.push(PointError {
                    config: parsed.configs[i],
                    fault: PointFault::Quarantined,
                    message: "point keeps failing; circuit breaker is open".to_string(),
                });
                continue;
            }
            let submit = self.scheduler.submit(Job {
                config: parsed.configs[i],
                traces: Arc::clone(&set),
                warmup: parsed.warmup,
                priority: Priority::Bulk,
                key,
                reply: tx.clone(),
            });
            match submit {
                Ok(()) => pending += 1,
                Err(SubmitError::Busy) => {
                    // Any already-submitted jobs still run; their replies
                    // land in the dropped receiver harmlessly and their
                    // results still reach the cache via a later request.
                    self.counters.shed_bulk.bump();
                    return (429, err("queue-full", "queue full; retry shortly", true));
                }
                Err(SubmitError::Closed) => {
                    return (503, err("draining", "service is shutting down", false));
                }
            }
        }
        drop(tx);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut by_key: HashMap<u64, Result<Entry, PointError>> = HashMap::new();
        while pending > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(reply) => {
                    pending -= 1;
                    match reply.result {
                        Ok(point) => {
                            let entry = Entry::of(&point);
                            self.commit_point(reply.key, entry);
                            by_key.insert(reply.key, Ok(entry));
                        }
                        Err(e) => {
                            self.breaker.record_failure(reply.key);
                            by_key.insert(reply.key, Err(e));
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    return (
                        503,
                        err(
                            "evaluation-timeout",
                            "evaluation did not finish in time",
                            false,
                        ),
                    );
                }
            }
        }
        let mut points = String::new();
        let mut cached = 0usize;
        let mut computed = 0usize;
        for (i, (&key, config)) in keys.iter().zip(&parsed.configs).enumerate() {
            let (entry, was_cached) = match &slots[i] {
                Some((entry, _)) => (*entry, true),
                None => match by_key.get(&key) {
                    Some(Ok(entry)) => (*entry, false),
                    Some(Err(e)) => {
                        failures.push(e.clone());
                        continue;
                    }
                    // Duplicate configs in one request share a key and a
                    // single computed reply covers them all.
                    None => continue,
                },
            };
            if was_cached {
                cached += 1;
            } else {
                computed += 1;
            }
            if !points.is_empty() {
                points.push(',');
            }
            points.push_str(&point_json_inner(*config, key, &entry, was_cached));
        }
        let mut fail_text = String::new();
        for e in &failures {
            if !fail_text.is_empty() {
                fail_text.push(',');
            }
            fail_text.push_str(&format!(
                "{{\"config\":\"{}\",\"fault\":\"{}\",\"message\":\"{}\"}}",
                escape(&e.config.to_string()),
                e.fault,
                escape(&e.message),
            ));
        }
        (
            200,
            format!(
                "{{\"model\":\"{}\",\"refs\":{},\"warmup\":{},\"total\":{},\
                 \"cached\":{cached},\"computed\":{computed},\
                 \"points\":[{points}],\"failures\":[{fail_text}]}}",
                escape(&parsed.model),
                parsed.refs,
                parsed.warmup,
                parsed.configs.len(),
            ),
        )
    }
}

impl Handler for Service {
    fn handle(&self, request: &Request) -> Reply {
        self.counters.requests.bump();
        let path = request
            .head
            .target
            .split('?')
            .next()
            .unwrap_or(&request.head.target);
        let method = request.head.method.as_str();
        let started = Instant::now();
        let (status, body) = match (method, path) {
            ("POST", "/v1/simulate") => {
                self.counters.simulate.bump();
                let out = self.simulate(&request.body);
                self.counters.latency.record(started.elapsed());
                out
            }
            ("POST", "/v1/sweep") => {
                self.counters.sweep.bump();
                let out = self.sweep(&request.body);
                self.counters.latency.record(started.elapsed());
                out
            }
            ("GET", "/v1/status") => {
                self.counters.scrapes.bump();
                (200, self.status_json())
            }
            ("GET", "/v1/health") => {
                // Liveness: answering at all is the signal.
                (200, "{\"status\":\"ok\"}".to_string())
            }
            ("GET", "/v1/ready") => {
                if self.ready() {
                    (200, "{\"ready\":true}".to_string())
                } else {
                    (503, err("draining", "service is draining", false))
                }
            }
            ("GET", "/metrics") => {
                self.counters.scrapes.bump();
                let faults = self.fault.as_ref().map(|f| f.injected());
                let peer_stats = self.peers.as_ref().map(|p| PeerStats {
                    states: p.state_gauge(),
                    down_total: p.down_total(),
                    probe_failures: p.probe_failures(),
                    calls: p.calls_made(),
                });
                let text = crate::metrics::render(
                    &self.counters,
                    self.gauges(),
                    &self.scheduler.worker_busy(),
                    faults.as_ref().map_or(&[], |f| &f[..]),
                    peer_stats.as_ref(),
                );
                return Reply::metrics(text);
            }
            (
                _,
                "/v1/simulate" | "/v1/sweep" | "/v1/status" | "/v1/health" | "/v1/ready"
                | "/metrics",
            ) => (405, err("method-not-allowed", "method not allowed", false)),
            _ => (404, err("not-found", "no such endpoint", false)),
        };
        let mut reply = Reply::json(status, body);
        if status == 429 {
            self.counters.rejected.bump();
            reply.headers.push((
                "Retry-After",
                self.scheduler.suggested_retry_after().to_string(),
            ));
        }
        reply
    }

    fn answered(&self, status: u16) {
        if status == 408 {
            self.counters.timeouts.bump();
        }
        match status {
            400..=499 => self.counters.client_errors.bump(),
            500..=599 => self.counters.server_errors.bump(),
            _ => {}
        }
    }

    fn drain(&self) {
        self.begin_drain();
    }

    fn shutdown(&self) {
        self.scheduler.shutdown();
        if let Some(peers) = &self.peers {
            peers.shutdown();
        }
    }
}

/// A decoded simulate/sweep request body. Shared with the router, which
/// parses only to compute routing keys.
#[derive(Debug)]
pub(crate) struct PointRequest {
    pub(crate) model: String,
    pub(crate) refs: usize,
    pub(crate) warmup: usize,
    /// `peer_fill: true` marks a peer-originated request: answer from
    /// local cache/scheduler, never fan out again (no fill loops).
    pub(crate) fill: bool,
    pub(crate) configs: Vec<CacheConfig>,
}

pub(crate) fn parse_point_request(
    body: &[u8],
    default_refs: usize,
) -> Result<PointRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let model = doc
        .get("model")
        .and_then(Json::as_str)
        .ok_or("missing \"model\"")?
        .to_string();
    let refs = match doc.get("refs") {
        None => default_refs,
        Some(v) => v.as_usize().ok_or("\"refs\" must be a whole number")?,
    };
    if refs == 0 {
        return Err("\"refs\" must be positive".into());
    }
    let warmup = match doc.get("warmup") {
        None => 0,
        Some(v) => v.as_usize().ok_or("\"warmup\" must be a whole number")?,
    };
    let fill = match doc.get("peer_fill") {
        None => false,
        Some(v) => v.as_bool().ok_or("\"peer_fill\" must be a boolean")?,
    };
    let default_word = WorkloadSpec::set_by_name(&model)
        .and_then(|specs| specs.first().map(|s| s.arch().word_size()))
        .unwrap_or(2);
    let mut configs = Vec::new();
    if let Some(config) = doc.get("config") {
        configs.push(parse_config(config, default_word)?);
    }
    if let Some(points) = doc.get("points").and_then(Json::as_array) {
        for p in points {
            configs.push(parse_config(p, default_word)?);
        }
    }
    if let Some(grid) = doc.get("grid") {
        let nets = grid
            .get("nets")
            .and_then(Json::as_array)
            .ok_or("\"grid\" needs a \"nets\" array")?;
        let word = match grid.get("word") {
            None => default_word,
            Some(v) => v.as_u64().ok_or("\"word\" must be a whole number")?,
        };
        let assoc = match grid.get("assoc") {
            None => 4,
            Some(v) => v.as_u64().ok_or("\"assoc\" must be a whole number")?,
        };
        for net in nets {
            let net = net
                .as_u64()
                .ok_or("\"nets\" entries must be whole numbers")?;
            for (block, sub) in occache_experiments::sweep::table1_pairs(net, word) {
                let config = CacheConfig::builder()
                    .net_size(net)
                    .block_size(block)
                    .sub_block_size(sub)
                    .associativity(assoc)
                    .word_size(word)
                    .build()
                    .map_err(|e| format!("grid config ({net},{block},{sub}): {e}"))?;
                configs.push(config);
            }
        }
    }
    if configs.is_empty() {
        return Err("no \"config\", \"points\", or \"grid\" given".into());
    }
    Ok(PointRequest {
        model,
        refs,
        warmup,
        fill,
        configs,
    })
}

fn parse_config(doc: &Json, default_word: u64) -> Result<CacheConfig, String> {
    let field = |name: &str| -> Result<u64, String> {
        doc.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("config needs a whole-number \"{name}\""))
    };
    let word = match doc.get("word") {
        None => default_word,
        Some(v) => v.as_u64().ok_or("\"word\" must be a whole number")?,
    };
    let assoc = match doc.get("assoc") {
        None => 4,
        Some(v) => v.as_u64().ok_or("\"assoc\" must be a whole number")?,
    };
    CacheConfig::builder()
        .net_size(field("net")?)
        .block_size(field("block")?)
        .sub_block_size(field("sub")?)
        .associativity(assoc)
        .word_size(word)
        .build()
        .map_err(|e| format!("invalid config: {e}"))
}

/// Shorthand for a rendered [`ErrorBody`] without a point key.
fn err(code: &str, message: &str, retryable: bool) -> String {
    ErrorBody::new(code, message, retryable).render()
}

/// The structured body for a failed evaluation: code `eval-<fault>`
/// (e.g. `eval-panic`, `eval-timeout`), the point key attributed.
/// Panics are marked retryable — the supervisor's own retry already
/// absorbed transient ones, but a client retry can still succeed when
/// the failure was injected chaos; systematic failures hit the circuit
/// breaker and turn into non-retryable `quarantined` instead.
fn point_error_body(e: &PointError, key: u64) -> String {
    let retryable = matches!(e.fault, PointFault::Panic | PointFault::WorkerLoss);
    ErrorBody::new(
        &format!("eval-{}", e.fault),
        &format!("point evaluation failed ({}): {}", e.config, e.message),
        retryable,
    )
    .with_key(key)
    .render()
}

/// The per-point response fields shared by simulate and sweep. `f64`
/// metrics use [`fmt_f64_exact`] — the shortest exact rendering, shared
/// with the checkpoint journal — so a cached response is bit-identical
/// to the computed one.
fn point_json_inner(config: CacheConfig, key: u64, entry: &Entry, cached: bool) -> String {
    format!(
        "{{\"key\":\"{key:016x}\",\"cached\":{cached},\
         \"config\":{{\"net\":{},\"block\":{},\"sub\":{},\"assoc\":{},\"word\":{}}},\
         \"gross_size\":{},\"miss_ratio\":{},\"traffic_ratio\":{},\
         \"nibble_traffic_ratio\":{},\"redundant_load_fraction\":{}}}",
        config.net_size(),
        config.block_size(),
        config.sub_block_size(),
        config.associativity(),
        config.word_size(),
        config.gross_size(),
        fmt_f64_exact(entry.miss),
        fmt_f64_exact(entry.traffic),
        fmt_f64_exact(entry.nibble),
        fmt_f64_exact(entry.redundant),
    )
}

fn point_json(
    parsed: &PointRequest,
    config: CacheConfig,
    key: u64,
    entry: &Entry,
    cached: bool,
) -> String {
    let inner = point_json_inner(config, key, entry, cached);
    format!(
        "{{\"model\":\"{}\",\"refs\":{},\"warmup\":{},{}",
        escape(&parsed.model),
        parsed.refs,
        parsed.warmup,
        &inner[1..],
    )
}

/// A running node: the shared [`Listener`] in front of a [`Service`].
pub type Server = Listener<Service>;

impl Server {
    /// Binds, starts the worker pool and the listener, and returns.
    /// The bound address (with the real port when `:0` was asked) is in
    /// [`Listener::addr`]. [`Listener::stop`] shuts down gracefully:
    /// readiness flips, connections drain, then the scheduler queue
    /// drains and the peer probes stop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: &ServiceConfig) -> io::Result<Server> {
        let socket = TcpListener::bind(&config.addr)?;
        Listener::spawn(
            socket,
            "occache",
            Arc::new(Service::new(config)),
            config.conn_timeout,
            config.fault.clone(),
        )
    }

    /// The shared service (tests and embedders).
    pub fn service(&self) -> &Arc<Service> {
        self.handler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_point_request_reads_config_points_and_grid() {
        let body = br#"{"model":"pdp11","refs":5000,"config":{"net":1024,"block":16,"sub":8}}"#;
        let p = parse_point_request(body, 999).unwrap();
        assert_eq!(p.model, "pdp11");
        assert_eq!(p.refs, 5000);
        assert_eq!(p.configs.len(), 1);
        assert_eq!(p.configs[0].word_size(), 2, "PDP-11 word default");

        let grid = br#"{"model":"pdp11","grid":{"nets":[64],"assoc":4}}"#;
        let p = parse_point_request(grid, 999).unwrap();
        assert_eq!(
            p.configs.len(),
            occache_experiments::sweep::table1_pairs(64, 2).len()
        );
        assert_eq!(p.refs, 999, "default refs apply");

        let points =
            br#"{"model":"s370","points":[{"net":64,"block":8,"sub":4},{"net":64,"block":8,"sub":8}]}"#;
        let p = parse_point_request(points, 999).unwrap();
        assert_eq!(p.configs.len(), 2);
        assert_eq!(p.configs[0].word_size(), 4, "S/370 word default");
    }

    #[test]
    fn parse_point_request_rejects_junk() {
        for bad in [
            &b"not json"[..],
            br#"{"refs":1}"#,
            br#"{"model":"pdp11"}"#,
            br#"{"model":"pdp11","refs":0,"config":{"net":64,"block":8,"sub":4}}"#,
            br#"{"model":"pdp11","config":{"net":63,"block":8,"sub":4}}"#,
            br#"{"model":"pdp11","grid":{}}"#,
        ] {
            assert!(
                parse_point_request(bad, 100).is_err(),
                "{:?} parsed",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn point_json_is_parseable_and_carries_exact_floats() {
        let config = CacheConfig::builder()
            .net_size(1024)
            .block_size(16)
            .sub_block_size(8)
            .word_size(2)
            .build()
            .unwrap();
        let entry = Entry {
            miss: 1.0 / 3.0,
            traffic: 0.1 + 0.2,
            nibble: 6e-9,
            redundant: 0.0,
        };
        let text = point_json_inner(config, 0xabcd, &entry, true);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("miss_ratio")
                .and_then(Json::as_f64)
                .map(f64::to_bits),
            Some((1.0f64 / 3.0).to_bits())
        );
        assert_eq!(
            doc.get("gross_size").and_then(Json::as_u64),
            Some(config.gross_size())
        );
    }
}
