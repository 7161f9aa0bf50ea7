//! Peer tracking for the multi-node tier: per-peer health with a
//! circuit breaker, background liveness probes, and the bounded-retry
//! HTTP client every outbound peer call goes through.
//!
//! Both the shard nodes (warm-cache fill, [`crate::service`]) and the
//! router ([`crate::router`]) hold a [`PeerSet`]. A peer is `Up` until
//! [`PeerPolicy::failure_threshold`] *consecutive* probe or request
//! failures trip its breaker to `Down`; down peers are skipped by
//! routing and fill for [`PeerPolicy::cooldown`], after which the next
//! caller or probe goes through as a `HalfOpen` trial — one success
//! restores `Up`, one failure re-opens the breaker. A background thread
//! probes `GET /v1/health` on every non-self peer at
//! [`PeerPolicy::probe_interval`], so a dead peer is discovered and a
//! recovered one re-admitted even when no traffic is flowing.
//!
//! Every outbound call carries a strict deadline
//! (`OCCACHE_PEER_TIMEOUT`) spanning connect, write and read, and is
//! retried at most `OCCACHE_PEER_RETRIES` times with deterministic
//! (FNV-jittered, not random) backoff. Callers treat exhaustion as "peer
//! unavailable" and fall back — the router re-ranks to a survivor, a
//! node computes locally — so a peer failure is never surfaced to a
//! client as an unattributed error.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use occache_runtime::keys::fnv1a;

use crate::fault::ServeFault;

/// Consecutive failures before a peer's breaker opens.
const DEFAULT_FAILURE_THRESHOLD: u32 = 3;

/// How long an open breaker holds a peer out before a half-open trial.
const DEFAULT_COOLDOWN: Duration = Duration::from_secs(2);

/// Background liveness-probe cadence.
const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// Cap on one deterministic backoff step between peer-call retries.
const BACKOFF_CAP: Duration = Duration::from_millis(250);

/// Tuning for peer calls and the per-peer breaker.
#[derive(Debug, Clone)]
pub struct PeerPolicy {
    /// Strict wall-clock deadline for one peer call, connect included
    /// (`OCCACHE_PEER_TIMEOUT`, default 2 s, cannot be disabled).
    pub timeout: Duration,
    /// Retries after a failed peer call before the caller falls back
    /// (`OCCACHE_PEER_RETRIES`, default 1).
    pub retries: usize,
    /// Consecutive failures that trip the breaker (default 3).
    pub failure_threshold: u32,
    /// How long a tripped peer is skipped before a half-open trial
    /// (default 2 s).
    pub cooldown: Duration,
    /// Liveness-probe cadence (default 500 ms).
    pub probe_interval: Duration,
}

impl PeerPolicy {
    /// Reads `OCCACHE_PEER_TIMEOUT` / `OCCACHE_PEER_RETRIES`; breaker
    /// thresholds are fixed policy, not knobs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed variable.
    pub fn try_from_env() -> Result<PeerPolicy, String> {
        Ok(PeerPolicy {
            timeout: occache_runtime::config::try_peer_timeout()?,
            retries: occache_runtime::config::try_peer_retries()?,
            ..PeerPolicy::default()
        })
    }

    /// A fast-cycling policy for tests: short deadline, short cooldown.
    pub fn for_tests() -> PeerPolicy {
        PeerPolicy {
            timeout: Duration::from_millis(500),
            retries: 1,
            failure_threshold: 2,
            cooldown: Duration::from_millis(200),
            probe_interval: Duration::from_millis(50),
        }
    }
}

impl Default for PeerPolicy {
    fn default() -> PeerPolicy {
        PeerPolicy {
            timeout: occache_runtime::config::DEFAULT_PEER_TIMEOUT,
            retries: occache_runtime::config::DEFAULT_PEER_RETRIES,
            failure_threshold: DEFAULT_FAILURE_THRESHOLD,
            cooldown: DEFAULT_COOLDOWN,
            probe_interval: DEFAULT_PROBE_INTERVAL,
        }
    }
}

/// Breaker position for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealth {
    /// Taking traffic.
    Up,
    /// Breaker open: skipped until the cooldown expires.
    Down,
    /// Cooldown expired: the next call is a trial.
    HalfOpen,
}

#[derive(Debug)]
enum Health {
    Up,
    Down { until: Instant },
    HalfOpen,
}

#[derive(Debug)]
struct PeerState {
    health: Health,
    consecutive_failures: u32,
}

#[derive(Debug)]
struct Peer {
    addr: String,
    state: Mutex<PeerState>,
}

/// The static peer list with live per-peer health.
#[derive(Debug)]
pub struct PeerSet {
    peers: Vec<Peer>,
    self_addr: Option<String>,
    policy: PeerPolicy,
    fault: Option<Arc<ServeFault>>,
    down_total: AtomicU64,
    probe_failures: AtomicU64,
    fill_requests: AtomicU64,
    stop: AtomicBool,
    probe: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl PeerSet {
    /// Builds the set and starts the background probe thread (which
    /// skips `self_addr` — a node does not probe itself).
    pub fn start(
        peers: Vec<String>,
        self_addr: Option<String>,
        policy: PeerPolicy,
        fault: Option<Arc<ServeFault>>,
    ) -> Arc<PeerSet> {
        let set = Arc::new(PeerSet {
            peers: peers
                .into_iter()
                .map(|addr| Peer {
                    addr,
                    state: Mutex::new(PeerState {
                        health: Health::Up,
                        consecutive_failures: 0,
                    }),
                })
                .collect(),
            self_addr,
            policy,
            fault,
            down_total: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            fill_requests: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            probe: Mutex::new(None),
        });
        let handle = {
            let set = Arc::clone(&set);
            std::thread::Builder::new()
                .name("occache-probe".to_string())
                .spawn(move || probe_loop(&set))
                .ok()
        };
        *set.probe.lock().expect("probe handle lock") = handle;
        set
    }

    /// Stops and joins the probe thread. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.probe.lock().expect("probe handle lock").take() {
            let _ = handle.join();
        }
    }

    /// The configured peer addresses, in list order.
    pub fn addrs(&self) -> Vec<String> {
        self.peers.iter().map(|p| p.addr.clone()).collect()
    }

    /// This node's own address in the peer list (nodes only; the router
    /// has none).
    pub fn self_addr(&self) -> Option<&str> {
        self.self_addr.as_deref()
    }

    /// Whether `addr` is this node itself.
    pub fn is_self(&self, addr: &str) -> bool {
        self.self_addr.as_deref() == Some(addr)
    }

    /// The call deadline/retry policy in force.
    pub fn policy(&self) -> &PeerPolicy {
        &self.policy
    }

    fn peer(&self, addr: &str) -> Option<&Peer> {
        self.peers.iter().find(|p| p.addr == addr)
    }

    /// Whether `addr` should be offered traffic right now. A down peer
    /// whose cooldown has expired flips to half-open here, making the
    /// asking caller the trial.
    pub fn available(&self, addr: &str) -> bool {
        if self.is_self(addr) {
            return true;
        }
        let Some(peer) = self.peer(addr) else {
            return false;
        };
        let mut state = peer.state.lock().expect("peer state lock");
        match state.health {
            Health::Up | Health::HalfOpen => true,
            Health::Down { until } => {
                if Instant::now() >= until {
                    state.health = Health::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The breaker position of `addr` (gauges and tests).
    pub fn health(&self, addr: &str) -> PeerHealth {
        match self.peer(addr).map(|p| p.state.lock()) {
            Some(Ok(state)) => match state.health {
                Health::Up => PeerHealth::Up,
                Health::Down { .. } => PeerHealth::Down,
                Health::HalfOpen => PeerHealth::HalfOpen,
            },
            _ => PeerHealth::Down,
        }
    }

    /// Records a successful probe or call: failures reset, breaker
    /// closed.
    pub fn record_success(&self, addr: &str) {
        if let Some(peer) = self.peer(addr) {
            let mut state = peer.state.lock().expect("peer state lock");
            state.consecutive_failures = 0;
            state.health = Health::Up;
        }
    }

    /// Records a failed probe or call. A half-open trial failure
    /// re-opens the breaker immediately; an up peer trips after
    /// [`PeerPolicy::failure_threshold`] consecutive failures.
    pub fn record_failure(&self, addr: &str) {
        let Some(peer) = self.peer(addr) else { return };
        let mut state = peer.state.lock().expect("peer state lock");
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        let trip = match state.health {
            Health::HalfOpen => true,
            Health::Up => state.consecutive_failures >= self.policy.failure_threshold,
            Health::Down { .. } => false,
        };
        if trip {
            state.health = Health::Down {
                until: Instant::now() + self.policy.cooldown,
            };
            self.down_total.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Breaker trips since start (the `occache_peer_down_total` metric).
    pub fn down_total(&self) -> u64 {
        self.down_total.load(Ordering::SeqCst)
    }

    /// Failed liveness probes since start.
    pub fn probe_failures(&self) -> u64 {
        self.probe_failures.load(Ordering::SeqCst)
    }

    /// Outbound peer calls attempted (fills and forwards).
    pub fn calls_made(&self) -> u64 {
        self.fill_requests.load(Ordering::SeqCst)
    }

    /// Per-peer state gauge samples: 0 down, 1 half-open, 2 up.
    pub fn state_gauge(&self) -> Vec<(String, u64)> {
        self.peers
            .iter()
            .map(|p| {
                let v = if self.is_self(&p.addr) {
                    2
                } else {
                    match self.health(&p.addr) {
                        PeerHealth::Down => 0,
                        PeerHealth::HalfOpen => 1,
                        PeerHealth::Up => 2,
                    }
                };
                (p.addr.clone(), v)
            })
            .collect()
    }

    /// One bounded peer call: up to `1 + retries` attempts, each under
    /// the strict deadline, with deterministic backoff between attempts.
    /// Success and failure both feed the peer's breaker. Chaos hooks
    /// (`drop-peer`, `slow-peer`) fire here, on the caller side.
    ///
    /// # Errors
    ///
    /// The last attempt's failure, once every attempt is exhausted.
    pub fn call(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        self.fill_requests.fetch_add(1, Ordering::SeqCst);
        let mut last = String::from("no attempt made");
        for attempt in 0..=self.policy.retries {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(addr, attempt));
            }
            let mut budget = self.policy.timeout;
            if let Some(fault) = &self.fault {
                if let Some(stall) = fault.slow_peer_now() {
                    // The stall spends the call's own deadline, exactly
                    // like a peer that is slow to answer.
                    std::thread::sleep(stall.min(budget));
                    budget = budget.saturating_sub(stall);
                }
                if fault.drop_peer_now() {
                    self.record_failure(addr);
                    last = "injected drop-peer fault".to_string();
                    continue;
                }
            }
            if budget.is_zero() {
                self.record_failure(addr);
                last = format!("peer {addr} deadline exhausted before dialing");
                continue;
            }
            match http_call(addr, method, path, body, budget) {
                Ok(reply) => {
                    self.record_success(addr);
                    return Ok(reply);
                }
                Err(e) => {
                    self.record_failure(addr);
                    last = e;
                }
            }
        }
        Err(last)
    }
}

fn probe_loop(set: &PeerSet) {
    // First round runs immediately so a cluster converges on mutual
    // liveness at startup instead of one probe interval later.
    while !set.stop.load(Ordering::SeqCst) {
        for peer in &set.peers {
            if set.is_self(&peer.addr) || set.stop.load(Ordering::SeqCst) {
                continue;
            }
            // A down peer inside its cooldown is left alone; `available`
            // (or this loop, next round) promotes it to half-open once
            // the cooldown expires.
            {
                let state = peer.state.lock().expect("peer state lock");
                if let Health::Down { until } = state.health {
                    if Instant::now() < until {
                        continue;
                    }
                }
            }
            let ok = http_call(&peer.addr, "GET", "/v1/health", b"", set.policy.timeout).is_ok();
            let flapped = set.fault.as_ref().is_some_and(|f| f.flap_peer_now());
            if ok && !flapped {
                set.record_success(&peer.addr);
            } else {
                set.probe_failures.fetch_add(1, Ordering::SeqCst);
                set.record_failure(&peer.addr);
            }
        }
        // Sleep in short slices so shutdown is prompt.
        let deadline = Instant::now() + set.policy.probe_interval;
        while Instant::now() < deadline && !set.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Deterministic backoff before retry `attempt` (≥ 1) against `addr`:
/// exponential base with FNV-derived jitter, no randomness, capped at
/// [`BACKOFF_CAP`] so retries stay inside the peer deadline regime.
pub fn backoff_delay(addr: &str, attempt: usize) -> Duration {
    let base = Duration::from_millis(25u64.saturating_mul(1 << attempt.min(4)));
    let jitter = fnv1a(format!("{addr}:{attempt}").as_bytes()) % 25;
    (base + Duration::from_millis(jitter)).min(BACKOFF_CAP)
}

/// One HTTP/1.1 call to `addr` under a strict wall-clock deadline
/// spanning resolve, connect, write and read. `Connection: close` — peer
/// calls are infrequent enough that keep-alive bookkeeping isn't worth
/// the shared-state coupling.
///
/// # Errors
///
/// A message naming the peer and the failing stage.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    let deadline = Instant::now() + timeout;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("peer {addr}: resolve failed: {e}"))?
        .next()
        .ok_or_else(|| format!("peer {addr}: no address"))?;
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(format!("peer {addr}: deadline before connect"));
    }
    let mut stream = TcpStream::connect_timeout(&sock, remaining)
        .map_err(|e| format!("peer {addr}: connect failed: {e}"))?;
    stream.set_nodelay(true).ok();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    set_io_deadline(&stream, deadline).map_err(|e| format!("peer {addr}: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("peer {addr}: write failed: {e}"))?;
    read_response(&mut stream, addr, deadline)
}

fn set_io_deadline(stream: &TcpStream, deadline: Instant) -> Result<(), String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err("deadline exceeded".to_string());
    }
    stream
        .set_read_timeout(Some(remaining))
        .and_then(|()| stream.set_write_timeout(Some(remaining)))
        .map_err(|e| format!("socket deadline: {e}"))
}

fn read_response(
    stream: &mut TcpStream,
    addr: &str,
    deadline: Instant,
) -> Result<(u16, Vec<u8>), String> {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(format!("peer {addr}: response headers too large"));
        }
        set_io_deadline(stream, deadline).map_err(|e| format!("peer {addr}: {e}"))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err(format!("peer {addr}: closed before response headers")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("peer {addr}: read failed: {e}")),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| format!("peer {addr}: non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("peer {addr}: bad status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let len =
        content_length.ok_or_else(|| format!("peer {addr}: response without Content-Length"))?;
    if len > 64 * 1024 * 1024 {
        return Err(format!(
            "peer {addr}: response body too large ({len} bytes)"
        ));
    }
    let mut body = buf[header_end..].to_vec();
    while body.len() < len {
        set_io_deadline(stream, deadline).map_err(|e| format!("peer {addr}: {e}"))?;
        match stream.read(&mut chunk) {
            // A short body is a torn response, not a result.
            Ok(0) => {
                return Err(format!(
                    "peer {addr}: closed mid-body ({}/{len})",
                    body.len()
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("peer {addr}: body read failed: {e}")),
        }
    }
    body.truncate(len);
    Ok((status, body))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_set(peers: &[&str]) -> Arc<PeerSet> {
        // A probe interval long enough that the background thread never
        // interferes with the state transitions under test. The cooldown
        // stays at `for_tests()`'s 200 ms, so a scheduler stall between
        // tripping the breaker and asserting it is open cannot outlast it.
        let policy = PeerPolicy {
            probe_interval: Duration::from_secs(600),
            failure_threshold: 2,
            ..PeerPolicy::for_tests()
        };
        PeerSet::start(
            peers.iter().map(|s| (*s).to_string()).collect(),
            None,
            policy,
            None,
        )
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_half_open() {
        let set = quiet_set(&["a:1", "b:2"]);
        let past_cooldown = PeerPolicy::for_tests().cooldown + Duration::from_millis(50);
        assert!(set.available("a:1"));
        set.record_failure("a:1");
        assert_eq!(set.health("a:1"), PeerHealth::Up, "one failure is noise");
        set.record_failure("a:1");
        assert_eq!(set.health("a:1"), PeerHealth::Down);
        assert!(!set.available("a:1"), "down peers take no traffic");
        assert_eq!(set.down_total(), 1);
        assert!(set.available("b:2"), "other peers unaffected");

        std::thread::sleep(past_cooldown);
        assert!(set.available("a:1"), "cooldown expired: half-open trial");
        assert_eq!(set.health("a:1"), PeerHealth::HalfOpen);
        set.record_failure("a:1");
        assert_eq!(
            set.health("a:1"),
            PeerHealth::Down,
            "trial failure re-opens"
        );
        assert_eq!(set.down_total(), 2);

        std::thread::sleep(past_cooldown);
        assert!(set.available("a:1"));
        set.record_success("a:1");
        assert_eq!(set.health("a:1"), PeerHealth::Up);
        assert_eq!(
            set.state_gauge(),
            vec![("a:1".to_string(), 2), ("b:2".to_string(), 2)]
        );
        set.shutdown();
    }

    #[test]
    fn call_to_unreachable_peer_fails_attributed_and_feeds_breaker() {
        let set = quiet_set(&["127.0.0.1:1"]);
        let err = set
            .call("127.0.0.1:1", "GET", "/v1/health", b"")
            .unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "failure names the peer: {err}");
        // for_tests retries once: two attempts = threshold, breaker open.
        assert_eq!(set.health("127.0.0.1:1"), PeerHealth::Down);
        assert!(set.calls_made() >= 1);
        set.shutdown();
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        assert_eq!(backoff_delay("a:1", 1), backoff_delay("a:1", 1));
        for attempt in 1..8 {
            assert!(backoff_delay("a:1", attempt) <= BACKOFF_CAP);
        }
    }
}
