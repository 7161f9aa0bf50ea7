//! `serve-open-loop`: an in-process `occache-serve` node — one worker,
//! write-behind journal on, a fresh cache per run — driven over loopback
//! by an open-loop generator on two keep-alive connections.
//!
//! The mix: repeats of a pre-warmed key set (the PDP-11 Table 7 grid:
//! cache hits), fresh keys (misses that compute, insert and journal;
//! each varies `warmup` at a fixed `refs`, so a miss costs one point
//! evaluation, never a trace generation) and a small share of
//! `/v1/sweep` grids on the bulk lane. A request's latency runs from its
//! scheduled send instant, so a stall also charges the requests queued
//! behind it. The router and peer hop stay out: three nodes and a router
//! on two vCPUs would measure the scheduler.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use occache_cli::client::{HttpClient, Response};
use occache_core::CacheConfig;
use occache_experiments::paper;
use occache_experiments::report::relative_error;
use occache_experiments::sweep::{evaluate_point, materialize, table1_pairs, DesignPoint, Trace};
use occache_runtime::executor::SupervisorPolicy;
use occache_runtime::fmt::fmt_f64_exact;
use occache_runtime::instrument::Exposition;
use occache_serve::http::{parse_head, ParseOutcome};
use occache_serve::json::Json;
use occache_serve::service::{Server, ServiceConfig};
use occache_workloads::{Architecture, WorkloadSpec};

use crate::ledger::Outcome;
use crate::stats::{self, median, quantile, timed, Rng};
use crate::sweeps::generation_layers;
use crate::RunConfig;

/// References per trace of the served model: small, so a computed point
/// costs about as much as the HTTP round trip that asks for it and
/// evaluation stays a minor share of request time.
pub const REFS: usize = 2_000;
const MODEL: &str = "pdp11";
const ARCH: Architecture = Architecture::Pdp11;
/// Scheduler workers and client connections. One worker: with two,
/// evaluation took both vCPUs during a sweep and hits waited for a CPU.
const WORKERS: usize = 1;
const CONNECTIONS: usize = 2;
/// The two fixed open-loop rates, requests per second. A choice, not a
/// measured traffic level: a few percent of the `max_rps` a two-vCPU
/// box reaches, below the knee, so the phases' p50 and p99 measure
/// service time and a regression there is the service getting slower
/// rather than queueing noise; `max_rps` measures the knee.
const LIGHT_RPS: f64 = 500.0;
const HEAVY_RPS: f64 = 2_000.0;
/// The max-rate search's limit on p99 latency and on generator lag.
/// Far above the heavy p99, so a step misses only where queueing takes
/// off, which pins the rate more tightly than a limit on the slope.
const P99_LIMIT_MS: f64 = 50.0;
/// Seconds of traffic one search step offers, and the windows its p99
/// is taken over (see WINDOW_REPLIES).
const STEP_S: f64 = 1.0;
const STEP_WINDOWS: usize = 4;
/// The search's steps, fixed whatever the elapsed time: at most this
/// many doubling steps from the heavy rate, stopping at the first
/// missed step, then this many bisections between the last passing
/// step and that missed one (a sixteenth of the bracket).
const GROWTH_STEPS: usize = 8;
const BISECT_STEPS: usize = 4;
/// Requests in one closed-loop burst, the `wall_s` operation, and the
/// bursts per run. `wall_s` is the lower quartile of the bursts, as the
/// batch workloads take the lower quartile of their passes (see
/// `Outcome::set_batch`). A burst is whole decks of MIX_DECK, so every
/// burst computes the same points.
const BURST: usize = 6_000;
const BURSTS: usize = 9;
/// Share of the run's seconds each fixed rate gets on average, offered
/// in ROUNDS interleaved light/heavy phases of equal reply counts. A rate's p50 is taken over every
/// reply of its phases. Its p99 is the median, over consecutive windows
/// of about WINDOW_REPLIES replies (ten decks; at least one window per
/// phase), of each window's p99: on a shared two-vCPU VM the guest
/// stalls for milliseconds now and then, and how many stalls land in a
/// phase varies between runs more than a change worth catching, while
/// the median window still moves with any tail most windows share. The
/// max-rate search judges each step the same way, over STEP_WINDOWS.
const PHASE_SHARE: f64 = 0.2;
const ROUNDS: usize = 2;
const WINDOW_REPLIES: f64 = 2_000.0;
/// One deck of the mix: hits, fresh-key misses and sweeps (96/2/2%).
/// No traffic log exists to derive it from, so the shares are a choice,
/// each tied to the layers it loads: hits load HTTP parsing, JSON, the
/// cache lookup and the reply with no evaluation; misses load the queue,
/// one point evaluation, the cache insert and a journal append; sweeps
/// load the bulk lane and batch coalescing. Hits are the bulk so that
/// evaluation stays a minor share of request time (`serve.engine_share`
/// in the traced run); sweeps are above 1% so that p99 falls inside
/// their latency rather than on the guest's rare stalls.
const MIX_DECK: [usize; 3] = [48, 1, 1];
/// Replies per burst or phase re-evaluated with `evaluate_point`.
const SAMPLES_PER_DRIVE: usize = 6;
const TIMEOUT: Duration = Duration::from_secs(60);

/// One scheduled request.
struct Request {
    path: &'static str,
    body: String,
    warmup: usize,
    /// Points the server computes for it: 0 for a hit.
    computes: usize,
}

impl Request {
    fn simulate(config: &CacheConfig, warmup: usize, computes: usize) -> Request {
        Request {
            path: "/v1/simulate",
            body: format!(
                "{{\"model\":\"{MODEL}\",\"refs\":{REFS},\"warmup\":{warmup},\
                 \"config\":{{\"net\":{},\"block\":{},\"sub\":{}}}}}",
                config.net_size(),
                config.block_size(),
                config.sub_block_size()
            ),
            warmup,
            computes,
        }
    }

    fn sweep(assoc: u64, warmup: usize) -> Request {
        Request {
            path: "/v1/sweep",
            body: format!(
                "{{\"model\":\"{MODEL}\",\"refs\":{REFS},\"warmup\":{warmup},\
                 \"grid\":{{\"nets\":[64],\"assoc\":{assoc}}}}}"
            ),
            warmup,
            computes: table1_pairs(64, ARCH.word_size()).len(),
        }
    }
}

/// The seeded request mix. Kinds come in shuffled decks of MIX_DECK, so
/// every stretch of traffic has the same share of hits, misses and
/// sweeps whatever the seed; the seed orders them and picks the hits.
///
/// Fresh keys do not repeat within a run: the n-th miss asks for grid
/// point `n` (cyclically, from a seeded offset) at warm-up `1 + n / 30`,
/// and the k-th sweep for the net-64 grid at associativity 1 or 2 (by
/// the parity of `k`), which the 4-way hit and miss keys never use, at
/// warm-up `1 + k / 2`: about 60 000 miss keys and 4 000 sweep keys.
/// Warm-ups stay below the trace length, so every point still counts
/// references.
struct Mix {
    rng: Rng,
    /// The warm key set, served at warm-up 0.
    grid: Vec<CacheConfig>,
    offset: usize,
    misses: usize,
    sweeps: usize,
    /// Kinds left in the current deck: 0 hit, 1 miss, 2 sweep.
    deck: Vec<u8>,
}

impl Mix {
    fn new(seed: u64, grid: Vec<CacheConfig>) -> Mix {
        let mut rng = Rng::new(seed, 2);
        Mix {
            offset: rng.below(grid.len()),
            rng,
            grid,
            misses: 0,
            sweeps: 0,
            deck: Vec::new(),
        }
    }

    fn plan(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next()).collect()
    }

    fn next(&mut self) -> Request {
        if self.deck.is_empty() {
            let [hits, misses, sweeps] = MIX_DECK;
            self.deck = [(0, hits), (1, misses), (2, sweeps)]
                .into_iter()
                .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        let n = self.grid.len();
        match self.deck.pop().expect("the deck was just refilled") {
            0 => Request::simulate(&self.grid[self.rng.below(n)], 0, 0),
            1 => {
                let (i, round) = (self.misses % n, self.misses / n);
                self.misses += 1;
                let warmup = 1 + round % (REFS - 2);
                Request::simulate(&self.grid[(i + self.offset) % n], warmup, 1)
            }
            _ => {
                let k = self.sweeps;
                self.sweeps += 1;
                Request::sweep(1 + k as u64 % 2, 1 + (k / 2) % (REFS - 2))
            }
        }
    }
}

/// The PDP-11 Table 7 grid as the service parses it: 4-way, LRU, demand.
fn table7_grid() -> Vec<CacheConfig> {
    let word = ARCH.word_size();
    [64u64, 256, 1024]
        .into_iter()
        .flat_map(|net| {
            table1_pairs(net, word)
                .into_iter()
                .map(move |(block, sub)| (net, block, sub))
        })
        .map(|(net, block, sub)| {
            CacheConfig::builder()
                .net_size(net)
                .block_size(block)
                .sub_block_size(sub)
                .associativity(4)
                .word_size(word)
                .build()
                .expect("Table 1 geometry is valid")
        })
        .collect()
}

/// A served point's config, as the reply states it.
fn config_of(point: &Json) -> Option<CacheConfig> {
    let c = point.get("config")?;
    let field = |name: &str| c.get(name).and_then(Json::as_u64);
    CacheConfig::builder()
        .net_size(field("net")?)
        .block_size(field("block")?)
        .sub_block_size(field("sub")?)
        .associativity(field("assoc")?)
        .word_size(field("word")?)
        .build()
        .ok()
}

/// A served point's four metrics, in `DesignPoint` order.
fn fields(point: &Json) -> Option<[f64; 4]> {
    let f = |name: &str| point.get(name).and_then(Json::as_f64);
    Some([
        f("miss_ratio")?,
        f("traffic_ratio")?,
        f("nibble_traffic_ratio")?,
        f("redundant_load_fraction")?,
    ])
}

fn metrics_of(p: &DesignPoint) -> [f64; 4] {
    [
        p.miss_ratio,
        p.traffic_ratio,
        p.nibble_traffic_ratio,
        p.redundant_load_fraction,
    ]
}

/// Whether two metric sets render identically under `fmt_f64_exact`,
/// the shortest exact rendering the server sends.
fn same_rendering(a: [f64; 4], b: [f64; 4]) -> bool {
    a.iter()
        .zip(&b)
        .all(|(x, y)| fmt_f64_exact(*x) == fmt_f64_exact(*y))
}

/// A running node, its warm key set with the metrics it served, and the
/// load generator's keep-alive connections to it, held across drives.
struct Node {
    server: Server,
    addr: String,
    warm: Vec<(CacheConfig, [f64; 4])>,
    clients: Mutex<Vec<Option<HttpClient>>>,
}

/// Starts a node journalling into `dir` and warms its cache with the
/// Table 7 grid (one `/v1/sweep`, which also materializes the model's
/// traces): the set-up `setup_s` times.
fn start_node(dir: &Path) -> Result<Node, String> {
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_capacity: 256,
        max_batch: 64,
        cache_capacity: 65_536,
        default_refs: REFS,
        journal_dir: Some(dir.display().to_string()),
        policy: SupervisorPolicy::disabled(),
        ..ServiceConfig::for_tests()
    };
    let server = Server::start(&config).map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.addr().to_string();
    match warm_up(&server, &addr) {
        Ok(warm) => Ok(Node {
            server,
            addr,
            warm,
            clients: Mutex::new(Vec::new()),
        }),
        Err(e) => {
            let _ = server.stop();
            Err(e)
        }
    }
}

/// Opens the generator's connections, each already serving: the
/// server accepts new connections on a poll, so a first request on a
/// fresh one would wait for it.
fn connect(addr: &str) -> Vec<Option<HttpClient>> {
    (0..CONNECTIONS)
        .map(|_| {
            let mut client = HttpClient::connect_with_timeout(addr, TIMEOUT).ok()?;
            client.get("/v1/ready").ok()?;
            Some(client)
        })
        .collect()
}

fn warm_up(server: &Server, addr: &str) -> Result<Vec<(CacheConfig, [f64; 4])>, String> {
    let started = Instant::now();
    while !server.service().ready() {
        if started.elapsed() > TIMEOUT {
            return Err("the server never became ready".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let body =
        format!("{{\"model\":\"{MODEL}\",\"refs\":{REFS},\"grid\":{{\"nets\":[64,256,1024]}}}}");
    let mut client = HttpClient::connect_with_timeout(addr, TIMEOUT).map_err(|e| e.to_string())?;
    let reply = client.post("/v1/sweep", &body).map_err(|e| e.to_string())?;
    let doc = Json::parse(&reply.body)?;
    let points = doc
        .get("points")
        .and_then(Json::as_array)
        .unwrap_or_default();
    let grid = table7_grid();
    if reply.status != 200 || points.len() != grid.len() {
        return Err(format!(
            "warm-up sweep answered {}: {}",
            reply.status, reply.body
        ));
    }
    grid.into_iter()
        .zip(points)
        .map(|(config, point)| match (config_of(point), fields(point)) {
            (Some(served), Some(metrics)) if served == config => Ok((config, metrics)),
            _ => Err(format!("warm-up reply for {config} is malformed")),
        })
        .collect()
}

/// What one request came back with.
struct Reply {
    index: usize,
    /// From the scheduled instant (open loop) or the send (closed loop).
    latency_ms: f64,
    /// How late the generator sent it.
    lag_ms: f64,
    sent: Instant,
    done: Instant,
    ok: bool,
    /// The body, for replies picked for checking.
    body: Option<String>,
}

/// The replies to one offered batch of requests.
struct Drive {
    replies: Vec<Reply>,
    wall: f64,
    reconnects: u64,
}

impl Drive {
    fn latency(&self, q: f64) -> f64 {
        quantile(
            &self
                .replies
                .iter()
                .map(|r| r.latency_ms)
                .collect::<Vec<_>>(),
            q,
        )
    }

    fn lag(&self, q: f64) -> f64 {
        quantile(
            &self.replies.iter().map(|r| r.lag_ms).collect::<Vec<_>>(),
            q,
        )
    }

    /// The `q`-quantile of `field` in each of `windows` equal stretches
    /// of the replies, in schedule order.
    fn window_quantiles(&self, windows: usize, q: f64, field: fn(&Reply) -> f64) -> Vec<f64> {
        let size = self.replies.len().div_ceil(windows.max(1)).max(1);
        self.replies
            .chunks(size)
            .map(|w| quantile(&w.iter().map(field).collect::<Vec<_>>(), q))
            .collect()
    }

    /// Seconds the replies spent between send and reply, summed.
    fn request_time(&self) -> f64 {
        self.replies
            .iter()
            .map(|r| r.done.duration_since(r.sent).as_secs_f64())
            .sum()
    }

    fn failures(&self) -> usize {
        self.replies.iter().filter(|r| !r.ok).count()
    }

    /// Seconds during which at least one request was in flight.
    fn in_flight(&self) -> f64 {
        let mut spans: Vec<(Instant, Instant)> =
            self.replies.iter().map(|r| (r.sent, r.done)).collect();
        spans.sort();
        let mut covered = 0.0;
        let mut current: Option<(Instant, Instant)> = None;
        for (start, end) in spans {
            current = match current {
                Some((s, e)) if start <= e => Some((s, e.max(end))),
                Some((s, e)) => {
                    covered += e.duration_since(s).as_secs_f64();
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
        covered + current.map_or(0.0, |(s, e)| e.duration_since(s).as_secs_f64())
    }
}

/// Offers `requests` over the node's keep-alive connections. With a
/// rate, request i is due i/rate seconds after the start (open loop);
/// without one, each connection sends when its previous reply lands
/// (closed loop). Bodies of the requests `keep` picks are retained.
fn offer(
    node: &Node,
    requests: &[Request],
    rate: Option<f64>,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Drive {
    let mut clients = std::mem::take(&mut *node.clients.lock().expect("connection pool lock"));
    clients.resize_with(CONNECTIONS, || None);
    let addr = node.addr.as_str();
    let (next, reconnects) = (&AtomicUsize::new(0), &AtomicU64::new(0));
    let start = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|scope| {
        let connections: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(index) else {
                            break;
                        };
                        let due = rate.map(|r| start + Duration::from_secs_f64(index as f64 / r));
                        if let Some(due) = due {
                            wait_until(due);
                        }
                        let sent = Instant::now();
                        let response = send(client, addr, request, reconnects);
                        let done = Instant::now();
                        let from = due.unwrap_or(sent);
                        let ok = response.as_ref().is_some_and(|r| r.status == 200);
                        replies.push(Reply {
                            index,
                            latency_ms: done.saturating_duration_since(from).as_secs_f64() * 1e3,
                            lag_ms: sent.saturating_duration_since(from).as_secs_f64() * 1e3,
                            sent,
                            done,
                            ok,
                            body: response.filter(|_| keep(index)).map(|r| r.body),
                        });
                    }
                    replies
                })
            })
            .collect();
        connections
            .into_iter()
            .flat_map(|c| c.join().expect("a load-generator connection panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    *node.clients.lock().expect("connection pool lock") = clients;
    replies.sort_by_key(|r| r.index);
    Drive {
        replies,
        wall,
        reconnects: reconnects.load(Ordering::Relaxed),
    }
}

/// Waits for `due` without sleeping: yielding keeps the vCPU awake, so
/// a send is not held up by the guest waking a halted vCPU, which on a
/// shared VM takes milliseconds now and then.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One request, reconnecting once after a transport failure.
fn send(
    client: &mut Option<HttpClient>,
    addr: &str,
    request: &Request,
    reconnects: &AtomicU64,
) -> Option<Response> {
    if let Some(c) = client.as_mut() {
        if let Ok(response) = c.post(request.path, &request.body) {
            return Some(response);
        }
    }
    reconnects.fetch_add(1, Ordering::Relaxed);
    *client = HttpClient::connect_with_timeout(addr, TIMEOUT).ok();
    client.as_mut()?.post(request.path, &request.body).ok()
}

/// Picks about SAMPLES_PER_DRIVE of `n` requests, offset by the seed.
fn sampler(n: usize, seed: u64) -> impl Fn(usize) -> bool + Sync {
    let stride = (n / SAMPLES_PER_DRIVE).max(1);
    let offset = (seed % stride as u64) as usize;
    move |i| i % stride == offset
}

/// Checks every reply succeeded, and the retained ones against
/// `evaluate_point` on the same traces.
fn check_drive(requests: &[Request], drive: &Drive, traces: &[Trace], out: &mut Outcome) {
    for reply in &drive.replies {
        let request = &requests[reply.index];
        out.check(reply.ok, || {
            format!("{} {} failed", request.path, request.body)
        });
        if let Some(body) = &reply.body {
            check_reply(request, body, traces, out);
        }
    }
}

/// A simulate reply must equal `evaluate_point`, compared as the
/// `fmt_f64_exact` renderings the server sends; a sweep reply must carry
/// every point and no failure, its first point checked the same way.
fn check_reply(request: &Request, body: &str, traces: &[Trace], out: &mut Outcome) {
    let doc = Json::parse(body).unwrap_or(Json::Null);
    let point = match doc.get("points").and_then(Json::as_array) {
        Some(points) => {
            let failures = doc
                .get("failures")
                .and_then(Json::as_array)
                .map_or(1, |f| f.len());
            let complete = points.len() == request.computes && failures == 0;
            out.check(complete, || format!("incomplete sweep reply: {body}"));
            points.first()
        }
        None => Some(&doc),
    };
    let served = point.and_then(|p| config_of(p).zip(fields(p)));
    let same = served.is_some_and(|(config, metrics)| {
        let want = evaluate_point(config, traces, request.warmup);
        same_rendering(metrics, metrics_of(&want))
    });
    out.check(same, || {
        format!("reply differs from evaluate_point: {body}")
    });
}

/// Checks a seed-chosen sample of the warm set against `evaluate_point`.
fn check_warm(node: &Node, traces: &[Trace], seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed, 3);
    for _ in 0..SAMPLES_PER_DRIVE {
        let (config, served) = node.warm[rng.below(node.warm.len())];
        let want = evaluate_point(config, traces, 0);
        out.check(same_rendering(served, metrics_of(&want)), || {
            format!("warm point {config} differs from evaluate_point")
        });
    }
}

/// Mean |relative error| of the warm set's miss ratios against the
/// legible PDP-11 cells of Table 7.
fn warm_table7_err(node: &Node) -> f64 {
    let errors: Vec<f64> = node
        .warm
        .iter()
        .filter_map(|(c, served)| {
            paper::table7_row(ARCH, c.net_size(), c.block_size(), c.sub_block_size())
                .map(|row| relative_error(served[0], row.miss))
        })
        .collect();
    stats::mean(&errors)
}

/// One open-loop phase at `rate` for `seconds`, checked.
fn open_loop(
    node: &Node,
    mix: &mut Mix,
    rate: f64,
    seconds: f64,
    traces: &[Trace],
    seed: u64,
    out: &mut Outcome,
) -> (Vec<Request>, Drive) {
    let n = ((rate * seconds).round() as usize).max(1);
    let requests = mix.plan(n);
    let drive = offer(node, &requests, Some(rate), &sampler(n, seed));
    check_drive(&requests, &drive, traces, out);
    (requests, drive)
}

/// One closed-loop burst of BURST requests, checked.
fn burst(
    node: &Node,
    mix: &mut Mix,
    traces: &[Trace],
    seed: u64,
    out: &mut Outcome,
) -> (usize, Drive) {
    let requests = mix.plan(BURST);
    let drive = offer(node, &requests, None, &sampler(BURST, seed));
    check_drive(&requests, &drive, traces, out);
    (requests.iter().map(|r| r.computes).sum(), drive)
}

/// How the max-rate search ended.
struct Search {
    /// Replies per second achieved at the highest passing step.
    achieved: f64,
    /// That step's offered rate.
    offered: f64,
    /// Whether growth stopped on a missed step; if not, every growth
    /// step passed and `achieved` is only a lower bound.
    missed: bool,
}

/// The throughput served at the highest open-loop rate whose step keeps
/// p99 latency and generator lag within P99_LIMIT_MS with nothing
/// failed: from the heavy rate, double for at most GROWTH_STEPS
/// until a step misses, then bisect BISECT_STEPS times between the last
/// passing step and the missed one; a step misses when two tries in a
/// row do. No step count depends on elapsed time. The result is the
/// replies per second the passing step achieved, not its offered rate.
fn max_rps(node: &Node, mix: &mut Mix) -> Search {
    let mut try_step = |rate: f64| {
        let requests = mix.plan(((rate * STEP_S).round() as usize).max(1));
        let drive = offer(node, &requests, Some(rate), &|_| false);
        let p99 = |field| median(&drive.window_quantiles(STEP_WINDOWS, 0.99, field));
        let meets = drive.failures() == 0
            && p99(|r| r.latency_ms) <= P99_LIMIT_MS
            && p99(|r| r.lag_ms) <= P99_LIMIT_MS;
        meets.then(|| drive.replies.len() as f64 / drive.wall)
    };
    // A step misses only when two tries in a row miss: one guest stall
    // can sink a one-second try at any rate.
    let mut served = |rate: f64| try_step(rate).or_else(|| try_step(rate));
    let mut search = Search {
        achieved: 0.0,
        offered: 0.0,
        missed: false,
    };
    let mut hi = HEAVY_RPS;
    for _ in 0..GROWTH_STEPS {
        match served(hi) {
            Some(achieved) => (search.achieved, search.offered) = (achieved, hi),
            None => {
                search.missed = true;
                break;
            }
        }
        hi *= 2.0;
    }
    if search.missed {
        for _ in 0..BISECT_STEPS {
            let mid = (search.offered + hi) / 2.0;
            match served(mid) {
                Some(achieved) => (search.achieved, search.offered) = (achieved, mid),
                None => hi = mid,
            }
        }
    }
    search
}

/// Fetches and parses `/metrics`.
fn scrape(addr: &str) -> Option<Exposition> {
    let mut client = HttpClient::connect_with_timeout(addr, TIMEOUT).ok()?;
    let reply = client.get("/metrics").ok()?;
    Exposition::parse(&reply.body).ok()
}

/// Server-side layers over the heavy phase, from `/metrics` scraped
/// around it. The request quantiles are whole-run bucket upper bounds.
fn server_layers(before: &Exposition, after: &Exposition, heavy: &Drive, out: &mut Outcome) {
    let delta = |name: &str| after.value(name).unwrap_or(0.0) - before.value(name).unwrap_or(0.0);
    let busy = |e: &Exposition| {
        e.family("occache_worker_busy_seconds")
            .map_or(0.0, |f| f.samples.iter().map(|s| s.value).sum())
    };
    let (hits, misses) = (
        delta("occache_cache_hits_total"),
        delta("occache_cache_misses_total"),
    );
    out.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    out.set(
        "serve.points_computed",
        delta("occache_points_computed_total"),
    );
    out.set(
        "serve.journal_appends",
        delta("occache_journal_appends_total"),
    );
    let shed = delta("occache_shed_interactive_total") + delta("occache_shed_bulk_total");
    out.set("serve.shed", shed);
    out.set("serve.rejected", delta("occache_rejected_total"));
    let evaluating = busy(after) - busy(before);
    out.set(
        "serve.worker_util",
        evaluating / (heavy.wall * WORKERS as f64),
    );
    out.set("serve.engine_share", evaluating / heavy.request_time());
    let quantile_ms = |q: &str| {
        after
            .labeled("occache_request_seconds", "quantile", q)
            .unwrap_or(0.0)
            * 1e3
    };
    out.set("serve.server_p50_ms", quantile_ms("0.5"));
    out.set("serve.server_p99_ms", quantile_ms("0.99"));
    out.set(
        "serve.client_gap_ms",
        heavy.latency(0.5) - quantile_ms("0.5"),
    );
}

/// Mean microseconds per `http::parse_head` and per `Json::parse` over
/// the workload's own requests, as the client puts them on the wire.
fn parse_layers(addr: &str, requests: &[Request], out: &mut Outcome) {
    let wire: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            format!(
                "POST {} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
                 Content-Type: application/json\r\nConnection: keep-alive\r\n\r\n{}",
                r.path,
                r.body.len(),
                r.body
            )
            .into_bytes()
        })
        .collect();
    let heads = wire
        .iter()
        .all(|w| matches!(parse_head(w), Ok(ParseOutcome::Ready { .. })));
    let bodies = requests.iter().all(|r| Json::parse(&r.body).is_ok());
    out.check(heads && bodies, || {
        "the workload's own requests do not parse".to_string()
    });
    let http = per_call_us(wire.len(), |i| parse_head(&wire[i]).is_ok());
    let json = per_call_us(requests.len(), |i| Json::parse(&requests[i].body).is_ok());
    out.set("serve.http_parse_us", http);
    out.set("serve.json_parse_us", json);
}

/// Mean microseconds per call of `f` over `0..n`, repeated for 50 ms.
fn per_call_us(n: usize, f: impl Fn(usize) -> bool) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || started.elapsed() < Duration::from_millis(50) {
        for i in 0..n {
            std::hint::black_box(f(i));
        }
        calls += n;
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Runs `serve-open-loop`.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::new(WORKERS, REFS);
    let mut setups = Vec::new();
    let mut node: Option<Node> = None;
    for k in 0..3 {
        // One node at a time, so peak memory holds one.
        if let Some(old) = node.take() {
            let stopped = old.server.stop();
            out.check(stopped.is_ok(), || format!("server stop: {stopped:?}"));
        }
        let (started, secs) = timed(|| start_node(&config.work.join(format!("serve-{k}"))));
        match started {
            Ok(fresh) => {
                setups.push(secs);
                node = Some(fresh);
            }
            Err(e) => out.check(false, || e),
        }
    }
    let Some(node) = node else {
        return out;
    };
    *node.clients.lock().expect("connection pool lock") = connect(&node.addr);
    let specs = WorkloadSpec::set_by_name(MODEL).unwrap_or_default();
    // The service materializes the model's canonical seed-0 traces; the
    // checks replay exactly those.
    let traces = materialize(&specs, REFS);
    check_warm(&node, &traces, config.seed, &mut out);
    let mut mix = Mix::new(config.seed, node.warm.iter().map(|(c, _)| *c).collect());
    if config.trace {
        traced(&node, &mut mix, &traces, &specs, config, &mut out);
    } else {
        let (mut walls, mut points) = (Vec::new(), 0);
        for _ in 0..BURSTS {
            let (computed, drive) = burst(&node, &mut mix, &traces, config.seed, &mut out);
            walls.push(drive.wall);
            points += computed;
        }
        // Every burst holds the same decks, so the same computed points.
        let wall = quantile(&walls, 0.25);
        out.set("wall_s", wall);
        let refs_per_burst = (points / BURSTS * traces.len() * REFS) as f64;
        out.set("sim_refs_per_s", refs_per_burst / wall);
        // Both rates get the same number of replies per round, so their
        // p99s rest on as many misses and sweeps.
        let replies = 2.0 * config.seconds * PHASE_SHARE / (1.0 / LIGHT_RPS + 1.0 / HEAVY_RPS);
        let replies = replies / ROUNDS as f64;
        let (mut light, mut heavy) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            for (rate, phases) in [(LIGHT_RPS, &mut light), (HEAVY_RPS, &mut heavy)] {
                let (_, drive) = open_loop(
                    &node,
                    &mut mix,
                    rate,
                    replies / rate,
                    &traces,
                    config.seed,
                    &mut out,
                );
                phases.push(drive);
            }
        }
        for (label, phases) in [("light", &light), ("heavy", &heavy)] {
            let all: Vec<f64> = phases
                .iter()
                .flat_map(|d| d.replies.iter().map(|r| r.latency_ms))
                .collect();
            let p99s: Vec<f64> = phases
                .iter()
                .flat_map(|d| {
                    let windows = (d.replies.len() as f64 / WINDOW_REPLIES).round() as usize;
                    d.window_quantiles(windows.max(1), 0.99, |r| r.latency_ms)
                })
                .collect();
            out.set(&format!("p50_ms.{label}"), quantile(&all, 0.5));
            out.set(&format!("p99_ms.{label}"), median(&p99s));
        }
        // Read before the search, whose request count follows the
        // capacity it finds, so runs compare like with like.
        out.set("peak_rss_mb", stats::peak_rss_mb());
        let search = max_rps(&node, &mut mix);
        if !search.missed {
            eprintln!("perfbench: every max-rate growth step passed; max_rps is a lower bound");
        }
        out.set("max_rps", search.achieved);
        out.note("max_rps_offered", format!("{:.3}", search.offered));
        let end = if search.missed {
            "missed-step"
        } else {
            "growth-cap"
        };
        out.note("max_rps_search_end", format!("\"{end}\""));
        out.set("setup_s", median(&setups));
        out.set("table7_err", warm_table7_err(&node));
    }
    let stopped = node.server.stop();
    out.check(stopped.is_ok(), || format!("server stop: {stopped:?}"));
    out
}

/// The traced run: untraced bursts alternate with traced ones (a
/// `/metrics` scrape on each side), then the light and heavy phases run
/// with the server's layers read around the heavy one.
fn traced(
    node: &Node,
    mix: &mut Mix,
    traces: &[Trace],
    specs: &[WorkloadSpec],
    config: &RunConfig,
    out: &mut Outcome,
) {
    let (mut plain, mut traced, mut idle) = (Vec::new(), Vec::new(), Vec::new());
    let mut reconnects = 0;
    for _ in 0..3 {
        let (_, drive) = burst(node, mix, traces, config.seed, out);
        plain.push(drive.wall);
        reconnects += drive.reconnects;
        let started = Instant::now();
        let before = scrape(&node.addr);
        let (_, drive) = burst(node, mix, traces, config.seed, out);
        let after = scrape(&node.addr);
        let wall = started.elapsed().as_secs_f64();
        out.check(before.is_some() && after.is_some(), || {
            "cannot scrape /metrics".into()
        });
        traced.push(wall);
        idle.push(wall - drive.in_flight());
        reconnects += drive.reconnects;
    }
    out.set("trace_overhead_s", median(&traced) - median(&plain));
    out.set("unattributed_s", median(&idle));
    let phase = config.seconds * PHASE_SHARE;
    let (_, light) = open_loop(node, mix, LIGHT_RPS, phase, traces, config.seed, out);
    let before = scrape(&node.addr);
    let (requests, heavy) = open_loop(node, mix, HEAVY_RPS, phase, traces, config.seed, out);
    let after = scrape(&node.addr);
    match (before, after) {
        (Some(before), Some(after)) => server_layers(&before, &after, &heavy, out),
        _ => out.check(false, || "cannot scrape /metrics".to_string()),
    }
    out.set("loadgen.lag_p99_ms", heavy.lag(0.99));
    reconnects += light.reconnects + heavy.reconnects;
    out.set("loadgen.reconnects", reconnects as f64);
    parse_layers(&node.addr, &requests, out);
    generation_layers(specs, 0, REFS, true, out);
}
