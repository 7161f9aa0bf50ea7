//! Three-node cluster tests: a `kill -9` of one node mid-load must
//! leave zero unattributed client errors, and the surviving cluster's
//! results must stay bit-identical to a single-node run of the same
//! points (DESIGN.md §12).
//!
//! Two nodes run in-process; the third runs as a real child process —
//! this same test binary re-executed with `OCCACHE_CLUSTER_HELPER` set,
//! filtered to the [`helper_node`] test — so SIGKILL takes out a whole
//! OS process with its sockets mid-conversation, not a politely drained
//! thread.

use std::collections::BTreeSet;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use occache_core::CacheConfig;
use occache_serve::fault::ServeFault;
use occache_serve::json::{ErrorBody, Json};
use occache_serve::peer::http_call;
use occache_serve::router::{ranked, route_key, RouterConfig, RouterServer};
use occache_serve::service::{Server, ServiceConfig};

const MODEL: &str = "pdp11";
const REFS: usize = 2_000;
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Reserves `n` distinct loopback ports by binding ephemeral listeners,
/// then releasing them all at once.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

/// The cycled design points: the Table 1 grid at a few net sizes.
fn keyspace() -> Vec<CacheConfig> {
    let mut points = Vec::new();
    for net in [256u64, 512, 1024] {
        for (block, sub) in occache_experiments::sweep::table1_pairs(net, 2) {
            let config = CacheConfig::builder()
                .net_size(net)
                .block_size(block)
                .sub_block_size(sub)
                .word_size(2)
                .build()
                .expect("grid point");
            points.push(config);
        }
    }
    points
}

fn body_for(config: &CacheConfig) -> String {
    format!(
        "{{\"model\":\"{MODEL}\",\"refs\":{REFS},\
         \"config\":{{\"net\":{},\"block\":{},\"sub\":{},\"assoc\":{},\"word\":{}}}}}",
        config.net_size(),
        config.block_size(),
        config.sub_block_size(),
        config.associativity(),
        config.word_size(),
    )
}

/// The bit-pattern digest line for one 200 response.
fn digest_line(body: &str) -> String {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("unparseable 200 body {body:?}: {e}"));
    let bits = |field: &str| {
        doc.get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("missing {field} in {body}"))
            .to_bits()
    };
    format!(
        "{} {:016x} {:016x} {:016x} {:016x}",
        doc.get("key").and_then(Json::as_str).expect("key"),
        bits("miss_ratio"),
        bits("traffic_ratio"),
        bits("nibble_traffic_ratio"),
        bits("redundant_load_fraction"),
    )
}

/// One client request under the chaos contract: walk the rendezvous
/// ranking, retrying transport failures on the next survivor. Panics on
/// any unattributed non-200; returns the digest line of the eventual
/// 200.
fn resilient_simulate(config: &CacheConfig, peers: &[String]) -> String {
    let key = route_key(MODEL, REFS, 0, config);
    let body = body_for(config);
    let mut last = String::new();
    for round in 0..10 {
        for addr in ranked(key, peers) {
            match http_call(addr, "POST", "/v1/simulate", body.as_bytes(), CALL_TIMEOUT) {
                Ok((200, reply)) => {
                    let reply = String::from_utf8(reply).expect("utf-8 body");
                    return digest_line(&reply);
                }
                Ok((status, reply)) => {
                    // Every non-200 must carry a structured, attributed
                    // error body — "zero unattributed client errors".
                    let reply = String::from_utf8_lossy(&reply).into_owned();
                    let parsed = ErrorBody::parse(&reply).unwrap_or_else(|why| {
                        panic!("unattributed {status} from {addr}: {reply:?} ({why})")
                    });
                    last = format!("{addr}: {status} {}", parsed.code);
                }
                Err(why) => {
                    // Transport failure — the killed node. Fail over.
                    last = why;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50 * (round + 1)));
    }
    panic!("no peer answered 200 for {config:?}; last: {last}");
}

/// Waits until `/v1/health` answers 200 at `addr`.
fn await_healthy(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok((200, _)) = http_call(addr, "GET", "/v1/health", b"", Duration::from_secs(1)) {
            return;
        }
        assert!(Instant::now() < deadline, "{addr} never became healthy");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Builds the in-process node config for one cluster member.
fn node_config(addr: &str, peers: &[String], journal: &std::path::Path) -> ServiceConfig {
    let mut config = ServiceConfig::for_tests();
    config.addr = addr.to_string();
    config.workers = 1;
    config.peers = Some(peers.to_vec());
    config.self_addr = Some(addr.to_string());
    config.journal_dir = Some(journal.to_string_lossy().into_owned());
    config
}

/// Spawns the third node as a child OS process: this test binary,
/// re-run filtered to [`helper_node`] with the cluster environment set.
fn spawn_helper(addr: &str, peers: &str, journal: &std::path::Path) -> HelperNode {
    let child = Command::new(std::env::current_exe().expect("current exe"))
        .args(["helper_node", "--exact", "--nocapture", "--ignored"])
        .env("OCCACHE_CLUSTER_HELPER", "1")
        .env("OCCACHE_SERVE_ADDR", addr)
        .env("OCCACHE_PEERS", peers)
        .env("OCCACHE_SELF", addr)
        .env("OCCACHE_SERVE_WORKERS", "1")
        .env("OCCACHE_SERVE_JOURNAL", journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn helper node");
    HelperNode(child)
}

/// A helper node process. Dropping it kills and reaps the process, so it
/// never outlives the test, whichever way the test leaves — a failed
/// assertion included.
struct HelperNode(Child);

impl HelperNode {
    /// SIGKILLs the node and reaps it.
    fn kill(&mut self) {
        self.0.kill().expect("SIGKILL node c");
        self.0.wait().expect("reap node c");
    }
}

impl Drop for HelperNode {
    fn drop(&mut self) {
        // Already gone after `kill`: both calls then fail harmlessly.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Not a test of its own: the body of the child process [`spawn_helper`]
/// launches. Serves until killed. `#[ignore]` keeps normal test runs
/// from executing it; the parent passes `--ignored` explicitly.
#[test]
#[ignore = "child-process body for the kill -9 test, not a standalone test"]
fn helper_node() {
    if std::env::var("OCCACHE_CLUSTER_HELPER").is_err() {
        return;
    }
    let config = ServiceConfig::try_from_env().expect("helper config from env");
    let server = Server::start(&config).expect("helper bind");
    // Serve until SIGKILL; the parent owns this process's lifetime.
    loop {
        assert!(!server.finished(), "helper accept loop died");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn kill_nine_mid_load_leaves_no_unattributed_errors() {
    let temp = std::env::temp_dir().join(format!("occache_cluster_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&temp);
    std::fs::create_dir_all(&temp).expect("temp dir");

    let ports = free_ports(3);
    let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let peers_env = addrs.join(",");

    // Nodes A and B in-process, node C as a real child process.
    let node_a = Server::start(&node_config(&addrs[0], &addrs, &temp.join("ja"))).expect("node a");
    let node_b = Server::start(&node_config(&addrs[1], &addrs, &temp.join("jb"))).expect("node b");
    let mut node_c = spawn_helper(&addrs[2], &peers_env, &temp.join("jc"));
    for addr in &addrs {
        await_healthy(addr);
    }

    // Drive the keyspace three times: one full round against the
    // healthy cluster, then kill -9 node C and keep going — the second
    // and third rounds overlap the breaker's detection window and the
    // re-hashed steady state.
    let points = keyspace();
    assert!(points.len() >= 20, "keyspace too small to be interesting");
    let mut cluster_digest = BTreeSet::new();
    for round in 0..3 {
        if round == 1 {
            node_c.kill();
        }
        for config in &points {
            cluster_digest.insert(resilient_simulate(config, &addrs));
        }
    }
    assert_eq!(
        cluster_digest.len(),
        points.len(),
        "each design point must digest identically in every round, dead node or not"
    );

    // The same points on a fresh single-node server must be
    // bit-identical — sharding and failover change *where* a point is
    // computed, never *what*.
    let mut single_config = ServiceConfig::for_tests();
    single_config.workers = 1;
    let single = Server::start(&single_config).expect("single node");
    let single_addr = [single.addr().to_string()];
    let single_digest: BTreeSet<String> = points
        .iter()
        .map(|config| resilient_simulate(config, &single_addr))
        .collect();
    assert_eq!(
        cluster_digest, single_digest,
        "cluster results must be bit-identical to a single-node run"
    );

    single.stop().expect("single stop");
    node_a.stop().expect("node a stop");
    node_b.stop().expect("node b stop");
    let _ = std::fs::remove_dir_all(&temp);
}

#[test]
fn restarted_node_rejoins_with_cache_replayed() {
    let temp = std::env::temp_dir().join(format!("occache_rejoin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&temp);
    std::fs::create_dir_all(&temp).expect("temp dir");

    let ports = free_ports(2);
    let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let node_a = Server::start(&node_config(&addrs[0], &addrs, &temp.join("ja"))).expect("node a");
    let node_b = Server::start(&node_config(&addrs[1], &addrs, &temp.join("jb"))).expect("node b");
    for addr in &addrs {
        await_healthy(addr);
    }

    // Warm every point in, noting which node B owns.
    let points = keyspace();
    let mut owned_by_b = 0usize;
    for config in &points {
        resilient_simulate(config, &addrs);
        if occache_serve::router::owner(route_key(MODEL, REFS, 0, config), &addrs) == addrs[1] {
            owned_by_b += 1;
        }
    }
    assert!(owned_by_b > 0, "rendezvous should give node B some keys");

    // Stop node B (the write-behind journal survives on disk) and
    // restart it on the same address with the same journal.
    node_b.stop().expect("node b stop");
    let node_b = Server::start(&node_config(&addrs[1], &addrs, &temp.join("jb"))).expect("rejoin");
    await_healthy(&addrs[1]);

    // The rejoined node must answer its keys from the replayed journal:
    // cached, computing nothing new.
    let (_, status) = http_call(&addrs[1], "GET", "/v1/status", b"", CALL_TIMEOUT)
        .map(|(s, b)| (s, String::from_utf8_lossy(&b).into_owned()))
        .expect("status");
    let doc = Json::parse(&status).expect("status json");
    let replayed = doc
        .get("cache_entries")
        .and_then(Json::as_u64)
        .expect("cache_entries");
    assert!(
        replayed >= owned_by_b as u64,
        "rejoined node replayed {replayed} entries, owns {owned_by_b}"
    );
    // The replay count itself is a first-class status field, and the
    // clustered node reports its peer summary.
    assert_eq!(
        doc.get("journal_replayed").and_then(Json::as_u64),
        Some(replayed),
        "{status}"
    );
    assert_eq!(
        doc.get("peers").and_then(Json::as_u64),
        Some(addrs.len() as u64),
        "{status}"
    );

    for config in &points {
        resilient_simulate(config, &addrs);
    }
    let (_, metrics) = http_call(&addrs[1], "GET", "/metrics", b"", CALL_TIMEOUT)
        .map(|(s, b)| (s, String::from_utf8_lossy(&b).into_owned()))
        .expect("metrics");
    let computed_after_rejoin = metrics
        .lines()
        .find(|l| l.starts_with("occache_points_computed_total "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("computed counter");
    assert_eq!(
        computed_after_rejoin, 0,
        "a rejoined node must serve its keys from the replayed journal, not recompute"
    );

    node_a.stop().expect("node a stop");
    node_b.stop().expect("node b stop");
    let _ = std::fs::remove_dir_all(&temp);
}

#[test]
fn router_status_reports_uptime_and_peer_summary() {
    let ports = free_ports(1);
    let addr = format!("127.0.0.1:{}", ports[0]);
    let temp = std::env::temp_dir().join(format!("occache-route-status-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&temp);
    let peers = vec![addr.clone()];
    let node = Server::start(&node_config(&addr, &peers, &temp.join("j"))).expect("node");
    await_healthy(&addr);
    let router = RouterServer::start(&RouterConfig::for_tests(peers)).expect("router");
    let raddr = router.addr().to_string();

    let (status, body) = http_call(&raddr, "GET", "/v1/status", b"", CALL_TIMEOUT)
        .map(|(s, b)| (s, String::from_utf8_lossy(&b).into_owned()))
        .expect("router status");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("status json");
    assert_eq!(
        doc.get("service").and_then(Json::as_str),
        Some("occache-route"),
        "{body}"
    );
    // The same operational summary shape as occache-serve: integer
    // uptime, a (vacuous) replay count, and the peer roster.
    assert!(
        doc.get("uptime_s").and_then(Json::as_u64).is_some(),
        "{body}"
    );
    assert!(doc.get("uptime_seconds").is_none(), "{body}");
    assert_eq!(doc.get("journal_replayed").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("peers").and_then(Json::as_u64), Some(1), "{body}");

    router.stop().expect("router stop");
    node.stop().expect("node stop");
    let _ = std::fs::remove_dir_all(&temp);
}

#[test]
fn router_torn_writes_fire_and_completed_answers_stay_bit_identical() {
    let node = Server::start(&ServiceConfig::for_tests()).expect("node");
    let naddr = node.addr().to_string();
    let mut config = RouterConfig::for_tests(vec![naddr.clone()]);
    config.fault = Some(Arc::new(
        ServeFault::parse("torn-write:3").expect("fault spec"),
    ));
    let router = RouterServer::start(&config).expect("router");
    let raddr = router.addr().to_string();

    let (mut completed, mut torn) = (0, 0);
    for config in keyspace().iter().take(12) {
        let body = body_for(config);
        let (status, own) = http_call(
            &naddr,
            "POST",
            "/v1/simulate",
            body.as_bytes(),
            CALL_TIMEOUT,
        )
        .expect("node answers directly");
        let own = String::from_utf8(own).expect("utf-8 body");
        assert_eq!(status, 200, "{own}");
        match http_call(
            &raddr,
            "POST",
            "/v1/simulate",
            body.as_bytes(),
            CALL_TIMEOUT,
        ) {
            Ok((status, reply)) => {
                let reply = String::from_utf8(reply).expect("utf-8 body");
                assert_eq!(status, 200, "{reply}");
                assert_eq!(digest_line(&reply), digest_line(&own), "{config:?}");
                completed += 1;
            }
            // A torn response is an error, never a short answer.
            Err(_) => torn += 1,
        }
    }
    assert!(
        completed > 0 && torn > 0,
        "{completed} completed, {torn} torn"
    );

    // The scrape itself may be torn: retry until one arrives whole.
    let metrics = (0..10)
        .find_map(|_| http_call(&raddr, "GET", "/metrics", b"", CALL_TIMEOUT).ok())
        .map(|(_, text)| String::from_utf8(text).expect("utf-8 metrics"))
        .expect("router metrics");
    let fired: u64 = metrics
        .lines()
        .find_map(|line| line.strip_prefix("occache_fault_torn_write_injected_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no torn-write counter in\n{metrics}"));
    assert!(fired > 0, "{metrics}");

    router.stop().expect("router stop");
    node.stop().expect("node stop");
}
