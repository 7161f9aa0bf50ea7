//! End-to-end tests over real sockets: a served design point must be
//! bit-identical to direct evaluation, the second identical request must
//! come from the cache, sweeps must preserve request order, the server
//! must shut down cleanly, and the hardening layers — connection
//! deadlines, oversized-body rejection, the per-point circuit breaker,
//! and write-behind crash recovery — must behave as DESIGN.md §10
//! specifies.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use occache_core::CacheConfig;
use occache_experiments::checkpoint::evaluate_checkpointed_in;
use occache_experiments::runs::{journalled_grid, Workbench};
use occache_experiments::sweep::{evaluate_point, evaluate_results_sliced, materialize};
use occache_runtime::store::PointStore;
use occache_serve::fault::ServeFault;
use occache_serve::json::{ErrorBody, Json};
use occache_serve::service::{Server, ServiceConfig};
use occache_workloads::WorkloadSpec;

/// One-shot request: fresh connection, `Connection: close`, read to EOF.
fn http(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(wire.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    let text = String::from_utf8(response).expect("utf-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("unparseable response {body:?}: {e}"))
}

fn metric_bits(doc: &Json, field: &str) -> u64 {
    doc.get(field)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing {field}"))
        .to_bits()
}

const METRICS: [&str; 4] = [
    "miss_ratio",
    "traffic_ratio",
    "nibble_traffic_ratio",
    "redundant_load_fraction",
];

#[test]
fn repeated_point_is_cached_and_bit_identical_to_direct_evaluation() {
    let server = Server::start(&ServiceConfig::for_tests()).expect("start");
    let addr = server.addr();
    let body = r#"{"model":"pdp11","refs":2000,"config":{"net":256,"block":16,"sub":8}}"#;

    let (status, first) = http(&addr, "POST", "/v1/simulate", body);
    assert_eq!(status, 200, "{first}");
    let first = json(&first);
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));

    let (status, second) = http(&addr, "POST", "/v1/simulate", body);
    assert_eq!(status, 200, "{second}");
    let second = json(&second);
    assert_eq!(
        second.get("cached").and_then(Json::as_bool),
        Some(true),
        "second identical request must be served from the cache"
    );

    // Bit-identical to the first response and to direct evaluation.
    let config = CacheConfig::builder()
        .net_size(256)
        .block_size(16)
        .sub_block_size(8)
        .associativity(4)
        .word_size(2)
        .build()
        .expect("valid config");
    let traces = materialize(
        &WorkloadSpec::set_by_name("pdp11").expect("pdp11 set"),
        2_000,
    );
    let direct = evaluate_point(config, &traces, 0);
    let direct_bits = [
        direct.miss_ratio.to_bits(),
        direct.traffic_ratio.to_bits(),
        direct.nibble_traffic_ratio.to_bits(),
        direct.redundant_load_fraction.to_bits(),
    ];
    for (field, want) in METRICS.iter().zip(direct_bits) {
        assert_eq!(metric_bits(&first, field), want, "{field} vs direct");
        assert_eq!(
            metric_bits(&second, field),
            want,
            "{field} cached vs direct"
        );
    }
    assert_eq!(
        second.get("gross_size").and_then(Json::as_u64),
        Some(direct.gross_size)
    );

    assert_eq!(server.service().cache().hits(), 1);
    server.stop().expect("clean shutdown");
}

#[test]
fn sweep_preserves_request_order_and_is_fully_cached_on_repeat() {
    let server = Server::start(&ServiceConfig::for_tests()).expect("start");
    let addr = server.addr();
    let body = r#"{"model":"pdp11","refs":1500,"points":[
        {"net":256,"block":32,"sub":16},
        {"net":256,"block":8,"sub":4},
        {"net":128,"block":16,"sub":8}
    ]}"#;

    let (status, first) = http(&addr, "POST", "/v1/sweep", body);
    assert_eq!(status, 200, "{first}");
    let first = json(&first);
    assert_eq!(first.get("total").and_then(Json::as_u64), Some(3));
    assert_eq!(first.get("computed").and_then(Json::as_u64), Some(3));
    assert_eq!(first.get("cached").and_then(Json::as_u64), Some(0));
    let points = first
        .get("points")
        .and_then(Json::as_array)
        .expect("points");
    let blocks: Vec<u64> = points
        .iter()
        .map(|p| {
            p.get("config")
                .and_then(|c| c.get("block"))
                .and_then(Json::as_u64)
                .expect("block")
        })
        .collect();
    assert_eq!(
        blocks,
        [32, 8, 16],
        "points must come back in request order"
    );

    let (status, again) = http(&addr, "POST", "/v1/sweep", body);
    assert_eq!(status, 200, "{again}");
    let again = json(&again);
    assert_eq!(again.get("cached").and_then(Json::as_u64), Some(3));
    assert_eq!(again.get("computed").and_then(Json::as_u64), Some(0));
    let repeat = again
        .get("points")
        .and_then(Json::as_array)
        .expect("points");
    for (a, b) in points.iter().zip(repeat) {
        for field in METRICS {
            assert_eq!(metric_bits(a, field), metric_bits(b, field), "{field}");
        }
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn routing_and_input_validation() {
    let server = Server::start(&ServiceConfig::for_tests()).expect("start");
    let addr = server.addr();

    assert_eq!(http(&addr, "GET", "/nope", "").0, 404);
    assert_eq!(http(&addr, "GET", "/v1/simulate", "").0, 405);
    assert_eq!(http(&addr, "POST", "/v1/simulate", "not json").0, 400);
    let (status, body) = http(
        &addr,
        "POST",
        "/v1/simulate",
        r#"{"model":"enigma","config":{"net":64,"block":8,"sub":4}}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown model"), "{body}");
    let (status, body) = http(
        &addr,
        "POST",
        "/v1/simulate",
        r#"{"model":"pdp11","config":{"net":63,"block":8,"sub":4}}"#,
    );
    assert_eq!(status, 400, "{body}");

    let (status, stat) = http(&addr, "GET", "/v1/status", "");
    assert_eq!(status, 200);
    let stat = json(&stat);
    assert_eq!(stat.get("workers").and_then(Json::as_u64), Some(2));
    // The operational summary occache-top reads: integer uptime, replay
    // count and peer summary are always present (a single node without a
    // journal reports zeros).
    assert!(
        stat.get("uptime_s").and_then(Json::as_u64).is_some(),
        "{stat:?}"
    );
    // One uptime field: the float `uptime_seconds` lives on only as the
    // Prometheus gauge.
    assert!(stat.get("uptime_seconds").is_none(), "{stat:?}");
    assert_eq!(stat.get("journal_replayed").and_then(Json::as_u64), Some(0));
    assert_eq!(stat.get("peers").and_then(Json::as_u64), Some(0));
    assert_eq!(stat.get("peers_up").and_then(Json::as_u64), Some(0));

    let (status, metrics) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for family in [
        "occache_requests_total",
        "occache_queue_depth",
        "occache_cache_hits_total",
        "occache_request_seconds{quantile=\"0.99\"}",
        "occache_worker_busy_seconds{worker=\"0\"}",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn health_is_liveness_and_ready_tracks_drain() {
    let server = Server::start(&ServiceConfig::for_tests()).expect("start");
    let addr = server.addr();

    // Liveness and readiness answer from the very first accept: the
    // warm start finished inside `Server::start`.
    let (status, body) = http(&addr, "GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(&addr, "GET", "/v1/ready", "");
    assert_eq!(status, 200, "{body}");

    // Draining: readiness flips to an attributed 503, liveness stays up.
    server.service().begin_drain();
    let (status, body) = http(&addr, "GET", "/v1/ready", "");
    assert_eq!(status, 503, "{body}");
    let parsed = ErrorBody::parse(&body).expect("structured ready error");
    assert_eq!(parsed.code, "draining");
    assert!(!parsed.retryable);
    assert_eq!(http(&addr, "GET", "/v1/health", "").0, 200);
    server.stop().expect("clean shutdown");
}

#[test]
fn mid_request_deadline_answers_408_and_idle_connections_close_silently() {
    let mut config = ServiceConfig::for_tests();
    config.conn_timeout = Some(Duration::from_millis(200));
    let server = Server::start(&config).expect("start");
    let addr = server.addr();

    // A slow-loris half request: the server must answer 408 within the
    // deadline and close, never park the thread.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(b"POST /v1/simulate HTTP/1.1\r\nContent-")
        .expect("partial head");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("server reply");
    let text = String::from_utf8(response).expect("utf-8");
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let parsed = ErrorBody::parse(body).expect("structured 408 body");
    assert_eq!(parsed.code, "request-timeout");
    assert!(parsed.retryable, "a fresh, faster attempt can succeed");

    // An idle connection (no bytes at all) is closed without a response.
    let mut idle = TcpStream::connect(addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut nothing = Vec::new();
    idle.read_to_end(&mut nothing).expect("silent close");
    assert!(nothing.is_empty(), "{nothing:?}");
    server.stop().expect("clean shutdown");
}

#[test]
fn oversized_requests_are_refused_with_413() {
    let server = Server::start(&ServiceConfig::for_tests()).expect("start");
    let addr = server.addr();

    // A body budget violation is detected from the head alone — the
    // server refuses before reading 5 MB.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n")
        .expect("send oversized head");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("server reply");
    let text = String::from_utf8(response).expect("utf-8");
    assert!(text.starts_with("HTTP/1.1 413"), "{text}");
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let parsed = ErrorBody::parse(body).expect("structured 413 body");
    assert_eq!(parsed.code, "payload-too-large");
    assert!(!parsed.retryable);
    server.stop().expect("clean shutdown");
}

#[test]
fn circuit_breaker_quarantines_a_repeatedly_failing_point() {
    let mut config = ServiceConfig::for_tests();
    // Every evaluation panics and the supervisor has no retry budget, so
    // each request records one breaker failure for its key.
    config.fault = Some(Arc::new(
        ServeFault::parse("panic-worker:1").expect("fault spec"),
    ));
    config.breaker_threshold = 2;
    let server = Server::start(&config).expect("start");
    let addr = server.addr();
    let body = r#"{"model":"pdp11","refs":1000,"config":{"net":256,"block":16,"sub":8}}"#;

    // Two failing attempts, each an attributed eval-panic with the key.
    let mut key = None;
    for _ in 0..2 {
        let (status, text) = http(&addr, "POST", "/v1/simulate", body);
        assert_eq!(status, 500, "{text}");
        let parsed = ErrorBody::parse(&text).expect("structured eval failure");
        assert_eq!(parsed.code, "eval-panic");
        assert!(parsed.retryable, "a panicked evaluation is retryable");
        assert!(parsed.point_key.is_some(), "failure must carry its key");
        key = parsed.point_key;
    }

    // The third attempt is refused without touching a worker.
    let (status, text) = http(&addr, "POST", "/v1/simulate", body);
    assert_eq!(status, 503, "{text}");
    let parsed = ErrorBody::parse(&text).expect("structured quarantine");
    assert_eq!(parsed.code, "quarantined");
    assert!(!parsed.retryable);
    assert_eq!(parsed.point_key, key, "quarantine names the same key");

    // A sweep containing the quarantined point reports it as a failure
    // with fault attribution instead of evaluating it.
    let sweep = r#"{"model":"pdp11","refs":1000,"points":[{"net":256,"block":16,"sub":8}]}"#;
    let (status, text) = http(&addr, "POST", "/v1/sweep", sweep);
    assert_eq!(status, 200, "{text}");
    let doc = json(&text);
    let failures = doc
        .get("failures")
        .and_then(Json::as_array)
        .expect("failures");
    assert_eq!(failures.len(), 1);
    assert_eq!(
        failures[0].get("fault").and_then(Json::as_str),
        Some("quarantined")
    );

    let (_, metrics) = http(&addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("occache_quarantined_total 2"),
        "simulate + sweep refusals:\n{metrics}"
    );
    server.stop().expect("clean shutdown");
}

#[test]
fn restart_serves_journaled_points_bit_identically() {
    let dir = std::env::temp_dir().join(format!("occache-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let mut config = ServiceConfig::for_tests();
    config.journal_dir = Some(dir.to_string_lossy().into_owned());
    let body = r#"{"model":"pdp11","refs":1000,"config":{"net":128,"block":16,"sub":8}}"#;

    let first_run = {
        let server = Server::start(&config).expect("start");
        let (status, text) = http(&server.addr(), "POST", "/v1/simulate", body);
        assert_eq!(status, 200, "{text}");
        server.stop().expect("clean shutdown");
        text
    };

    // A new process (new Server, same journal dir) must answer the same
    // point from disk: cached, never recomputed, bit-identical.
    let server = Server::start(&config).expect("restart");
    let (status, text) = http(&server.addr(), "POST", "/v1/simulate", body);
    assert_eq!(status, 200, "{text}");
    let a = json(&first_run);
    let b = json(&text);
    assert_eq!(
        b.get("cached").and_then(Json::as_bool),
        Some(true),
        "recovered point must come from the journal-warmed cache: {text}"
    );
    for field in METRICS {
        assert_eq!(
            metric_bits(&a, field),
            metric_bits(&b, field),
            "{field} across restart"
        );
    }
    assert_eq!(
        a.get("key").and_then(Json::as_str),
        b.get("key").and_then(Json::as_str)
    );
    assert_eq!(server.service().cache().hits(), 1);
    // The restarted node owns up to the replay in its status summary.
    let (status, stat) = http(&server.addr(), "GET", "/v1/status", "");
    assert_eq!(status, 200);
    assert_eq!(
        json(&stat).get("journal_replayed").and_then(Json::as_u64),
        Some(1),
        "{stat}"
    );
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_table7_journal_is_served_without_recomputing() {
    const REFS: usize = 1_000;
    let dir = std::env::temp_dir().join(format!("occache-serve-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Seal the PDP-11 slice of Table 7 exactly as the batch binary does:
    // same grid, traces, warm-up and journal name.
    let mut bench = Workbench::new(REFS);
    let groups = journalled_grid(&mut bench, "table7").expect("table7 keeps a journal");
    let pdp11 = &groups[0];
    let store = PointStore::load(&dir, usize::MAX);
    let sealed = evaluate_checkpointed_in(
        &store,
        "table7",
        &pdp11.configs,
        &pdp11.traces,
        pdp11.warmup,
        true,
        evaluate_results_sliced,
    )
    .expect("seal the table7 journal");
    assert_eq!(sealed.points.len(), pdp11.configs.len());

    let mut config = ServiceConfig::for_tests();
    config.journal_dir = Some(dir.to_string_lossy().into_owned());
    // Room for the whole grid, so a cold cache would compute it rather
    // than shed it.
    config.queue_capacity = 256;
    let server = Server::start(&config).expect("start");
    let addr = server.addr();
    let sweep = format!(r#"{{"model":"pdp11","refs":{REFS},"grid":{{"nets":[64,256,1024]}}}}"#);
    let (status, text) = http(&addr, "POST", "/v1/sweep", &sweep);
    assert_eq!(status, 200, "{text}");
    let doc = json(&text);
    assert_eq!(
        doc.get("total").and_then(Json::as_u64),
        Some(pdp11.configs.len() as u64),
        "{text}"
    );
    assert_eq!(
        doc.get("computed").and_then(Json::as_u64),
        Some(0),
        "cached {:?} of the grid",
        doc.get("cached").and_then(Json::as_u64)
    );

    let (_, metrics) = http(&addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("occache_points_computed_total 0\n"),
        "every point must come from the batch journal:\n{metrics}"
    );
    let (_, stat) = http(&addr, "GET", "/v1/status", "");
    assert_eq!(
        json(&stat).get("journal_replayed").and_then(Json::as_u64),
        Some(pdp11.configs.len() as u64),
        "{stat}"
    );
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value of an unlabelled counter in a `/metrics` exposition.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} in\n{metrics}"))
}

#[test]
fn journal_appends_count_lines_written_not_points_queued() {
    let dir = std::env::temp_dir().join(format!("occache-serve-appends-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServiceConfig::for_tests();
    config.journal_dir = Some(dir.to_string_lossy().into_owned());
    // One resident point: every new key evicts the last, so a repeat of
    // an evicted key is computed again.
    config.cache_capacity = 1;
    let server = Server::start(&config).expect("start");
    let addr = server.addr();
    let point = |net: u64| {
        format!(r#"{{"model":"pdp11","refs":1000,"config":{{"net":{net},"block":16,"sub":8}}}}"#)
    };
    for net in [128, 256, 128, 512] {
        let (status, text) = http(&addr, "POST", "/v1/simulate", &point(net));
        assert_eq!(status, 200, "{text}");
        assert_eq!(
            json(&text).get("cached").and_then(Json::as_bool),
            Some(false)
        );
    }
    // The writer drains its queue in order: once the last key's line is
    // counted, the second 128-byte point has been dropped as a key
    // already on disk.
    let journal = dir.join(".checkpoint").join("serve.jsonl");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        let (_, metrics) = http(&addr, "GET", "/metrics", "");
        if counter(&metrics, "occache_journal_appends_total") >= 3
            || std::time::Instant::now() > deadline
        {
            break metrics;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(counter(&metrics, "occache_points_computed_total"), 4);
    assert_eq!(
        counter(&metrics, "occache_journal_appends_total"),
        3,
        "the 128-byte point was computed twice and appended once:\n{metrics}"
    );
    let lines = std::fs::read_to_string(&journal).expect("serve journal");
    assert_eq!(lines.lines().count(), 3, "{lines}");
    server.stop().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
