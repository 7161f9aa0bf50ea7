//! Service counters and the `/metrics` text exposition.
//!
//! The instruments themselves — the lock-free [`Counter`], the
//! fixed-bucket latency [`Histogram`] and the [`Registry`] snapshot that
//! renders them — live in [`occache_runtime::instrument`], shared with
//! the batch harness (whose `RUN_REPORT.json` totals render through the
//! same registry). This module owns only the service's instrument *set*
//! and the family order of its Prometheus exposition.

use std::sync::Arc;
use std::time::Duration;

use occache_runtime::instrument::{Counter, Registry};

pub use occache_runtime::instrument::Histogram;

/// Request-level counters for the whole service.
#[derive(Debug, Default)]
pub struct Counters {
    /// All requests accepted for processing (any endpoint).
    pub requests: Counter,
    /// `/v1/simulate` requests.
    pub simulate: Counter,
    /// `/v1/sweep` requests.
    pub sweep: Counter,
    /// `/v1/status` and `/metrics` scrapes.
    pub scrapes: Counter,
    /// Requests rejected with 429 (queue full).
    pub rejected: Counter,
    /// Interactive (single-point) submissions shed by admission control.
    pub shed_interactive: Counter,
    /// Bulk (grid) submissions shed by admission control.
    pub shed_bulk: Counter,
    /// Requests answered 408 (connection deadline hit mid-request).
    pub timeouts: Counter,
    /// Requests refused because the point key is quarantined by the
    /// circuit breaker.
    pub quarantined: Counter,
    /// Lines the write-behind writer appended to the serve journal
    /// (shared with its thread, which counts each successful write).
    pub journal_appends: Arc<Counter>,
    /// Requests answered 4xx (malformed input).
    pub client_errors: Counter,
    /// Requests answered 5xx.
    pub server_errors: Counter,
    /// Design points served straight from the result cache.
    pub points_cached: Counter,
    /// Design points computed by the scheduler.
    pub points_computed: Counter,
    /// Design points obtained from an owning peer's cache (warm fill).
    pub peer_fill_points: Counter,
    /// Design points computed locally although a remote peer owns them
    /// (owner down or fill failed).
    pub peer_steal: Counter,
    /// Peer-originated (`peer_fill: true`) requests answered.
    pub peer_fill_served: Counter,
    /// End-to-end latency of simulate/sweep requests.
    pub latency: Histogram,
}

/// Peer-tier stats sampled from the [`crate::peer::PeerSet`] at render
/// time — present only when the node runs in a cluster.
#[derive(Debug, Clone)]
pub struct PeerStats {
    /// Per-peer breaker state: 0 down, 1 half-open, 2 up.
    pub states: Vec<(String, u64)>,
    /// Breaker trips since start.
    pub down_total: u64,
    /// Failed liveness probes since start.
    pub probe_failures: u64,
    /// Outbound peer calls attempted.
    pub calls: u64,
}

/// Point-in-time gauges the service assembles from its other layers for
/// a `/metrics` render.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Jobs waiting in the scheduler queue.
    pub queue_depth: usize,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Workers currently evaluating a batch.
    pub workers_busy: usize,
    /// Result-cache entries.
    pub cache_entries: usize,
    /// Result-cache hits since start.
    pub cache_hits: u64,
    /// Result-cache misses since start.
    pub cache_misses: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Whether `/v1/ready` currently answers 200 (warm start finished,
    /// not draining).
    pub ready: bool,
    /// Whether shutdown has begun.
    pub draining: bool,
    /// The `Retry-After` seconds a 429 would carry right now.
    pub retry_after: u64,
}

/// Assembles the service's instrument families, in exposition order,
/// into a [`Registry`] snapshot.
pub fn registry(
    counters: &Counters,
    gauges: Gauges,
    worker_busy: &[Duration],
    faults_injected: &[(&'static str, u64)],
    peer: Option<&PeerStats>,
) -> Registry {
    let mut reg = Registry::new();
    reg.counter(
        "occache_requests_total",
        "Requests accepted on any endpoint.",
        counters.requests.get(),
    )
    .counter(
        "occache_requests_simulate_total",
        "POST /v1/simulate requests.",
        counters.simulate.get(),
    )
    .counter(
        "occache_requests_sweep_total",
        "POST /v1/sweep requests.",
        counters.sweep.get(),
    )
    .counter(
        "occache_scrapes_total",
        "Status and metrics scrapes.",
        counters.scrapes.get(),
    )
    .counter(
        "occache_rejected_total",
        "Requests rejected with 429 (queue full).",
        counters.rejected.get(),
    )
    .counter(
        "occache_shed_interactive_total",
        "Interactive submissions shed by admission control.",
        counters.shed_interactive.get(),
    )
    .counter(
        "occache_shed_bulk_total",
        "Bulk (grid) submissions shed by admission control.",
        counters.shed_bulk.get(),
    )
    .counter(
        "occache_timeouts_total",
        "Requests answered 408 (connection deadline mid-request).",
        counters.timeouts.get(),
    )
    .counter(
        "occache_quarantined_total",
        "Requests refused because the point key is circuit-broken.",
        counters.quarantined.get(),
    )
    .counter(
        "occache_journal_appends_total",
        "Computed points queued to the write-behind journal.",
        counters.journal_appends.get(),
    )
    .counter(
        "occache_client_errors_total",
        "Requests answered 4xx.",
        counters.client_errors.get(),
    )
    .counter(
        "occache_server_errors_total",
        "Requests answered 5xx.",
        counters.server_errors.get(),
    )
    .counter(
        "occache_cache_hits_total",
        "Design points served from the result cache.",
        gauges.cache_hits,
    )
    .counter(
        "occache_cache_misses_total",
        "Design points not found in the result cache.",
        gauges.cache_misses,
    )
    .counter(
        "occache_points_computed_total",
        "Design points computed by the scheduler.",
        counters.points_computed.get(),
    )
    .counter(
        "occache_peer_fill_points_total",
        "Design points obtained from an owning peer's cache.",
        counters.peer_fill_points.get(),
    )
    .counter(
        "occache_peer_steal_total",
        "Remote-owned design points computed locally (owner down or fill failed).",
        counters.peer_steal.get(),
    )
    .counter(
        "occache_peer_fill_served_total",
        "Peer-originated (peer_fill) requests answered.",
        counters.peer_fill_served.get(),
    )
    .gauge(
        "occache_queue_depth",
        "Jobs waiting in the scheduler queue.",
        gauges.queue_depth as u64,
    )
    .gauge(
        "occache_workers",
        "Scheduler worker threads.",
        gauges.workers as u64,
    )
    .bare("occache_workers_busy", gauges.workers_busy as u128)
    .gauge(
        "occache_cache_entries",
        "Result-cache entries resident.",
        gauges.cache_entries as u64,
    )
    .gauge(
        "occache_ready",
        "1 when /v1/ready answers 200 (warm start done, not draining).",
        u64::from(gauges.ready),
    )
    .gauge(
        "occache_draining",
        "1 once shutdown has begun.",
        u64::from(gauges.draining),
    )
    .gauge(
        "occache_retry_after_seconds",
        "The Retry-After estimate a 429 would carry right now.",
        gauges.retry_after,
    )
    .gauge_seconds(
        "occache_uptime_seconds",
        "Seconds since service start.",
        gauges.uptime_seconds,
    )
    .labeled_counter_seconds(
        "occache_worker_busy_seconds",
        "Cumulative evaluation time per worker.",
        "worker",
        worker_busy
            .iter()
            .enumerate()
            .map(|(i, busy)| (i.to_string(), busy.as_secs_f64())),
    )
    .summary(
        "occache_request_seconds",
        "Simulate/sweep latency quantiles (bucket upper bounds).",
        [("0.5", 0.5), ("0.99", 0.99)]
            .map(|(label, q)| (label.to_string(), counters.latency.quantile_seconds(q))),
    )
    .bare(
        "occache_request_seconds_count",
        u128::from(counters.latency.count()),
    );
    if let Some(peer) = peer {
        reg.counter(
            "occache_peer_down_total",
            "Per-peer circuit-breaker trips.",
            peer.down_total,
        )
        .counter(
            "occache_peer_probe_failures_total",
            "Failed liveness probes.",
            peer.probe_failures,
        )
        .counter(
            "occache_peer_calls_total",
            "Outbound peer calls attempted.",
            peer.calls,
        )
        .labeled_gauge(
            "occache_peer_state",
            "Per-peer breaker state: 0 down, 1 half-open, 2 up.",
            "peer",
            peer.states.iter().cloned(),
        );
    }
    for (kind, fired) in faults_injected {
        reg.counter(
            &format!("occache_fault_{kind}_injected_total"),
            "Chaos injections fired (OCCACHE_SERVE_FAULT).",
            *fired,
        );
    }
    reg
}

/// Renders the Prometheus-style text exposition for `/metrics`.
pub fn render(
    counters: &Counters,
    gauges: Gauges,
    worker_busy: &[Duration],
    faults_injected: &[(&'static str, u64)],
    peer: Option<&PeerStats>,
) -> String {
    registry(counters, gauges, worker_busy, faults_injected, peer).render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_every_family() {
        let counters = Counters::default();
        counters.requests.bump();
        counters.latency.record(Duration::from_millis(2));
        counters.shed_bulk.bump();
        counters.timeouts.bump();
        let text = render(
            &counters,
            Gauges {
                queue_depth: 1,
                workers: 2,
                workers_busy: 1,
                cache_entries: 3,
                cache_hits: 4,
                cache_misses: 5,
                uptime_seconds: 6.5,
                ready: true,
                draining: false,
                retry_after: 3,
            },
            &[Duration::from_secs(1), Duration::from_secs(2)],
            &[("torn_write", 2), ("drop_conn", 0)],
            None,
        );
        for needle in [
            "occache_requests_total 1",
            "occache_queue_depth 1",
            "occache_workers 2",
            "occache_workers_busy 1",
            "occache_shed_interactive_total 0",
            "occache_shed_bulk_total 1",
            "occache_timeouts_total 1",
            "occache_quarantined_total 0",
            "occache_journal_appends_total 0",
            "occache_cache_hits_total 4",
            "occache_cache_misses_total 5",
            "occache_ready 1",
            "occache_draining 0",
            "occache_retry_after_seconds 3",
            "occache_uptime_seconds 6.500",
            "occache_worker_busy_seconds{worker=\"1\"} 2.000",
            "occache_request_seconds{quantile=\"0.5\"} 0.004096",
            "occache_request_seconds{quantile=\"0.99\"} 0.004096",
            "occache_request_seconds_count 1",
            "occache_fault_torn_write_injected_total 2",
            "occache_fault_drop_conn_injected_total 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(
            !text.contains("occache_peer_state"),
            "peer families should be absent outside a cluster:\n{text}"
        );
    }

    #[test]
    fn peer_families_render_when_clustered() {
        let counters = Counters::default();
        counters.peer_fill_points.bump();
        let stats = PeerStats {
            states: vec![
                ("127.0.0.1:7801".to_string(), 2),
                ("127.0.0.1:7802".to_string(), 0),
            ],
            down_total: 1,
            probe_failures: 3,
            calls: 7,
        };
        let text = render(&counters, Gauges::default(), &[], &[], Some(&stats));
        for needle in [
            "occache_peer_fill_points_total 1",
            "occache_peer_steal_total 0",
            "occache_peer_fill_served_total 0",
            "occache_peer_down_total 1",
            "occache_peer_probe_failures_total 3",
            "occache_peer_calls_total 7",
            "occache_peer_state{peer=\"127.0.0.1:7801\"} 2",
            "occache_peer_state{peer=\"127.0.0.1:7802\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
