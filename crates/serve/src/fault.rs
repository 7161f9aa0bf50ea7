//! Deterministic socket- and scheduler-layer fault injection: the
//! serving counterpart of the batch harness's `OCCACHE_FAULT_POINT`.
//!
//! `OCCACHE_SERVE_FAULT` holds a comma-separated list of fault specs,
//! each firing on every K-th matching event (a shared atomic event
//! counter per kind — no randomness, so a chaos run is reproducible
//! bit for bit):
//!
//! * `torn-write:K` — every K-th response is truncated mid-body and the
//!   connection closed (the client sees fewer bytes than the declared
//!   `Content-Length`).
//! * `stall-read:K[:secs]` — every K-th request stalls `secs` (default
//!   6) before being handled, simulating a wedged handler.
//! * `drop-conn:K` — every K-th request's connection is closed without
//!   any response at all.
//! * `panic-worker:K` — every K-th design-point evaluation panics
//!   inside the worker (compiled into the supervisor policy via
//!   [`FaultPlan::panic_every`]), exercising retry, fault attribution
//!   and the circuit breaker.
//! * `drop-peer:K` — every K-th outbound peer call (fill or forward)
//!   fails before dialing, exercising peer retry, the per-peer breaker
//!   and the compute-locally fallback.
//! * `slow-peer:K[:secs]` — every K-th outbound peer call stalls `secs`
//!   (default 3) before dialing, eating into the strict peer deadline.
//! * `flap-peer:K` — every K-th peer health probe is reported failed
//!   regardless of the real answer, flapping the per-peer breaker
//!   through down/half-open/up.
//!
//! Every injection is counted and exposed on `/metrics`
//! (`occache_fault_*_injected_total`), which is how the CI chaos gate
//! proves the faults actually fired.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use occache_runtime::executor::FaultPlan;

/// Default stall for `stall-read` when the spec gives no seconds.
const DEFAULT_STALL: Duration = Duration::from_secs(6);

/// Default stall for `slow-peer` when the spec gives no seconds —
/// longer than the default peer-call deadline (`PeerPolicy::timeout`, 2 s)
/// so the call times out.
const DEFAULT_PEER_STALL: Duration = Duration::from_secs(3);

/// The parsed fault plan plus its per-kind event counters.
#[derive(Debug, Default)]
pub struct ServeFault {
    torn_write: Option<u64>,
    stall_read: Option<(u64, Duration)>,
    drop_conn: Option<u64>,
    panic_worker: Option<u64>,
    drop_peer: Option<u64>,
    slow_peer: Option<(u64, Duration)>,
    flap_peer: Option<u64>,
    torn_events: AtomicU64,
    stall_events: AtomicU64,
    drop_events: AtomicU64,
    drop_peer_events: AtomicU64,
    slow_peer_events: AtomicU64,
    flap_peer_events: AtomicU64,
    torn_fired: AtomicU64,
    stall_fired: AtomicU64,
    drop_fired: AtomicU64,
    drop_peer_fired: AtomicU64,
    slow_peer_fired: AtomicU64,
    flap_peer_fired: AtomicU64,
}

impl ServeFault {
    /// Parses a comma-separated fault spec
    /// (`torn-write:3,stall-read:5:2,panic-worker:7`).
    ///
    /// # Errors
    ///
    /// A message naming the malformed spec fragment.
    pub fn parse(spec: &str) -> Result<ServeFault, String> {
        let mut plan = ServeFault::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let mut fields = part.split(':');
            let kind = fields.next().unwrap_or("");
            let period: u64 = fields
                .next()
                .ok_or_else(|| format!("fault spec `{part}` needs a period (kind:K)"))?
                .parse()
                .map_err(|_| format!("fault spec `{part}` has a non-numeric period"))?;
            if period == 0 {
                return Err(format!("fault spec `{part}` period must be at least 1"));
            }
            let extra = fields.next();
            if fields.next().is_some() {
                return Err(format!("fault spec `{part}` has too many fields"));
            }
            let stall_extra = |default: Duration| -> Result<Duration, String> {
                match extra {
                    None => Ok(default),
                    Some(raw) => {
                        let secs: f64 = raw
                            .parse()
                            .map_err(|_| format!("fault spec `{part}` has non-numeric seconds"))?;
                        if !secs.is_finite() || secs <= 0.0 {
                            return Err(format!("fault spec `{part}` seconds must be positive"));
                        }
                        Ok(Duration::from_secs_f64(secs))
                    }
                }
            };
            match kind {
                "torn-write" if extra.is_none() => plan.torn_write = Some(period),
                "drop-conn" if extra.is_none() => plan.drop_conn = Some(period),
                "panic-worker" if extra.is_none() => plan.panic_worker = Some(period),
                "drop-peer" if extra.is_none() => plan.drop_peer = Some(period),
                "flap-peer" if extra.is_none() => plan.flap_peer = Some(period),
                "stall-read" => plan.stall_read = Some((period, stall_extra(DEFAULT_STALL)?)),
                "slow-peer" => plan.slow_peer = Some((period, stall_extra(DEFAULT_PEER_STALL)?)),
                _ => {
                    return Err(format!(
                        "unknown fault `{part}` (torn-write:K, stall-read:K[:secs], \
                         drop-conn:K, panic-worker:K, drop-peer:K, slow-peer:K[:secs], \
                         flap-peer:K)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Reads `OCCACHE_SERVE_FAULT`; unset or empty means no injection.
    ///
    /// # Errors
    ///
    /// A message naming the variable when it is set but malformed.
    pub fn try_from_env() -> Result<Option<ServeFault>, String> {
        match std::env::var("OCCACHE_SERVE_FAULT") {
            Ok(raw) if raw.trim().is_empty() => Ok(None),
            Ok(raw) => ServeFault::parse(&raw)
                .map(Some)
                .map_err(|e| format!("OCCACHE_SERVE_FAULT: {e}")),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => {
                Err("OCCACHE_SERVE_FAULT is not valid UTF-8".to_string())
            }
        }
    }

    fn fire(period: Option<u64>, events: &AtomicU64, fired: &AtomicU64) -> bool {
        let Some(period) = period else { return false };
        let n = events.fetch_add(1, Ordering::SeqCst) + 1;
        if n.is_multiple_of(period) {
            fired.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Counts one response event; true when it must be torn.
    pub fn torn_write_now(&self) -> bool {
        Self::fire(self.torn_write, &self.torn_events, &self.torn_fired)
    }

    /// Counts one request event; `Some(stall)` when it must stall.
    pub fn stall_read_now(&self) -> Option<Duration> {
        let (period, stall) = self.stall_read?;
        Self::fire(Some(period), &self.stall_events, &self.stall_fired).then_some(stall)
    }

    /// Counts one request event; true when its connection must drop.
    pub fn drop_conn_now(&self) -> bool {
        Self::fire(self.drop_conn, &self.drop_events, &self.drop_fired)
    }

    /// Counts one outbound peer-call event; true when it must fail
    /// before dialing.
    pub fn drop_peer_now(&self) -> bool {
        Self::fire(
            self.drop_peer,
            &self.drop_peer_events,
            &self.drop_peer_fired,
        )
    }

    /// Counts one outbound peer-call event; `Some(stall)` when it must
    /// stall before dialing.
    pub fn slow_peer_now(&self) -> Option<Duration> {
        let (period, stall) = self.slow_peer?;
        Self::fire(Some(period), &self.slow_peer_events, &self.slow_peer_fired).then_some(stall)
    }

    /// Counts one health-probe event; true when the probe result must be
    /// reported as a failure regardless of the real answer.
    pub fn flap_peer_now(&self) -> bool {
        Self::fire(
            self.flap_peer,
            &self.flap_peer_events,
            &self.flap_peer_fired,
        )
    }

    /// The worker-panic plan to compile into the supervisor policy, if
    /// `panic-worker:K` was requested.
    pub fn worker_fault(&self) -> Option<FaultPlan> {
        self.panic_worker.map(FaultPlan::panic_every)
    }

    /// Injections fired so far, by kind, for `/metrics`. `panic-worker`
    /// fires inside the supervisor and is visible there as retried/
    /// failed points rather than here.
    pub fn injected(&self) -> [(&'static str, u64); 6] {
        [
            ("torn_write", self.torn_fired.load(Ordering::SeqCst)),
            ("stall_read", self.stall_fired.load(Ordering::SeqCst)),
            ("drop_conn", self.drop_fired.load(Ordering::SeqCst)),
            ("drop_peer", self.drop_peer_fired.load(Ordering::SeqCst)),
            ("slow_peer", self.slow_peer_fired.load(Ordering::SeqCst)),
            ("flap_peer", self.flap_peer_fired.load(Ordering::SeqCst)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec_and_fires_deterministically() {
        let f =
            ServeFault::parse("torn-write:3,stall-read:2:0.5,drop-conn:4,panic-worker:7").unwrap();
        // torn-write every 3rd event.
        let fired: Vec<bool> = (0..6).map(|_| f.torn_write_now()).collect();
        assert_eq!(fired, [false, false, true, false, false, true]);
        // stall-read every 2nd, with the spec's half second.
        assert_eq!(f.stall_read_now(), None);
        assert_eq!(f.stall_read_now(), Some(Duration::from_millis(500)));
        // drop-conn every 4th.
        assert!((0..3).all(|_| !f.drop_conn_now()));
        assert!(f.drop_conn_now());
        assert!(f.worker_fault().is_some());
        assert_eq!(
            f.injected(),
            [
                ("torn_write", 2),
                ("stall_read", 1),
                ("drop_conn", 1),
                ("drop_peer", 0),
                ("slow_peer", 0),
                ("flap_peer", 0),
            ]
        );
    }

    #[test]
    fn peer_faults_fire_on_their_own_event_streams() {
        let f = ServeFault::parse("drop-peer:2,slow-peer:2:0.25,flap-peer:3").unwrap();
        assert!(!f.drop_peer_now());
        assert!(f.drop_peer_now());
        assert_eq!(f.slow_peer_now(), None);
        assert_eq!(f.slow_peer_now(), Some(Duration::from_millis(250)));
        assert!((0..2).all(|_| !f.flap_peer_now()));
        assert!(f.flap_peer_now());
        assert!(ServeFault::parse("slow-peer:1")
            .unwrap()
            .slow_peer_now()
            .is_some());
        assert!(ServeFault::parse("drop-peer:1:2").is_err());
        assert!(ServeFault::parse("flap-peer:0").is_err());
    }

    #[test]
    fn absent_kinds_never_fire() {
        let f = ServeFault::parse("torn-write:1").unwrap();
        assert!(f.torn_write_now());
        assert_eq!(f.stall_read_now(), None);
        assert!(!f.drop_conn_now());
        assert!(f.worker_fault().is_none());
    }

    #[test]
    fn malformed_specs_are_refused() {
        for bad in [
            "torn-write",
            "torn-write:0",
            "torn-write:x",
            "torn-write:2:9",
            "stall-read:2:abc",
            "stall-read:2:-1",
            "stall-read:2:1:4",
            "rm-rf:1",
        ] {
            assert!(ServeFault::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(ServeFault::parse("").unwrap().worker_fault().is_none());
    }
}
