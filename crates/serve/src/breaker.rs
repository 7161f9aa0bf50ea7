//! A per-point-key circuit breaker: the serving twin of the batch
//! journal's quarantine-after-N tombstone policy.
//!
//! A design point whose evaluation keeps panicking (a simulator bug, or
//! injected chaos) must not be allowed to burn a worker on every
//! request forever. The breaker counts *consecutive* failures per point
//! key; at the threshold the key is quarantined and subsequent requests
//! for it get an immediate structured 503 (`code: "quarantined"`, the
//! key attributed) without touching the scheduler. A success resets the
//! key's count — only an unbroken run of failures trips the breaker,
//! matching `occache-experiments::checkpoint`'s tombstone policy of
//! quarantining after [`DEFAULT_THRESHOLD`] recorded failures.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Consecutive failures that trip the breaker, matching the journal's
/// quarantine-after-2 tombstone policy (a `ServiceConfig` field of 0
/// disables the breaker).
pub const DEFAULT_THRESHOLD: u32 = 2;

/// Bound on tracked keys; beyond it the failure counts reset rather
/// than grow without limit (quarantined keys are kept — losing *those*
/// would reopen a tripped breaker).
const MAX_TRACKED: usize = 4096;

/// The breaker state shared by every connection thread.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    failures: Mutex<HashMap<u64, u32>>,
    quarantined: Mutex<HashSet<u64>>,
    tripped: AtomicU64,
}

impl Breaker {
    /// A breaker tripping at `threshold` consecutive failures per key;
    /// 0 disables it entirely.
    pub fn new(threshold: u32) -> Breaker {
        Breaker {
            threshold,
            failures: Mutex::new(HashMap::new()),
            quarantined: Mutex::new(HashSet::new()),
            tripped: AtomicU64::new(0),
        }
    }

    /// Whether requests for this key are quarantined.
    pub fn is_quarantined(&self, key: u64) -> bool {
        self.threshold > 0
            && self
                .quarantined
                .lock()
                .expect("breaker lock")
                .contains(&key)
    }

    /// Records a failed evaluation; true when this failure tripped the
    /// breaker for the key.
    pub fn record_failure(&self, key: u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let mut failures = self.failures.lock().expect("breaker lock");
        if failures.len() >= MAX_TRACKED && !failures.contains_key(&key) {
            failures.clear();
        }
        let count = failures.entry(key).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            failures.remove(&key);
            drop(failures);
            let newly = self.quarantined.lock().expect("breaker lock").insert(key);
            if newly {
                self.tripped.fetch_add(1, Ordering::SeqCst);
            }
            return newly;
        }
        false
    }

    /// Records a successful evaluation, resetting the key's consecutive
    /// count.
    pub fn record_success(&self, key: u64) {
        if self.threshold > 0 {
            self.failures.lock().expect("breaker lock").remove(&key);
        }
    }

    /// Keys quarantined since start (monotonic, for `/metrics`).
    pub fn tripped(&self) -> u64 {
        self.tripped.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_on_consecutive_failures_only() {
        let b = Breaker::new(2);
        assert!(!b.record_failure(7));
        assert!(!b.is_quarantined(7));
        b.record_success(7); // resets the run
        assert!(!b.record_failure(7));
        assert!(b.record_failure(7), "second consecutive failure trips");
        assert!(b.is_quarantined(7));
        assert!(!b.record_failure(7), "already quarantined, not re-tripped");
        assert_eq!(b.tripped(), 1);
        assert!(!b.is_quarantined(8), "other keys unaffected");
    }

    #[test]
    fn zero_threshold_disables() {
        let b = Breaker::new(0);
        for _ in 0..10 {
            assert!(!b.record_failure(1));
        }
        assert!(!b.is_quarantined(1));
        assert_eq!(b.tripped(), 0);
    }

    #[test]
    fn tracked_keys_are_bounded_but_quarantine_survives() {
        let b = Breaker::new(2);
        b.record_failure(1);
        b.record_failure(1);
        assert!(b.is_quarantined(1));
        for key in 2..(MAX_TRACKED as u64 + 10) {
            b.record_failure(key);
        }
        assert!(b.is_quarantined(1), "quarantine survives the count reset");
    }
}
