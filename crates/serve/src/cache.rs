//! The content-addressed in-memory result cache.
//!
//! Keys are the checkpoint journal's FNV point keys — config `Debug`
//! rendering + trace-set fingerprint + warm-up — so a cache entry means
//! exactly what a journal line means, and an existing
//! `results/.checkpoint/` directory can warm-start the cache: every
//! design point a prior batch sweep sealed to disk is served without
//! re-simulation.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use occache_runtime::journal::{scan_journal, store_journals, Entry};

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    // Insertion order for FIFO eviction: oldest entries leave first.
    // (Hot keys are cheap to recompute relative to tracking recency
    // under a lock on every hit.)
    order: VecDeque<u64>,
}

/// A bounded, content-addressed map from point key to journalled metric
/// entry, with hit/miss accounting.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks a point up, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<Entry> {
        let found = self
            .inner
            .lock()
            .expect("result cache lock")
            .map
            .get(&key)
            .copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Whether a point is resident, without touching the hit/miss
    /// counters — the peer-fill planner peeks before deciding which
    /// misses to ask an owner for, and must not distort the cache stats
    /// the later authoritative lookup records.
    pub fn contains(&self, key: u64) -> bool {
        self.inner
            .lock()
            .expect("result cache lock")
            .map
            .contains_key(&key)
    }

    /// Inserts a computed point. Non-finite entries are refused — the
    /// same gate the journal applies — so a poisoned metric can never be
    /// served twice. Returns whether the entry was stored.
    pub fn insert(&self, key: u64, entry: Entry) -> bool {
        if entry.non_finite_field().is_some() {
            return false;
        }
        let mut inner = self.inner.lock().expect("result cache lock");
        if inner.map.insert(key, entry).is_none() {
            inner.order.push_back(key);
            while inner.map.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                } else {
                    break;
                }
            }
        }
        true
    }

    /// Entries resident now.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("result cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits since start.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses since start.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Warm-starts from every checkpoint journal under
    /// `results_dir/.checkpoint/`, returning how many points were
    /// loaded. Tombstones and damaged lines are skipped exactly as a
    /// batch resume skips them; a missing directory loads nothing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the directory not
    /// existing.
    pub fn warm_start(&self, results_dir: &Path) -> io::Result<usize> {
        let mut loaded = 0usize;
        for path in store_journals(results_dir)? {
            for (key, entry) in scan_journal(&path)?.points {
                if self.insert(key, entry) {
                    loaded += 1;
                }
            }
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(miss: f64) -> Entry {
        Entry {
            miss,
            traffic: 1.0,
            nibble: 1.0,
            redundant: 0.0,
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ResultCache::new(8);
        assert!(cache.get(1).is_none());
        assert!(cache.insert(1, entry(0.5)));
        assert_eq!(cache.get(1), Some(entry(0.5)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let cache = ResultCache::new(2);
        cache.insert(1, entry(0.1));
        cache.insert(2, entry(0.2));
        cache.insert(3, entry(0.3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none(), "oldest entry should be evicted");
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn non_finite_entries_are_refused() {
        let cache = ResultCache::new(8);
        assert!(!cache.insert(1, entry(f64::NAN)));
        assert!(cache.is_empty());
    }

    #[test]
    fn warm_start_skips_missing_directory() {
        let dir = std::env::temp_dir().join("occache_serve_warm_none");
        let cache = ResultCache::new(8);
        assert_eq!(cache.warm_start(&dir).unwrap(), 0);
    }
}
