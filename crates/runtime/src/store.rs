//! The point store: the one answer to "was this design point already
//! computed?" for the batch harness and the serving layer alike.
//!
//! A [`PointStore`] maps a [`crate::keys::point_key`] to the journalled
//! [`Entry`] of that point. [`PointStore::load`] reads a results
//! directory's journals once; after that, journal appends are its
//! persistence. Each entry records the journals holding it on disk, or
//! none when it lives only in memory, for two read rules: a journalled
//! sweep borrows only what another journal holds, so its journal's bytes
//! never depend on which unjournalled artifacts ran first; and a fresh
//! run reads only journals this store freshened. A capacity bounds the
//! store with FIFO eviction (serve's `cache_capacity`), and non-finite
//! entries are refused, the same gate the journal applies.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::instrument::Counter;
use crate::journal::{scan_journal, store_journals, Entry};

/// A stored point and the journals (file names, in path order) that hold
/// it on disk; none for a point held only in memory.
#[derive(Debug)]
struct Held {
    entry: Entry,
    journals: Vec<Arc<str>>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Held>,
    // Insertion order for FIFO eviction: oldest entries leave first.
    // (Hot keys are cheap to recompute relative to tracking recency
    // under a lock on every hit.)
    order: VecDeque<u64>,
    /// Journals this store discarded under `--fresh`.
    freshened: HashSet<Arc<str>>,
}

impl Inner {
    /// The first journal other than `own` that holds `held` and that a
    /// reader may use: under a fresh run only one this store freshened.
    fn source(&self, held: &Held, own: &str, fresh: bool) -> Option<Arc<str>> {
        held.journals
            .iter()
            .find(|j| &***j != own && (!fresh || self.freshened.contains(*j)))
            .cloned()
    }
}

/// A content-addressed map from point key to journalled metric entry,
/// with hit/miss counts and the results directory it was loaded from.
#[derive(Debug)]
pub struct PointStore {
    dir: Option<PathBuf>,
    capacity: usize,
    inner: Mutex<Inner>,
    hits: Counter,
    misses: Counter,
}

impl PointStore {
    /// An empty store with no results directory behind it, holding at
    /// most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PointStore {
            dir: None,
            capacity: capacity.max(1),
            inner: Mutex::default(),
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    /// A store for the results directory `dir`, loaded from every intact
    /// point of every journal under `dir/.checkpoint/`, in path order.
    /// What cannot be read loads nothing; the journal writes that follow
    /// report the trouble.
    pub fn load(dir: &Path, capacity: usize) -> Self {
        let store = PointStore {
            dir: Some(dir.to_path_buf()),
            ..PointStore::new(capacity)
        };
        for path in store_journals(dir).unwrap_or_default() {
            let name = path.file_name().map(|n| n.to_string_lossy());
            if let (Ok(scan), Some(name)) = (scan_journal(&path), name) {
                for (key, entry) in scan.points {
                    store.insert(key, entry, Some(&name));
                }
            }
        }
        store
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("point store lock")
    }

    /// The results directory the store was loaded from, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks a point up whatever its origin, counting the hit or miss.
    pub fn get(&self, key: u64) -> Option<Entry> {
        let found = self.lock().map.get(&key).map(|held| held.entry);
        match found {
            Some(_) => self.hits.bump(),
            None => self.misses.bump(),
        }
        found
    }

    /// Whether a point is resident, without counting a hit or miss (the
    /// peer-fill planner peeks before the lookup that counts).
    pub fn contains(&self, key: u64) -> bool {
        self.lock().map.contains_key(&key)
    }

    /// The entry for `key` if an unjournalled reader may use it: one held
    /// in memory, or on disk — under a fresh run (`fresh`) only in a
    /// journal this store freshened.
    pub fn recall(&self, key: u64, fresh: bool) -> Option<Entry> {
        let inner = self.lock();
        let held = inner.map.get(&key)?;
        (held.journals.is_empty() || inner.source(held, "", fresh).is_some()).then_some(held.entry)
    }

    /// The entry for `key` if the journalled sweep writing journal `own`
    /// may borrow it, with the first journal in path order, other than
    /// `own`, that holds it — under a fresh run (`fresh`) only one this
    /// store freshened. Memory-only entries are never borrowed.
    pub fn borrow(&self, key: u64, own: &str, fresh: bool) -> Option<(Entry, Arc<str>)> {
        let inner = self.lock();
        let held = inner.map.get(&key)?;
        Some((held.entry, inner.source(held, own, fresh)?))
    }

    /// Stores `entry` under `key`, held only in memory or, as after a
    /// successful append, on disk in `journal` (a file name under
    /// `.checkpoint/`). Returns whether it was stored: non-finite
    /// entries are not.
    pub fn insert(&self, key: u64, entry: Entry, journal: Option<&str>) -> bool {
        if entry.non_finite_field().is_some() {
            return false;
        }
        let mut inner = self.lock();
        let Inner { map, order, .. } = &mut *inner;
        let held = map.entry(key).or_insert_with(|| {
            order.push_back(key);
            Held {
                entry,
                journals: Vec::new(),
            }
        });
        held.entry = entry;
        if let Some(j) = journal {
            if let Err(at) = held.journals.binary_search_by(|h| (**h).cmp(j)) {
                held.journals.insert(at, Arc::from(j));
            }
        }
        while map.len() > self.capacity {
            match order.pop_front() {
                Some(old) => map.remove(&old),
                None => break,
            };
        }
        true
    }

    /// Marks journal `journal` as discarded by a fresh run. Only the
    /// first call returns true: then the points only it held leave the
    /// store, and the caller deletes it.
    pub fn freshen(&self, journal: &str) -> bool {
        let mut inner = self.lock();
        if !inner.freshened.insert(Arc::from(journal)) {
            return false;
        }
        let Inner { map, order, .. } = &mut *inner;
        map.retain(|_, held| {
            let before = held.journals.len();
            held.journals.retain(|j| &**j != journal);
            before == 0 || !held.journals.is_empty()
        });
        order.retain(|key| map.contains_key(key));
        true
    }

    /// Entries resident now.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits since start.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses since start.
    pub fn misses(&self) -> u64 {
        self.misses.get()
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
        let store = PointStore::new(8);
        assert!(store.get(1).is_none());
        assert!(store.insert(1, entry(0.5), None));
        assert_eq!(store.get(1), Some(entry(0.5)));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn fifo_eviction_bounds_the_store() {
        let store = PointStore::new(2);
        store.insert(1, entry(0.1), None);
        store.insert(2, entry(0.2), None);
        store.insert(3, entry(0.3), None);
        assert_eq!(store.len(), 2);
        assert!(store.get(1).is_none(), "oldest entry should be evicted");
        assert!(store.get(3).is_some());
    }

    #[test]
    fn non_finite_entries_are_refused() {
        let store = PointStore::new(8);
        assert!(!store.insert(1, entry(f64::NAN), None));
        assert!(!store.insert(2, entry(f64::INFINITY), Some("a.jsonl")));
        assert!(store.is_empty());
    }

    #[test]
    fn load_skips_missing_directory() {
        let dir = std::env::temp_dir().join("occache_store_load_none");
        let store = PointStore::load(&dir, 8);
        assert!(store.is_empty());
        assert_eq!(store.dir(), Some(dir.as_path()));
    }

    #[test]
    fn a_journalled_sweep_borrows_only_from_other_journals_on_disk() {
        let store = PointStore::new(usize::MAX);
        store.insert(1, entry(0.1), None);
        assert_eq!(store.recall(1, false), Some(entry(0.1)));
        assert_eq!(store.borrow(1, "t.jsonl", false), None, "memory only");

        store.insert(2, entry(0.2), Some("table7.jsonl"));
        store.insert(2, entry(0.2), Some("fig2.jsonl"));
        assert_eq!(
            store.borrow(2, "table7.jsonl", false).map(|b| b.1),
            Some("fig2.jsonl".into())
        );
        assert_eq!(
            store.borrow(2, "fig8.jsonl", false).map(|b| b.1),
            Some("fig2.jsonl".into()),
            "the first source in path order"
        );
        store.insert(3, entry(0.3), Some("fig2.jsonl"));
        assert_eq!(store.borrow(3, "fig2.jsonl", false), None, "never its own");
    }

    #[test]
    fn a_fresh_run_reads_only_journals_it_freshened() {
        let store = PointStore::new(usize::MAX);
        store.insert(1, entry(0.1), Some("old.jsonl"));
        store.insert(2, entry(0.2), Some("a.jsonl"));
        store.insert(3, entry(0.3), None);
        assert!(store.freshen("a.jsonl"));
        assert!(!store.contains(2), "a discarded journal's points leave");
        assert_eq!(store.recall(1, true), None, "stale under --fresh");
        assert_eq!(store.recall(1, false), Some(entry(0.1)));
        assert_eq!(
            store.recall(3, true),
            Some(entry(0.3)),
            "memory is this run's"
        );

        store.insert(1, entry(0.1), Some("a.jsonl"));
        assert_eq!(
            store.borrow(1, "b.jsonl", true).map(|b| b.1),
            Some("a.jsonl".into())
        );
        assert_eq!(store.recall(1, true), Some(entry(0.1)));
        assert!(!store.freshen("a.jsonl"), "a journal is discarded once");
        assert!(store.contains(1), "and keeps this run's appends");
    }
}
