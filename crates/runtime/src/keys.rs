//! Content addressing shared by the checkpoint journals, the serving
//! layer's result cache, and the artifact manifest.
//!
//! Every surface that identifies a design point by value uses the same
//! derivation: FNV-1a over the config's full `Debug` rendering, the
//! trace-set fingerprint, and the warm-up length. A cache entry in the
//! server therefore means exactly what a journal line means in a batch
//! run, which is what lets a `results/.checkpoint/` directory warm-start
//! the service.

use std::sync::{Mutex, PoisonError};

use occache_core::CacheConfig;

use crate::eval::{Trace, WeakBacking};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher (no std `Hasher` indirection so the stream
/// fed in is explicit and stable across Rust versions).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte string: the hash behind journal record
/// checksums and the artifact manifest's content hashes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// A stable fingerprint of a trace set: names, lengths and every
/// reference. Two sweeps resume from each other's journals only when they
/// saw byte-identical traces.
///
/// The value is computed once per trace set per process: later calls
/// with the same traces (clones sharing each backing store, under the
/// same names and lengths) return it from a memo without re-reading a
/// reference. The memo holds each backing only weakly, so it keeps no
/// trace alive, and a weak handle reserves its backing's address: a set
/// rebuilt after the old one was dropped can never match a stale entry.
/// Entries whose traces are gone are pruned on insert.
pub fn trace_fingerprint(traces: &[Trace]) -> u64 {
    // Every entry is complete once pushed, so a guard poisoned by a
    // panicking caller still holds a valid memo.
    static MEMO: Mutex<Vec<MemoEntry>> = Mutex::new(Vec::new());
    let hit = MEMO
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .find(|entry| entry.matches(traces))
        .map(|entry| entry.fingerprint);
    if let Some(fingerprint) = hit {
        return fingerprint;
    }
    // Hash outside the lock: callers on other sets need not wait, and
    // two racing callers on one set compute the same value.
    let fingerprint = hash_traces(traces);
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if memo.iter().any(|entry| entry.matches(traces)) {
        return fingerprint;
    }
    memo.retain(MemoEntry::is_live);
    memo.push(MemoEntry {
        members: traces
            .iter()
            .map(|t| (t.downgrade(), t.name.clone(), t.len()))
            .collect(),
        fingerprint,
    });
    fingerprint
}

/// One memoized trace-set fingerprint: each member's backing (weakly),
/// name and length, in set order.
struct MemoEntry {
    members: Vec<(WeakBacking, String, usize)>,
    fingerprint: u64,
}

impl MemoEntry {
    fn matches(&self, traces: &[Trace]) -> bool {
        self.members.len() == traces.len()
            && self
                .members
                .iter()
                .zip(traces)
                .all(|((backing, name, len), t)| {
                    t.is_backed_by(backing) && *name == t.name && *len == t.len()
                })
    }

    fn is_live(&self) -> bool {
        self.members.iter().all(|(backing, _, _)| backing.is_live())
    }
}

/// The FNV-1a stream behind [`trace_fingerprint`]: per trace its name, a
/// 0xff separator, its length (u64 LE), then each reference's din label
/// byte and address (u64 LE).
fn hash_traces(traces: &[Trace]) -> u64 {
    let mut h = Fnv::new();
    for trace in traces {
        h.write(trace.name.as_bytes());
        h.write(&[0xff]);
        h.write(&(trace.len() as u64).to_le_bytes());
        for r in trace.iter() {
            h.write(&[occache_trace::din::din_label(r.kind())]);
            h.write(&r.address().value().to_le_bytes());
        }
    }
    h.finish()
}

/// A stable fingerprint of a config grid (full `Debug` rendering of each
/// config, in order) — recorded in the manifest and run report so a
/// verifier can tell whether an artifact was produced from the grid it
/// expects.
pub fn config_fingerprint(configs: &[CacheConfig]) -> u64 {
    let mut h = Fnv::new();
    for config in configs {
        h.write(format!("{config:?}").as_bytes());
        h.write(&[0xff]);
    }
    h.finish()
}

/// The journal key of one design point: config (its full `Debug`
/// rendering, which covers every field) + trace fingerprint + warm-up.
///
/// Random-replacement points additionally fold in the replacement seed
/// ([`occache_core::DEFAULT_RANDOM_SEED`] everywhere today): their
/// metrics are a function of the seed, so a journal resumed — or a
/// cluster peer consulted — after a seed change must miss rather than
/// serve another seed's numbers. Deterministic policies do *not* fold
/// the seed, keeping every existing LRU/FIFO journal and golden hash
/// valid.
pub fn point_key(config: &CacheConfig, fingerprint: u64, warmup: usize) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{config:?}").as_bytes());
    h.write(&fingerprint.to_le_bytes());
    h.write(&(warmup as u64).to_le_bytes());
    if config.replacement() == occache_core::ReplacementPolicy::Random {
        h.write(&occache_core::DEFAULT_RANDOM_SEED.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn point_key_separates_warmup_and_fingerprint() {
        let config = occache_core::CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(4)
            .word_size(2)
            .build()
            .expect("valid geometry");
        let base = point_key(&config, 1, 0);
        assert_ne!(base, point_key(&config, 2, 0));
        assert_ne!(base, point_key(&config, 1, 100));
        assert_eq!(base, point_key(&config, 1, 0));
    }

    #[test]
    fn random_points_fold_the_seed_and_stay_stable() {
        use occache_core::ReplacementPolicy;
        let build = |policy| {
            occache_core::CacheConfig::builder()
                .net_size(64)
                .block_size(8)
                .sub_block_size(4)
                .word_size(2)
                .replacement(policy)
                .build()
                .expect("valid geometry")
        };
        // Stable across calls (journal resume and cluster routing key
        // on this), and distinct per policy — the Debug rendering
        // already separates policies; the seed fold must not collapse
        // that.
        let random = build(ReplacementPolicy::Random);
        assert_eq!(point_key(&random, 1, 0), point_key(&random, 1, 0));
        let keys = [
            point_key(&build(ReplacementPolicy::Lru), 1, 0),
            point_key(&build(ReplacementPolicy::Fifo), 1, 0),
            point_key(&random, 1, 0),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }
}
