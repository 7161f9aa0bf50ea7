//! A multiplicative hasher for the integer keys of the locality
//! statistics (word and block numbers).
//!
//! The std default, SipHash, resists keys crafted to collide. These keys
//! are addresses from a trace, and the statistics do one table
//! operation per reference, so one multiply per key is the better trade:
//! a trace file built to collide (`occache-stats` reads any file) can
//! slow its own statistics down, but never change them. The product's
//! high bits mix every key bit, and `finish` rotates them down to the
//! low bits the table indexes by.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A 64-bit odd constant from the golden ratio (Fibonacci hashing).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher state: one word, folded in a multiply per key word.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by word or block number.
pub(crate) type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

/// A set of word or block numbers.
pub(crate) type WordSet = HashSet<u64, BuildHasherDefault<WordHasher>>;
