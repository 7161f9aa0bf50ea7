//! Reading a reference stream in bulk.
//!
//! Consumers that walk a whole trace — the one-pass engines, the trace
//! fingerprint, the locality statistics — read it a chunk at a time
//! through [`ChunkRead`]: the reader fills a caller's [`RefChunk`]
//! (addresses and access kinds in two plain arrays) with the next run of
//! references, so a packed trace decodes a chunk in one tight loop and a
//! generator refills without a call per reference through a trait
//! object. Every `Iterator<Item = MemRef>` is a reader, filled item by
//! item; [`ChunkIter`] goes the other way and iterates a reader's
//! references one at a time from its decoded chunk.

use crate::record::{AccessKind, Address, MemRef};

/// A run of decoded references as parallel address and kind arrays
/// (structure-of-arrays), reused from chunk to chunk.
///
/// ```
/// use occache_trace::{MemRef, RefChunk};
///
/// let mut chunk = RefChunk::new();
/// chunk.push(MemRef::ifetch(0x100));
/// chunk.push(MemRef::write(0x8));
/// assert_eq!(chunk.addrs(), &[0x100, 0x8]);
/// assert_eq!(chunk.get(1), Some(MemRef::write(0x8)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefChunk {
    addrs: Vec<u64>,
    kinds: Vec<AccessKind>,
}

impl RefChunk {
    /// An empty chunk.
    pub fn new() -> Self {
        RefChunk::default()
    }

    /// Number of references held.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the chunk holds no references.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Drops every reference, keeping the allocation.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.kinds.clear();
    }

    /// Appends one reference.
    #[inline]
    pub fn push(&mut self, r: MemRef) {
        self.addrs.push(r.address().value());
        self.kinds.push(r.kind());
    }

    /// The addresses, in stream order.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The access kinds, in stream order.
    pub fn kinds(&self) -> &[AccessKind] {
        &self.kinds
    }

    /// The `i`-th reference, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<MemRef> {
        let (&addr, &kind) = (self.addrs.get(i)?, self.kinds.get(i)?);
        Some(MemRef::new(Address::new(addr), kind))
    }

    /// The references as [`MemRef`]s, in stream order.
    pub fn iter(&self) -> impl Iterator<Item = MemRef> + '_ {
        self.addrs
            .iter()
            .zip(&self.kinds)
            .map(|(&addr, &kind)| MemRef::new(Address::new(addr), kind))
    }

    /// Resizes the chunk to `n` references and lends out both arrays for
    /// a decoder to overwrite in full.
    pub(crate) fn slots(&mut self, n: usize) -> (&mut [u64], &mut [AccessKind]) {
        self.addrs.resize(n, 0);
        self.kinds.resize(n, AccessKind::InstrFetch);
        (&mut self.addrs, &mut self.kinds)
    }
}

/// A reference stream read in bulk: each call replaces a caller's chunk
/// with the stream's next references.
///
/// Every `Iterator<Item = MemRef>` reads this way, one item at a time;
/// a [`PackedTrace`](crate::PackedTrace) decodes a whole chunk in one
/// loop ([`PackedTrace::reader`](crate::PackedTrace::reader)).
///
/// ```
/// use occache_trace::{ChunkRead, MemRef, RefChunk};
///
/// let mut stream = (0..10u64).map(MemRef::ifetch);
/// let mut chunk = RefChunk::new();
/// assert_eq!(stream.read_chunk(&mut chunk, 4), 4);
/// assert_eq!(chunk.addrs(), &[0, 1, 2, 3]);
/// assert_eq!(stream.read_chunk(&mut chunk, 100), 6);
/// assert_eq!(stream.read_chunk(&mut chunk, 100), 0);
/// assert!(chunk.is_empty());
/// ```
pub trait ChunkRead {
    /// Replaces `chunk`'s contents with the next references of the
    /// stream, at most `max` of them, and returns how many; fewer than
    /// `max` only at the end of the stream, and 0 once it is spent.
    fn read_chunk(&mut self, chunk: &mut RefChunk, max: usize) -> usize;

    /// The number of references left, when the reader knows it exactly.
    fn remaining(&self) -> Option<usize> {
        None
    }
}

impl<I: Iterator<Item = MemRef>> ChunkRead for I {
    fn read_chunk(&mut self, chunk: &mut RefChunk, max: usize) -> usize {
        chunk.clear();
        for r in self.take(max) {
            chunk.push(r);
        }
        chunk.len()
    }

    fn remaining(&self) -> Option<usize> {
        match self.size_hint() {
            (low, Some(high)) if low == high => Some(low),
            _ => None,
        }
    }
}

/// References per refill of a [`ChunkIter`]: small enough that the
/// decoded chunk stays in L1 while a per-item consumer walks it.
const ITER_CHUNK: usize = 512;

/// Iterates a [`ChunkRead`]er's references one at a time, refilling a
/// private chunk in bulk whenever it runs dry.
#[derive(Debug, Clone)]
pub struct ChunkIter<R> {
    reader: R,
    chunk: RefChunk,
    /// The next unread index into `chunk`.
    at: usize,
}

impl<R: ChunkRead> ChunkIter<R> {
    /// Iterates `reader`'s references.
    pub fn new(reader: R) -> Self {
        ChunkIter {
            reader,
            chunk: RefChunk::new(),
            at: 0,
        }
    }
}

impl<R: ChunkRead> Iterator for ChunkIter<R> {
    type Item = MemRef;

    #[inline]
    fn next(&mut self) -> Option<MemRef> {
        if self.at == self.chunk.len() {
            if self.reader.read_chunk(&mut self.chunk, ITER_CHUNK) == 0 {
                return None;
            }
            self.at = 0;
        }
        let r = self.chunk.get(self.at);
        self.at += 1;
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = self.chunk.len() - self.at;
        match self.reader.remaining() {
            Some(left) => (buffered + left, Some(buffered + left)),
            None => (buffered, None),
        }
    }
}
