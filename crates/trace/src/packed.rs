//! A compact, sequential trace buffer.
//!
//! A [`MemRef`] is 16 bytes (a padded `u64` address plus a discriminant);
//! a million-reference trace held as `Vec<MemRef>` costs 16 MB per copy
//! and streams poorly when several sweep workers walk it at once.
//! [`PackedTrace`] stores the same information in about 1.7 bytes per
//! reference on the paper's workloads (1.68 over the 21 traces of the
//! four architectures' sets):
//!
//! * the access kinds at 2 bits each, four to a byte, where the spare
//!   code 3 marks an instruction fetch one *step* past the previous
//!   fetch — about half of all references, stored with no address bytes.
//!   The step is the last instruction-fetch difference of 1–16 bytes, so
//!   after a branch the next sequential fetch is again free;
//! * every other address as the signed difference from the previous
//!   address of its own stream (instruction or data), zigzag-mapped to
//!   an unsigned value and stored in 3 bytes, or — for the rare value
//!   that does not fit, or is the escape `0xff_ffff` itself — as the
//!   escape followed by the raw 8-byte value. A fixed width keeps both
//!   directions free of data-dependent lengths: encoding runs in
//!   registers with no branch on the kind, and decoding a chunk
//!   advances its byte offset by 0 or 3 from the kind code alone (an
//!   escape is a rare, well-predicted branch), not by a length it must
//!   first read.
//!
//! Differences are exact for every `u64`. A stream that compresses badly
//! (say, uniformly random 64-bit addresses) switches, the moment its
//! dense form passes 4 bytes per reference plus 7, to a fixed form: the
//! low 32 address bits in one array and, from the first address of 2^32
//! or more, the high words in another. So a trace never costs more than
//! 4.25 bytes per reference plus 8 while its addresses fit in 32 bits,
//! nor more than 8.25 per reference once one does not.
//!
//! The layout is sequential, so a trace is read front to back through
//! [`PackedTrace::reader`], which decodes a whole chunk of references
//! in one loop ([`ChunkRead`]), or item by item through
//! [`PackedTrace::iter`].
//!
//! The experiment harness wraps a `PackedTrace` in an [`Arc`] and shares
//! it by reference across the sweep worker pool: cloning a trace set is
//! then a reference-count bump, not a copy of the reference stream.
//!
//! [`Arc`]: std::sync::Arc

use std::hint::select_unpredictable;
use std::ops::Deref;

use crate::chunk::{ChunkIter, ChunkRead, RefChunk};
use crate::record::{AccessKind, MemRef};

const KIND_IFETCH: u8 = 0;
const KIND_READ: u8 = 1;
const KIND_WRITE: u8 = 2;
/// An instruction fetch one step past the previous one (dense form only).
const KIND_NEXT: u8 = 3;

/// Access kinds per byte of `kinds`, at 2 bits each.
const KINDS_PER_BYTE: usize = 4;

/// The largest instruction-fetch difference that becomes the step.
const MAX_STEP: u64 = 16;

/// Bytes the dense form may run past 4 per reference: a trace's first
/// differences are taken from address 0, so they are long. Seven keeps
/// the fixed form's bound of 4.25 bytes per reference plus 8.
const DENSE_SLACK: usize = 7;

/// Bytes of a stored difference: its zigzag value, little-endian.
const DELTA_BYTES: usize = 3;

/// The one 3-byte value that marks an escape: the zigzag value follows
/// as a raw 8-byte word.
const ESCAPE: u64 = (1 << (8 * DELTA_BYTES)) - 1;

/// Bytes of an escaped difference.
const ESCAPED_BYTES: usize = DELTA_BYTES + 8;

/// The access kind of each code.
const KIND_OF: [AccessKind; 4] = [
    AccessKind::InstrFetch,
    AccessKind::DataRead,
    AccessKind::DataWrite,
    AccessKind::InstrFetch,
];

const fn kind_to_code(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::InstrFetch => KIND_IFETCH,
        AccessKind::DataRead => KIND_READ,
        AccessKind::DataWrite => KIND_WRITE,
    }
}

/// The kind code of reference `i`.
#[inline(always)]
fn code_at(kinds: &[u8], i: usize) -> u8 {
    (kinds[i / KINDS_PER_BYTE] >> (2 * (i % KINDS_PER_BYTE))) & 3
}

const fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64) >> 63) as u64
}

const fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The 8 bytes at `pos` as a little-endian word, zero-filled past the end.
#[inline(always)]
fn load_word(bytes: &[u8], pos: usize) -> u64 {
    match bytes.get(pos..pos + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().unwrap_or_default()),
        None => load_tail(bytes, pos),
    }
}

#[cold]
fn load_tail(bytes: &[u8], pos: usize) -> u64 {
    let tail = bytes.get(pos..).unwrap_or_default();
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(word)
}

/// The dense form's running state: the last address of each stream and
/// the current sequential step. The encoder and every reader advance
/// their own copy identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Deltas {
    ifetch: u64,
    data: u64,
    step: u64,
}

impl Deltas {
    /// Advances past `r` and returns its kind code and the zigzagged
    /// difference to store — unless the code is `KIND_NEXT`, a fetch one
    /// step on, which stores nothing.
    ///
    /// Branch-free on the kind and on whether the fetch is sequential:
    /// both flip from reference to reference with little pattern.
    #[inline(always)]
    fn encode(&mut self, r: MemRef) -> (u8, u64) {
        let addr = r.address().value();
        let code = kind_to_code(r.kind());
        let fetch = code == KIND_IFETCH;
        let delta = addr.wrapping_sub(select_unpredictable(fetch, self.ifetch, self.data));
        self.ifetch = select_unpredictable(fetch, addr, self.ifetch);
        self.data = select_unpredictable(fetch, self.data, addr);
        let next = fetch & (delta == self.step);
        let step = fetch & (delta.wrapping_sub(1) < MAX_STEP);
        self.step = select_unpredictable(step, delta, self.step);
        (select_unpredictable(next, KIND_NEXT, code), zigzag(delta))
    }

    /// Decodes the address of the reference of kind code `code` whose
    /// difference (if any) starts at byte `*pos`, moving past it.
    /// Branch-free in the same way as [`Deltas::encode`].
    #[inline(always)]
    fn decode(&mut self, code: u8, bytes: &[u8], pos: &mut usize) -> u64 {
        let next = code == KIND_NEXT;
        let fetch = next | (code == KIND_IFETCH);
        let stored = load_word(bytes, *pos) & ESCAPE;
        let (z, size) = if stored == ESCAPE {
            (load_word(bytes, *pos + DELTA_BYTES), ESCAPED_BYTES)
        } else {
            (stored, DELTA_BYTES)
        };
        let delta = select_unpredictable(next, self.step, unzigzag(z));
        let addr = delta.wrapping_add(select_unpredictable(fetch, self.ifetch, self.data));
        self.ifetch = select_unpredictable(fetch, addr, self.ifetch);
        self.data = select_unpredictable(fetch, self.data, addr);
        let step = (code == KIND_IFETCH) & (delta.wrapping_sub(1) < MAX_STEP);
        self.step = select_unpredictable(step, delta, self.step);
        *pos += select_unpredictable(next, 0, size);
        addr
    }
}

/// How a [`PackedTrace`] stores its addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Addresses {
    /// The stored differences, in reference order.
    Dense {
        bytes: Vec<u8>,
        /// The state after the last reference, where appending resumes.
        last: Deltas,
    },
    /// The low 32 bits of every address, and the high 32 bits of every
    /// address once one needs them (then as long as `lo`).
    Fixed { lo: Vec<u32>, hi: Vec<u32> },
}

impl Default for Addresses {
    fn default() -> Self {
        Addresses::Dense {
            bytes: Vec::new(),
            last: Deltas::default(),
        }
    }
}

/// A reference stream stored as 2-bit access kinds plus per-stream
/// address differences: about 1.7 bytes per reference on the paper's
/// workloads, and never more than the fixed form's 4.25 (8.25 past
/// 2^32).
///
/// ```
/// use occache_trace::{MemRef, PackedTrace};
///
/// let packed: PackedTrace = vec![MemRef::ifetch(0x100), MemRef::write(0x8)]
///     .into_iter()
///     .collect();
/// assert_eq!(packed.len(), 2);
/// let back: Vec<MemRef> = packed.iter().collect();
/// assert_eq!(back[0], MemRef::ifetch(0x100));
/// assert_eq!(back[1], MemRef::write(0x8));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedTrace {
    len: usize,
    /// The access kinds, 2 bits each, reference `i` at bits
    /// `2 * (i % 4)` of byte `i / 4`; unused bits are zero. Code 3
    /// appears only in the dense form.
    kinds: Vec<u8>,
    addrs: Addresses,
}

impl PackedTrace {
    /// Creates an empty trace buffer.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Creates an empty buffer with room for `capacity` references of
    /// a typical workload.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut packed = PackedTrace::new();
        packed.reserve(capacity);
        packed
    }

    fn reserve(&mut self, additional: usize) {
        self.kinds.reserve(additional.div_ceil(KINDS_PER_BYTE));
        match &mut self.addrs {
            // Two bytes per reference covers the paper's workloads (a
            // reservation costs memory only once written);
            // `FromIterator` returns what a collected trace leaves spare.
            Addresses::Dense { bytes, .. } => bytes.reserve(2 * additional),
            Addresses::Fixed { lo, hi } => {
                lo.reserve(additional);
                if !hi.is_empty() {
                    hi.reserve(additional);
                }
            }
        }
    }

    /// Appends one reference. Each call sets up a staging block of its
    /// own, so collect or extend a stream to pack it in bulk.
    pub fn push(&mut self, r: MemRef) {
        self.extend([r]);
    }

    /// Rewrites the dense form as the fixed one: every address decoded
    /// into the low (and, if needed, high) words, and kind code 3 back to
    /// a plain instruction fetch.
    #[cold]
    fn switch_to_fixed(&mut self) {
        let mut lo = Vec::with_capacity(self.len);
        let mut hi = Vec::new();
        let (mut cursor, mut chunk) = (Cursor::default(), RefChunk::new());
        while cursor.read(self, &mut chunk, 4096) > 0 {
            for &addr in chunk.addrs() {
                push_fixed(&mut lo, &mut hi, addr);
            }
        }
        for b in &mut self.kinds {
            let next = *b & (*b >> 1) & 0x55;
            *b &= !(next | next << 1);
        }
        self.addrs = Addresses::Fixed { lo, hi };
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many references have a kind `keep` accepts, counted from the
    /// kind codes alone, with no address decoded.
    pub fn count_kinds(&self, keep: impl Fn(AccessKind) -> bool) -> usize {
        let per_code = KIND_OF.map(|kind| usize::from(keep(kind)));
        let per_byte: [usize; 256] = std::array::from_fn(|byte| {
            (0..KINDS_PER_BYTE)
                .map(|j| per_code[(byte >> (2 * j)) & 3])
                .sum()
        });
        // Whole bytes by table; the last byte's unused codes are zero,
        // so a partial one is read code by code.
        let full = self.len / KINDS_PER_BYTE;
        let whole: usize = self.kinds[..full]
            .iter()
            .map(|&byte| per_byte[usize::from(byte)])
            .sum();
        let tail: usize = (full * KINDS_PER_BYTE..self.len)
            .map(|i| per_code[usize::from(code_at(&self.kinds, i))])
            .sum();
        whole + tail
    }

    /// A reader that decodes the trace front to back, a chunk at a time.
    pub fn reader(&self) -> PackedReader<&PackedTrace> {
        PackedReader::new(self)
    }

    /// Iterates the references as [`MemRef`]s (by value, decoded a chunk
    /// at a time; the backing storage never holds `MemRef`s).
    pub fn iter(&self) -> ChunkIter<PackedReader<&PackedTrace>> {
        ChunkIter::new(self.reader())
    }

    /// Bytes of heap storage used, ignoring `Vec` over-allocation.
    pub fn payload_bytes(&self) -> usize {
        let addrs = match &self.addrs {
            Addresses::Dense { bytes, .. } => bytes.len(),
            Addresses::Fixed { lo, hi } => (lo.len() + hi.len()) * std::mem::size_of::<u32>(),
        };
        addrs + self.kinds.len()
    }
}

/// Appends `addr` to the fixed form's low and high words, allocating
/// the high words on the first address of 2^32 or more.
#[inline(always)]
fn push_fixed(lo: &mut Vec<u32>, hi: &mut Vec<u32>, addr: u64) {
    let high = (addr >> 32) as u32;
    if high != 0 || !hi.is_empty() {
        if hi.is_empty() {
            start_high_words(lo, hi);
        }
        hi.push(high);
    }
    lo.push(addr as u32);
}

/// Allocates the high address words, with a zero for each reference
/// before the first address of 2^32 or more.
#[cold]
fn start_high_words(lo: &Vec<u32>, hi: &mut Vec<u32>) {
    hi.reserve_exact(lo.capacity().max(lo.len() + 1));
    hi.resize(lo.len(), 0);
}

impl FromIterator<MemRef> for PackedTrace {
    /// Collects a stream, reserving once for its `size_hint` lower
    /// bound (exact for a generator prefix or a `Vec`) and returning
    /// what the typical-workload reservation left spare.
    fn from_iter<I: IntoIterator<Item = MemRef>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut packed = PackedTrace::with_capacity(iter.size_hint().0);
        packed.extend(iter);
        if let Addresses::Dense { bytes, .. } = &mut packed.addrs {
            bytes.shrink_to_fit();
        }
        packed
    }
}

impl Extend<MemRef> for PackedTrace {
    /// Packs the stream while the trace is dense; if the dense form
    /// outgrows its budget, switches to the fixed form and packs the
    /// rest there.
    fn extend<I: IntoIterator<Item = MemRef>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        if let Addresses::Dense { .. } = self.addrs {
            match self.pack_dense(iter) {
                Some(rest) => iter = rest,
                None => return,
            }
            self.switch_to_fixed();
        }
        self.pack_fixed(iter);
    }
}

/// Bytes of [`PackedTrace::pack_dense`]'s stage; the staged differences
/// are appended to the trace whenever less than a kind byte's worth of
/// escapes is left. A power of two: offsets stay below it, so masking
/// one with `STAGE_BYTES - 1` changes nothing but proves its 16 bytes in
/// bounds of a [`Stage`], 16 bytes longer.
const STAGE_BYTES: usize = 4096;

/// The dense encoder's state while packing, in locals.
struct Encoder {
    deltas: Deltas,
    /// Bytes staged and not yet appended to the trace.
    staged: usize,
    /// Bytes appended to the trace.
    written: usize,
    /// References in the trace, the staged ones included.
    len: usize,
}

impl Encoder {
    /// Stages `r`'s stored difference and returns its kind code and
    /// whether it took the trace over its budget.
    #[inline(always)]
    fn put(&mut self, r: MemRef, stage: &mut Stage) -> (u8, bool) {
        let (code, z) = self.deltas.encode(r);
        let at = self.staged & (STAGE_BYTES - 1);
        stage[at..at + 8].copy_from_slice(&z.to_le_bytes());
        self.len += 1;
        // A sequential step always fits, so it never escapes.
        if z < ESCAPE {
            self.staged = at + select_unpredictable(code == KIND_NEXT, 0, DELTA_BYTES);
            return (code, false);
        }
        stage[at..at + 8].copy_from_slice(&(ESCAPE | z << (8 * DELTA_BYTES)).to_le_bytes());
        let tail = z >> (64 - 8 * DELTA_BYTES);
        stage[at + 8..at + 16].copy_from_slice(&tail.to_le_bytes());
        self.staged = at + ESCAPED_BYTES;
        (code, over_budget(self.written + self.staged, self.len))
    }

    /// Stages references from `iter` into `byte` from slot `from` on,
    /// until the byte is full, the stream ends or a reference takes the
    /// trace over its budget; returns the first slot left empty
    /// (`KINDS_PER_BYTE` when full) and whether the trace went over.
    /// Always inlined, so that from slot 0 the shifts are constants.
    #[inline(always)]
    fn fill_kind_byte(
        &mut self,
        iter: &mut impl Iterator<Item = MemRef>,
        stage: &mut Stage,
        byte: &mut u8,
        from: usize,
    ) -> (usize, bool) {
        for slot in from..KINDS_PER_BYTE {
            let Some(r) = iter.next() else {
                return (slot, false);
            };
            let (code, over) = self.put(r, stage);
            *byte |= code << (2 * slot);
            if over {
                return (slot + 1, true);
            }
        }
        (KINDS_PER_BYTE, false)
    }
}

/// [`PackedTrace::pack_dense`]'s staging block for the stored
/// differences, with room past its end for a store's spill.
type Stage = [u8; STAGE_BYTES + 16];

/// Whether a dense trace of `len` references and `written` address
/// bytes has outgrown its budget: 4 bytes per reference plus
/// [`DENSE_SLACK`], but never more than 8 per reference (the fixed
/// form's size past 2^32). Each step of the budget is at least 4 bytes
/// and a reference that does not escape stores at most 3, so only an
/// escape can cross it: the encoder asks only then.
#[cold]
#[inline(never)]
fn over_budget(written: usize, len: usize) -> bool {
    written > 4 * len + DENSE_SLACK.min(4 * len)
}

impl PackedTrace {
    /// Packs `iter` in the dense form, reopening a partly filled last
    /// kind byte, and returns the rest of the stream if a reference
    /// took the dense form over its budget (that reference stored).
    ///
    /// The encoder state stays in registers, kind bytes are assembled
    /// four references at a time with constant shifts, and the stored
    /// differences are staged on the stack and appended a stage at a
    /// time.
    fn pack_dense<I: Iterator<Item = MemRef>>(&mut self, mut iter: I) -> Option<I> {
        let PackedTrace { len, kinds, addrs } = self;
        let Addresses::Dense { bytes, last } = addrs else {
            return Some(iter);
        };
        let mut stage = [0; STAGE_BYTES + 16];
        let mut enc = Encoder {
            deltas: *last,
            staged: 0,
            written: bytes.len(),
            len: *len,
        };
        let filled = *len % KINDS_PER_BYTE;
        let (mut end, mut over) = (KINDS_PER_BYTE, false);
        if filled > 0 {
            let mut byte = kinds.pop().unwrap_or(0);
            (end, over) = enc.fill_kind_byte(&mut iter, &mut stage, &mut byte, filled);
            kinds.push(byte);
        }
        while end == KINDS_PER_BYTE && !over {
            if enc.staged > STAGE_BYTES - KINDS_PER_BYTE * ESCAPED_BYTES {
                bytes.extend_from_slice(&stage[..enc.staged]);
                enc.written += enc.staged;
                enc.staged = 0;
            }
            let mut byte = 0;
            (end, over) = enc.fill_kind_byte(&mut iter, &mut stage, &mut byte, 0);
            if end > 0 {
                kinds.push(byte);
            }
        }
        bytes.extend_from_slice(&stage[..enc.staged]);
        (*last, *len) = (enc.deltas, enc.len);
        over.then_some(iter)
    }

    /// Packs `iter` in the fixed form, reopening a partly filled last
    /// kind byte.
    fn pack_fixed(&mut self, mut iter: impl Iterator<Item = MemRef>) {
        let PackedTrace { len, kinds, addrs } = self;
        let Addresses::Fixed { lo, hi } = addrs else {
            return;
        };
        let filled = *len % KINDS_PER_BYTE;
        if filled > 0 {
            let mut byte = kinds.pop().unwrap_or(0);
            let end = fill_kind_byte(lo, hi, &mut iter, &mut byte, filled);
            kinds.push(byte);
            *len += end - filled;
            if end < KINDS_PER_BYTE {
                return;
            }
        }
        loop {
            let mut byte = 0;
            let end = fill_kind_byte(lo, hi, &mut iter, &mut byte, 0);
            if end > 0 {
                kinds.push(byte);
            }
            *len += end;
            if end < KINDS_PER_BYTE {
                return;
            }
        }
    }
}

/// Appends references from `iter` in the fixed form until kind byte
/// `byte` is full or the stream ends, assembling the byte in a register
/// from slot `from` on; returns the first slot left empty
/// (`KINDS_PER_BYTE` when full). Always inlined so that, called with
/// `from == 0`, the slot loop unrolls to constant shifts (one loop
/// carrying the slot across bytes packed 20-35% slower on a 2-vCPU
/// x86-64).
#[inline(always)]
fn fill_kind_byte(
    lo: &mut Vec<u32>,
    hi: &mut Vec<u32>,
    iter: &mut impl Iterator<Item = MemRef>,
    byte: &mut u8,
    from: usize,
) -> usize {
    for slot in from..KINDS_PER_BYTE {
        let Some(r) = iter.next() else {
            return slot;
        };
        push_fixed(lo, hi, r.address().value());
        *byte |= kind_to_code(r.kind()) << (2 * slot);
    }
    KINDS_PER_BYTE
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = MemRef;
    type IntoIter = ChunkIter<PackedReader<&'a PackedTrace>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Reads a [`PackedTrace`] front to back, decoding a whole chunk per
/// call. `P` is how the reader holds the trace: a borrow
/// ([`PackedTrace::reader`]) or a shared owner such as an `Arc`.
#[derive(Debug, Clone)]
pub struct PackedReader<P> {
    trace: P,
    cursor: Cursor,
}

impl<P: Deref<Target = PackedTrace>> PackedReader<P> {
    /// A reader positioned at the first reference of `trace`.
    pub fn new(trace: P) -> Self {
        PackedReader {
            trace,
            cursor: Cursor::default(),
        }
    }
}

impl<P: Deref<Target = PackedTrace>> ChunkRead for PackedReader<P> {
    fn read_chunk(&mut self, chunk: &mut RefChunk, max: usize) -> usize {
        self.cursor.read(&self.trace, chunk, max)
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.trace.len - self.cursor.next)
    }
}

impl<P: Deref<Target = PackedTrace>> ExactSizeIterator for ChunkIter<PackedReader<P>> {}

/// A read position in a [`PackedTrace`].
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    /// The index of the next reference.
    next: usize,
    /// The dense form's byte offset of the next reference's address.
    pos: usize,
    deltas: Deltas,
}

impl Cursor {
    /// Replaces `chunk`'s contents with up to `max` next references of
    /// `trace`, returning how many.
    fn read(&mut self, trace: &PackedTrace, chunk: &mut RefChunk, max: usize) -> usize {
        let from = self.next;
        let n = max.min(trace.len - from);
        let (addrs, out) = chunk.slots(n);
        let kinds = &trace.kinds;
        match &trace.addrs {
            Addresses::Dense { bytes, .. } => {
                let (mut pos, mut deltas) = (self.pos, self.deltas);
                // The kind byte's codes not yet read, lowest first.
                let mut codes = kinds
                    .get(from / KINDS_PER_BYTE)
                    .map_or(0, |&b| b >> (2 * (from % KINDS_PER_BYTE)));
                for (i, (addr, kind)) in (from..).zip(addrs.iter_mut().zip(out.iter_mut())) {
                    if i % KINDS_PER_BYTE == 0 {
                        codes = kinds[i / KINDS_PER_BYTE];
                    }
                    let code = codes & 3;
                    codes >>= 2;
                    *addr = deltas.decode(code, bytes, &mut pos);
                    *kind = KIND_OF[usize::from(code)];
                }
                (self.pos, self.deltas) = (pos, deltas);
            }
            Addresses::Fixed { lo, hi } => {
                let lo = &lo[from..from + n];
                if hi.is_empty() {
                    for (addr, &low) in addrs.iter_mut().zip(lo) {
                        *addr = u64::from(low);
                    }
                } else {
                    let hi = &hi[from..from + n];
                    for ((addr, &low), &high) in addrs.iter_mut().zip(lo).zip(hi) {
                        *addr = u64::from(high) << 32 | u64::from(low);
                    }
                }
                for (i, kind) in (from..).zip(out.iter_mut()) {
                    *kind = KIND_OF[usize::from(code_at(kinds, i))];
                }
            }
        }
        self.next += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MemRef> {
        vec![
            MemRef::ifetch(0x1000),
            MemRef::read(0x2004),
            MemRef::write(0x2004),
            MemRef::ifetch(0x1002),
        ]
    }

    fn read_all(packed: &PackedTrace, max: usize) -> Vec<MemRef> {
        let (mut reader, mut chunk, mut out) = (packed.reader(), RefChunk::new(), Vec::new());
        while reader.read_chunk(&mut chunk, max) > 0 {
            assert!(chunk.len() <= max);
            out.extend(chunk.iter());
        }
        out
    }

    #[test]
    fn round_trips_every_kind() {
        let refs = sample();
        let packed: PackedTrace = refs.iter().copied().collect();
        assert_eq!(packed.len(), refs.len());
        let back: Vec<MemRef> = packed.iter().collect();
        assert_eq!(back, refs);
    }

    #[test]
    fn chunk_reads_match_iteration_and_end() {
        let refs: Vec<MemRef> = sample().into_iter().cycle().take(11).collect();
        let packed: PackedTrace = refs.iter().copied().collect();
        for max in 1..=12 {
            assert_eq!(read_all(&packed, max), refs, "chunks of {max}");
        }
        let mut reader = packed.reader();
        let mut chunk = RefChunk::new();
        assert_eq!(reader.read_chunk(&mut chunk, 100), refs.len());
        assert_eq!(reader.read_chunk(&mut chunk, 100), 0);
        assert!(chunk.is_empty());
    }

    #[test]
    fn sequential_fetches_store_no_address_bytes() {
        // The first fetch stores its difference from 0 and the second
        // sets the step; the other 98 are one step on each.
        let refs: Vec<MemRef> = (0..100u64).map(|i| MemRef::ifetch(0x400 + 4 * i)).collect();
        let packed: PackedTrace = refs.iter().copied().collect();
        assert_eq!(packed.payload_bytes(), 2 * DELTA_BYTES + 25);
        assert_eq!(packed.iter().collect::<Vec<_>>(), refs);
    }

    #[test]
    fn a_branch_keeps_the_step() {
        // A long jump stores its difference but leaves the step alone,
        // so the fetch after it is free again.
        let refs = [0x100, 0x102, 0x104, 0x9000, 0x9002, 0x9004].map(MemRef::ifetch);
        let packed: PackedTrace = refs.iter().copied().collect();
        assert_eq!(packed.payload_bytes(), 3 * DELTA_BYTES + 2);
        assert_eq!(packed.iter().collect::<Vec<_>>(), refs);
    }

    #[test]
    fn wide_differences_escape_exactly() {
        let refs = vec![
            MemRef::read(u64::MAX),
            MemRef::read(0),
            MemRef::ifetch(1 << 40),
            MemRef::write(ESCAPE),
            MemRef::write(ESCAPE + (ESCAPE >> 1)),
            MemRef::ifetch(3),
        ];
        let packed: PackedTrace = refs.iter().copied().collect();
        assert_eq!(packed.iter().collect::<Vec<_>>(), refs);
        for max in 1..=6 {
            assert_eq!(read_all(&packed, max), refs, "chunks of {max}");
        }
    }

    #[test]
    fn payload_is_at_most_four_and_a_quarter_bytes_per_reference() {
        for len in 0..=9 {
            let packed: PackedTrace = sample().into_iter().cycle().take(len).collect();
            assert!(4 * packed.payload_bytes() <= 17 * len + 32, "len {len}");
        }
    }

    #[test]
    fn high_addresses_mid_trace_round_trip_within_the_bound() {
        let mut refs = sample();
        refs.push(MemRef::read(u64::MAX));
        refs.push(MemRef::ifetch(0x3000));
        let packed: PackedTrace = refs.iter().copied().collect();
        assert_eq!(packed.iter().collect::<Vec<_>>(), refs);
        assert!(packed.payload_bytes() <= 8 * refs.len() + 2);
    }

    #[test]
    fn a_stream_that_will_not_compress_switches_to_the_fixed_form() {
        // Differences of 2^40 and more escape at 11 bytes each.
        let refs: Vec<MemRef> = (1..=40u64)
            .map(|i| MemRef::read(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let mut packed = PackedTrace::new();
        for &r in &refs {
            packed.push(r);
            assert!(
                packed.payload_bytes() <= 8 * packed.len() + packed.len().div_ceil(4),
                "{} refs: {} bytes",
                packed.len(),
                packed.payload_bytes()
            );
        }
        assert!(matches!(packed.addrs, Addresses::Fixed { .. }));
        assert_eq!(packed.payload_bytes(), 8 * refs.len() + refs.len() / 4);
        assert_eq!(packed.iter().collect::<Vec<_>>(), refs);
        assert_eq!(packed, refs.iter().copied().collect());
    }

    #[test]
    fn iterator_is_exact_size() {
        let packed: PackedTrace = sample().into_iter().collect();
        let mut it = packed.iter();
        assert_eq!(it.len(), 4);
        it.next();
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn extend_appends() {
        let mut packed: PackedTrace = sample().into_iter().collect();
        packed.extend([MemRef::read(0x42)]);
        assert_eq!(packed.len(), 5);
        assert_eq!(packed.iter().nth(4), Some(MemRef::read(0x42)));
    }

    #[test]
    fn empty_trace_behaves() {
        let packed = PackedTrace::new();
        assert!(packed.is_empty());
        assert_eq!(packed.iter().count(), 0);
        assert_eq!(read_all(&packed, 8), vec![]);
    }
}
