//! A compact, structure-of-arrays trace buffer.
//!
//! A [`MemRef`] is 16 bytes (a padded `u64` address plus a discriminant);
//! a million-reference trace held as `Vec<MemRef>` costs 16 MB per copy
//! and streams poorly when several sweep workers walk it at once.
//! [`PackedTrace`] stores the same information in about 4.25 bytes per
//! reference — the low 32 address bits in one array, the access kinds
//! at 2 bits each, four to a byte — and yields `MemRef`s on iteration,
//! so simulators consume it unchanged. Addresses are exact for any
//! `u64`: the first address of 2^32 or more allocates a third array of
//! high address words (back-filled with zeros), so a trace pays 8.25
//! bytes per reference only once it needs them.
//!
//! The experiment harness wraps a `PackedTrace` in an [`Arc`] and shares
//! it by reference across the sweep worker pool: cloning a trace set is
//! then a reference-count bump, not a copy of the reference stream.
//!
//! [`Arc`]: std::sync::Arc

use crate::record::{AccessKind, Address, MemRef};

const KIND_IFETCH: u8 = 0;
const KIND_READ: u8 = 1;
const KIND_WRITE: u8 = 2;

/// Access kinds per byte of `kinds`, at 2 bits each.
const KINDS_PER_BYTE: usize = 4;

const fn kind_to_code(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::InstrFetch => KIND_IFETCH,
        AccessKind::DataRead => KIND_READ,
        AccessKind::DataWrite => KIND_WRITE,
    }
}

const fn code_to_kind(code: u8) -> AccessKind {
    match code & 3 {
        KIND_IFETCH => AccessKind::InstrFetch,
        KIND_READ => AccessKind::DataRead,
        // Kind codes are private and only written by `kind_to_code`, so
        // 3 is unreachable; mapping it keeps decoding branch-cheap.
        _ => AccessKind::DataWrite,
    }
}

/// A reference stream stored as separate address and kind arrays
/// (structure-of-arrays): about 4.25 bytes per reference instead of 16
/// while every address is below 2^32, 8.25 once one is not.
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
    /// The low 32 bits of every address.
    lo: Vec<u32>,
    /// The high 32 bits of every address, or empty while every address
    /// so far fits in 32 bits. Once allocated it is as long as `lo`.
    hi: Vec<u32>,
    /// The access kinds, 2 bits each, reference `i` at bits
    /// `2 * (i % 4)` of byte `i / 4`; unused bits are zero.
    kinds: Vec<u8>,
}

impl PackedTrace {
    /// Creates an empty trace buffer.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Creates an empty buffer with room for `capacity` references
    /// whose addresses fit in 32 bits.
    pub fn with_capacity(capacity: usize) -> Self {
        PackedTrace {
            lo: Vec::with_capacity(capacity),
            hi: Vec::new(),
            kinds: Vec::with_capacity(capacity.div_ceil(KINDS_PER_BYTE)),
        }
    }

    /// Appends one reference.
    pub fn push(&mut self, r: MemRef) {
        self.extend([r]);
    }

    /// Appends one address (its kind is the caller's to store).
    #[inline]
    fn push_address(&mut self, addr: u64) {
        let high = (addr >> 32) as u32;
        if high != 0 || !self.hi.is_empty() {
            if self.hi.is_empty() {
                self.start_high_words(self.lo.len());
            }
            self.hi.push(high);
        }
        self.lo.push(addr as u32);
    }

    /// Appends references from `iter` until kind byte `byte` is full or
    /// the stream ends, assembling the byte in a register from slot
    /// `from` on; returns the first slot left empty (`KINDS_PER_BYTE`
    /// when full). Always inlined so that, called with `from == 0`,
    /// the slot loop unrolls to constant shifts (one loop carrying the
    /// slot across bytes packed 20-35% slower on a 2-vCPU x86-64).
    #[inline(always)]
    fn fill_kind_byte(
        &mut self,
        iter: &mut impl Iterator<Item = MemRef>,
        byte: &mut u8,
        from: usize,
    ) -> usize {
        for slot in from..KINDS_PER_BYTE {
            let Some(r) = iter.next() else {
                return slot;
            };
            self.push_address(r.address().value());
            *byte |= kind_to_code(r.kind()) << (2 * slot);
        }
        KINDS_PER_BYTE
    }

    /// Allocates the high address words on the first address of 2^32
    /// or more, with a zero for each of the `len` references before it.
    #[cold]
    fn start_high_words(&mut self, len: usize) {
        self.hi.reserve_exact(self.lo.capacity().max(len + 1));
        self.hi.resize(len, 0);
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// The `i`-th reference, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<MemRef> {
        let &low = self.lo.get(i)?;
        let high = self.hi.get(i).map_or(0, |&h| u64::from(h) << 32);
        let code = self.kinds[i / KINDS_PER_BYTE] >> (2 * (i % KINDS_PER_BYTE));
        Some(MemRef::new(
            Address::new(high | u64::from(low)),
            code_to_kind(code),
        ))
    }

    /// Iterates the references as [`MemRef`]s (by value; the backing
    /// storage never holds `MemRef`s).
    pub fn iter(&self) -> PackedIter<'_> {
        PackedIter {
            lo: self.lo.iter(),
            hi: self.hi.iter(),
            kinds: self.kinds.iter(),
            codes: SPENT,
        }
    }

    /// Bytes of heap storage used (about 4.25 per reference below 2^32,
    /// ignoring `Vec` over-allocation).
    pub fn payload_bytes(&self) -> usize {
        (self.lo.len() + self.hi.len()) * std::mem::size_of::<u32>() + self.kinds.len()
    }
}

impl FromIterator<MemRef> for PackedTrace {
    /// Collects a stream, allocating once for its `size_hint` lower
    /// bound (exact for a generator prefix or a `Vec`).
    fn from_iter<I: IntoIterator<Item = MemRef>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut packed = PackedTrace::with_capacity(iter.size_hint().0);
        packed.extend(iter);
        packed
    }
}

impl Extend<MemRef> for PackedTrace {
    /// Reopens a partly filled last kind byte, then packs the stream a
    /// byte at a time; `fill_kind_byte` writes every kind code.
    fn extend<I: IntoIterator<Item = MemRef>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        let additional = iter.size_hint().0;
        self.lo.reserve(additional);
        self.kinds.reserve(additional.div_ceil(KINDS_PER_BYTE));
        let filled = self.lo.len() % KINDS_PER_BYTE;
        if filled > 0 {
            let mut byte = self.kinds.pop().unwrap_or(0);
            let end = self.fill_kind_byte(&mut iter, &mut byte, filled);
            self.kinds.push(byte);
            if end < KINDS_PER_BYTE {
                return;
            }
        }
        loop {
            let mut byte = 0;
            let end = self.fill_kind_byte(&mut iter, &mut byte, 0);
            if end > 0 {
                self.kinds.push(byte);
            }
            if end < KINDS_PER_BYTE {
                return;
            }
        }
    }
}

impl<'a> IntoIterator for &'a PackedTrace {
    type Item = MemRef;
    type IntoIter = PackedIter<'a>;

    fn into_iter(self) -> PackedIter<'a> {
        self.iter()
    }
}

/// `PackedIter::codes` once every kind code of its byte was yielded:
/// the marker bit alone.
const SPENT: u32 = 1;

/// Iterator over a [`PackedTrace`], yielding owned [`MemRef`]s.
#[derive(Debug, Clone)]
pub struct PackedIter<'a> {
    lo: std::slice::Iter<'a, u32>,
    /// Empty when the trace has no high address words.
    hi: std::slice::Iter<'a, u32>,
    kinds: std::slice::Iter<'a, u8>,
    /// The current kind byte's codes not yet yielded, lowest first,
    /// under a marker bit that reaches bit 0 when they run out.
    codes: u32,
}

impl Iterator for PackedIter<'_> {
    type Item = MemRef;

    #[inline]
    fn next(&mut self) -> Option<MemRef> {
        let &low = self.lo.next()?;
        if self.codes == SPENT {
            self.codes = u32::from(*self.kinds.next()?) | SPENT << (2 * KINDS_PER_BYTE);
        }
        let code = self.codes as u8;
        self.codes >>= 2;
        let high = self.hi.next().map_or(0, |&h| u64::from(h) << 32);
        Some(MemRef::new(
            Address::new(high | u64::from(low)),
            code_to_kind(code),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.lo.size_hint()
    }
}

impl ExactSizeIterator for PackedIter<'_> {}

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

    #[test]
    fn round_trips_every_kind() {
        let refs = sample();
        let packed: PackedTrace = refs.iter().copied().collect();
        assert_eq!(packed.len(), refs.len());
        let back: Vec<MemRef> = packed.iter().collect();
        assert_eq!(back, refs);
    }

    #[test]
    fn get_matches_iteration_and_bounds() {
        let packed: PackedTrace = sample().into_iter().collect();
        for (i, r) in packed.iter().enumerate() {
            assert_eq!(packed.get(i), Some(r));
        }
        assert_eq!(packed.get(packed.len()), None);
    }

    #[test]
    fn payload_is_at_most_four_and_a_quarter_bytes_per_reference() {
        for len in 0..=9 {
            let packed: PackedTrace = sample().into_iter().cycle().take(len).collect();
            assert!(4 * packed.payload_bytes() <= 17 * len + 32, "len {len}");
        }
    }

    #[test]
    fn high_address_words_appear_mid_trace() {
        let mut refs = sample();
        refs.push(MemRef::read(u64::MAX));
        refs.push(MemRef::ifetch(0x3000));
        let packed: PackedTrace = refs.iter().copied().collect();
        assert_eq!(packed.iter().collect::<Vec<_>>(), refs);
        assert_eq!(packed.get(4), Some(MemRef::read(u64::MAX)));
        assert_eq!(packed.get(5), Some(MemRef::ifetch(0x3000)));
        assert_eq!(packed.payload_bytes(), 8 * refs.len() + 2);
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
        assert_eq!(packed.get(4), Some(MemRef::read(0x42)));
    }

    #[test]
    fn empty_trace_behaves() {
        let packed = PackedTrace::new();
        assert!(packed.is_empty());
        assert_eq!(packed.iter().count(), 0);
        assert_eq!(packed.get(0), None);
    }
}
