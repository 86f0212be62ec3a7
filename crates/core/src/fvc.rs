//! The value-centric frequent value cache structure.

use crate::value_set::FrequentValueSet;
use fvl_mem::{Addr, Word, WORD_BYTES};
use std::fmt;

/// Tag of an empty FVC slot. Line addresses are word aligned, so no
/// valid line address has bit 0 set.
const EMPTY: Addr = 1;

/// Largest line an FVC line's frequent-word mask covers.
pub const MAX_FVC_WORDS: u32 = u64::BITS;

/// One FVC line: a tag, a dirty bit and a per-word *frequent* mask.
///
/// The hardware FVC stores a code per word; which frequent value a
/// marked word holds is its architectural value, which the controller
/// keeps in its memory image. So the model keeps only which words the
/// line can serve: bit `i` of `frequent` is set when word `i` holds a
/// frequent value the FVC knows.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct FvcLine {
    /// Address of the first byte of the (uncompressed) line.
    pub line_addr: Addr,
    /// Whether a frequent word was written since the line entered the
    /// FVC (dirty frequent words must be written back on eviction).
    pub dirty: bool,
    /// Bit `i` set: word `i` holds a frequent value the FVC can serve.
    pub frequent: u64,
}

impl FvcLine {
    /// Encodes a clean line from its words: every word holding a
    /// frequent value is marked servable.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than [`MAX_FVC_WORDS`].
    pub fn encode(line_addr: Addr, data: &[Word], values: &FrequentValueSet) -> Self {
        #[cfg(feature = "metrics")]
        crate::metrics::LINES_ENCODED.incr();
        assert!(
            data.len() as u32 <= MAX_FVC_WORDS,
            "FVC lines hold at most {MAX_FVC_WORDS} words"
        );
        let frequent = data
            .iter()
            .enumerate()
            .filter(|&(_, &w)| values.contains(w))
            .fold(0u64, |mask, (i, _)| mask | 1 << i);
        FvcLine {
            line_addr,
            dirty: false,
            frequent,
        }
    }

    /// Number of words this line can serve.
    pub fn frequent_count(&self) -> u32 {
        self.frequent.count_ones()
    }
}

/// The frequent value cache: a small (usually direct-mapped) cache whose
/// data array stores codes, not words — modelled as a tag, a dirty bit
/// and a frequent-word mask per line, struct-of-arrays.
///
/// Like [`fvl_cache::DataCache`] this is a passive structure; the
/// [`crate::HybridCache`] controller decides what enters and leaves.
///
/// # Example
///
/// ```
/// use fvl_core::{FrequentValueSet, Fvc, FvcLine};
///
/// let values = FrequentValueSet::new(vec![0, 1, 2])?;
/// let mut fvc = Fvc::new(64, 8, &values);
/// let line = FvcLine::encode(0x100, &[0, 1, 2, 3, 4, 0, 0, 1], &values);
/// assert_eq!(line.frequent_count(), 6);
/// fvc.install(line);
/// let slot = fvc.probe(0x104).expect("tag match");
/// assert!(fvc.is_frequent(slot, 0x104));
/// assert!(!fvc.is_frequent(slot, 0x10c));
/// # Ok::<(), fvl_core::ValueSetError>(())
/// ```
#[derive(Clone)]
pub struct Fvc {
    entries: u32,
    associativity: u32,
    sets: u32,
    words_per_line: u32,
    line_bytes: u32,
    width: u32,
    /// Line address per slot (set-major), [`EMPTY`] for an invalid way.
    tags: Vec<Addr>,
    dirty: Vec<bool>,
    frequent: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
}

impl Fvc {
    /// Creates a direct-mapped FVC with `entries` lines of
    /// `words_per_line` words encoded at `values`' width.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` and `words_per_line` are powers of two
    /// and `words_per_line` is at most [`MAX_FVC_WORDS`].
    pub fn new(entries: u32, words_per_line: u32, values: &FrequentValueSet) -> Self {
        Self::with_associativity(entries, words_per_line, values, 1)
    }

    /// Creates a set-associative FVC (LRU within sets).
    ///
    /// # Panics
    ///
    /// Panics unless `entries`, `words_per_line` and `associativity` are
    /// powers of two with `associativity ≤ entries` and
    /// `words_per_line ≤` [`MAX_FVC_WORDS`].
    pub fn with_associativity(
        entries: u32,
        words_per_line: u32,
        values: &FrequentValueSet,
        associativity: u32,
    ) -> Self {
        assert!(
            entries.is_power_of_two(),
            "FVC entries must be a power of two"
        );
        assert!(
            words_per_line.is_power_of_two() && words_per_line <= MAX_FVC_WORDS,
            "words per line must be a power of two of at most {MAX_FVC_WORDS}"
        );
        assert!(
            associativity.is_power_of_two() && associativity <= entries,
            "bad FVC associativity"
        );
        let n = entries as usize;
        Fvc {
            entries,
            associativity,
            sets: entries / associativity,
            words_per_line,
            line_bytes: words_per_line * WORD_BYTES,
            width: values.width_bits(),
            tags: vec![EMPTY; n],
            dirty: vec![false; n],
            frequent: vec![0; n],
            stamps: vec![0; n],
            clock: 0,
        }
    }

    /// Number of lines.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Words per line.
    pub fn words_per_line(&self) -> u32 {
        self.words_per_line
    }

    /// Encoding width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width
    }

    /// Associativity (1 = direct mapped).
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Size of the encoded data array in bytes — the "FVC size" the
    /// paper quotes (e.g. 512 entries × 8 words × 3 bits = 1.5 KB).
    pub fn data_bytes(&self) -> f64 {
        (self.entries * self.words_per_line * self.width) as f64 / 8.0
    }

    #[inline]
    fn line_addr_of(&self, addr: Addr) -> Addr {
        addr & !(self.line_bytes - 1)
    }

    #[inline]
    fn set_range(&self, line_addr: Addr) -> std::ops::Range<usize> {
        let set = ((line_addr / self.line_bytes) % self.sets) as usize;
        let a = self.associativity as usize;
        set * a..(set + 1) * a
    }

    /// Word offset of `addr` within its line.
    #[inline]
    pub fn word_offset(&self, addr: Addr) -> u32 {
        (addr & (self.line_bytes - 1)) / WORD_BYTES
    }

    /// Looks up the line containing `addr`; returns its slot on a tag
    /// match (the match says nothing about whether the specific word is
    /// frequent — check [`Fvc::is_frequent`]).
    #[inline]
    pub fn probe(&self, addr: Addr) -> Option<usize> {
        #[cfg(feature = "metrics")]
        crate::metrics::FVC_LOOKUPS.incr();
        let line_addr = self.line_addr_of(addr);
        let range = self.set_range(line_addr);
        self.tags[range.clone()]
            .iter()
            .position(|&tag| tag == line_addr)
            .map(|w| range.start + w)
    }

    /// Marks `slot` most recently used.
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.stamps[slot] = self.clock;
    }

    /// Whether the line in `slot` can serve the word at `addr`.
    #[inline]
    pub fn is_frequent(&self, slot: usize, addr: Addr) -> bool {
        debug_assert_eq!(self.tags[slot], self.line_addr_of(addr));
        self.frequent[slot] >> self.word_offset(addr) & 1 == 1
    }

    /// Records a frequent-value store into the line in `slot`: the word
    /// becomes servable and the line dirty (a frequent-value write hit).
    #[inline]
    pub fn set_frequent(&mut self, slot: usize, addr: Addr) {
        debug_assert_eq!(self.tags[slot], self.line_addr_of(addr));
        self.frequent[slot] |= 1 << self.word_offset(addr);
        self.dirty[slot] = true;
    }

    fn line_at(&self, slot: usize) -> FvcLine {
        FvcLine {
            line_addr: self.tags[slot],
            dirty: self.dirty[slot],
            frequent: self.frequent[slot],
        }
    }

    /// Installs a line, returning the evicted victim if one was valid.
    ///
    /// # Panics
    ///
    /// Panics if `line.line_addr` is not a line address, or if the line
    /// is already resident.
    pub fn install(&mut self, line: FvcLine) -> Option<FvcLine> {
        assert_eq!(line.line_addr % self.line_bytes, 0, "not a line address");
        assert!(
            self.probe(line.line_addr).is_none(),
            "line already resident in FVC"
        );
        let range = self.set_range(line.line_addr);
        let slot = match self.tags[range.clone()].iter().position(|&t| t == EMPTY) {
            Some(w) => range.start + w,
            None => {
                let ways = &self.stamps[range.clone()];
                let lru = (0..ways.len())
                    .min_by_key(|&w| ways[w])
                    .expect("associativity at least 1");
                range.start + lru
            }
        };
        let evicted = (self.tags[slot] != EMPTY).then(|| self.line_at(slot));
        self.clock += 1;
        self.stamps[slot] = self.clock;
        self.tags[slot] = line.line_addr;
        self.dirty[slot] = line.dirty;
        self.frequent[slot] = line.frequent;
        evicted
    }

    /// Removes and returns the line in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    pub fn take(&mut self, slot: usize) -> FvcLine {
        assert_ne!(self.tags[slot], EMPTY, "take on invalid FVC slot");
        let line = self.line_at(slot);
        self.tags[slot] = EMPTY;
        line
    }

    /// Number of valid lines.
    pub fn valid_lines(&self) -> u32 {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count() as u32
    }

    /// Iterates over the valid lines' `(line_addr, dirty, frequent
    /// words)` for occupancy statistics.
    pub fn iter_valid(&self) -> impl Iterator<Item = (Addr, bool, u32)> + '_ {
        (0..self.tags.len())
            .filter(|&slot| self.tags[slot] != EMPTY)
            .map(|slot| {
                let line = self.line_at(slot);
                (line.line_addr, line.dirty, line.frequent_count())
            })
    }

    /// Drains every valid line (end-of-simulation flush).
    pub fn drain(&mut self) -> Vec<FvcLine> {
        let mut out = Vec::new();
        for slot in 0..self.tags.len() {
            if self.tags[slot] != EMPTY {
                out.push(self.take(slot));
            }
        }
        out
    }
}

impl fmt::Debug for Fvc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fvc")
            .field("entries", &self.entries)
            .field("associativity", &self.associativity)
            .field("width_bits", &self.width)
            .field("valid_lines", &self.valid_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top7() -> FrequentValueSet {
        FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 10]).unwrap()
    }

    #[test]
    fn encode_marks_exactly_the_frequent_words() {
        let values = top7();
        let data = [0u32, 1000, 0, 99999, u32::MAX, 10, 1, u32::MAX];
        let line = FvcLine::encode(0x100, &data, &values);
        assert_eq!(line.frequent, 0b1111_0101);
        assert_eq!(line.frequent_count(), 6);
        assert!(!line.dirty);
    }

    #[test]
    fn probe_install_take() {
        let values = top7();
        let mut fvc = Fvc::new(16, 8, &values);
        assert_eq!(fvc.data_bytes(), 16.0 * 8.0 * 3.0 / 8.0);
        let line = FvcLine::encode(0x200, &[0; 8], &values);
        assert!(fvc.install(line).is_none());
        let slot = fvc.probe(0x21c).unwrap();
        assert!(fvc.is_frequent(slot, 0x200));
        let taken = fvc.take(slot);
        assert_eq!(taken, line);
        assert!(fvc.probe(0x200).is_none());
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let values = top7();
        let mut fvc = Fvc::new(4, 8, &values);
        // 4 entries x 32B lines => addresses 128 bytes apart conflict.
        fvc.install(FvcLine::encode(0x000, &[0; 8], &values));
        let evicted = fvc
            .install(FvcLine::encode(0x080, &[1; 8], &values))
            .unwrap();
        assert_eq!(evicted.line_addr, 0x000);
        assert!(fvc.probe(0x000).is_none());
        assert!(fvc.probe(0x080).is_some());
    }

    #[test]
    fn set_associative_fvc_keeps_conflicting_lines_and_evicts_lru() {
        let values = top7();
        let mut fvc = Fvc::with_associativity(4, 8, &values, 2);
        fvc.install(FvcLine::encode(0x000, &[0; 8], &values));
        assert!(fvc
            .install(FvcLine::encode(0x040, &[0; 8], &values))
            .is_none());
        assert!(fvc.probe(0x000).is_some());
        assert!(fvc.probe(0x040).is_some());
        // Touch 0x000: 0x040 is now the least recent of the set.
        fvc.touch(fvc.probe(0x000).unwrap());
        let evicted = fvc.install(FvcLine::encode(0x080, &[0; 8], &values));
        assert_eq!(evicted.unwrap().line_addr, 0x040);
    }

    #[test]
    fn set_frequent_marks_dirty_and_servable() {
        let values = top7();
        let mut fvc = Fvc::new(4, 8, &values);
        fvc.install(FvcLine::encode(0x000, &[999; 8], &values));
        let slot = fvc.probe(0x004).unwrap();
        assert!(!fvc.is_frequent(slot, 0x004));
        fvc.set_frequent(slot, 0x004);
        assert!(fvc.is_frequent(slot, 0x004));
        assert!(!fvc.is_frequent(slot, 0x008));
        let line = fvc.take(slot);
        assert!(line.dirty);
        assert_eq!(line.frequent, 0b10);
    }

    #[test]
    fn drain_and_occupancy() {
        let values = top7();
        let mut fvc = Fvc::new(8, 8, &values);
        fvc.install(FvcLine::encode(0x000, &[0, 0, 9, 9, 9, 9, 9, 9], &values));
        fvc.install(FvcLine::encode(0x020, &[0; 8], &values));
        let occ: Vec<_> = fvc.iter_valid().collect();
        assert_eq!(occ.len(), 2);
        let total_frequent: u32 = occ.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total_frequent, 2 + 8);
        assert_eq!(fvc.drain().len(), 2);
        assert_eq!(fvc.valid_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn duplicate_install_panics() {
        let values = top7();
        let mut fvc = Fvc::new(4, 8, &values);
        fvc.install(FvcLine::encode(0x0, &[0; 8], &values));
        fvc.install(FvcLine::encode(0x0, &[0; 8], &values));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_lines_are_rejected() {
        Fvc::new(4, 128, &top7());
    }
}
