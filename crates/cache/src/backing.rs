//! Backing main memory with off-chip traffic accounting.

use fvl_mem::{Addr, SimMemory, Word, WORD_BYTES};
use std::fmt;

/// The simulated DRAM behind a cache hierarchy.
///
/// All word movement between the caches and this memory is counted, because
/// the paper equates miss-rate reduction with off-chip traffic (and hence
/// power) reduction.
///
/// The tag-only sinks ([`crate::CacheSim`] and the hybrid controllers in
/// `fvl-core`) keep it as their *architectural image*: every store
/// updates it at once through [`MainMemory::poke`], so it always holds
/// the value a load must see, and their fetches and write-backs only
/// count the words the modelled bus moves ([`MainMemory::count_fetch`],
/// [`MainMemory::count_write_back`]). Sinks whose lines carry data
/// move real words with [`MainMemory::read_line`] and
/// [`MainMemory::write_line`].
///
/// # Example
///
/// ```
/// use fvl_cache::MainMemory;
///
/// let mut mem = MainMemory::new();
/// mem.write_line(0x100, &[1, 2, 3, 4]);
/// let mut buf = [0; 4];
/// mem.read_line(0x100, &mut buf);
/// assert_eq!(buf, [1, 2, 3, 4]);
/// assert_eq!(mem.words_in(), 4);
/// assert_eq!(mem.words_out(), 4);
/// ```
#[derive(Clone, Default)]
pub struct MainMemory {
    mem: SimMemory,
    words_out: u64,
    words_in: u64,
}

impl MainMemory {
    /// Creates an all-zero main memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads `buf.len()` consecutive words starting at the line address
    /// `line_addr` (a line fetch). Counts outbound traffic.
    pub fn read_line(&mut self, line_addr: Addr, buf: &mut [Word]) {
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = self.mem.read(line_addr + i as u32 * WORD_BYTES);
        }
        self.words_out += buf.len() as u64;
    }

    /// Writes a full line back (a write-back). Counts inbound traffic.
    pub fn write_line(&mut self, line_addr: Addr, data: &[Word]) {
        for (i, &w) in data.iter().enumerate() {
            self.mem.write(line_addr + i as u32 * WORD_BYTES, w);
        }
        self.words_in += data.len() as u64;
    }

    /// Writes a single word through to memory (a write-through store).
    /// Counts one word of traffic.
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        self.mem.write(addr, value);
        self.words_in += 1;
    }

    /// Counts a fetch of `words` words into the cache hierarchy without
    /// moving data (the tag-only sinks read values from the image).
    #[inline]
    pub fn count_fetch(&mut self, words: u64) {
        self.words_out += words;
    }

    /// Counts a write-back of `words` words without moving data (the
    /// image already holds them).
    #[inline]
    pub fn count_write_back(&mut self, words: u64) {
        self.words_in += words;
    }

    /// Reads a word without counting traffic.
    #[inline]
    pub fn peek(&self, addr: Addr) -> Word {
        self.mem.read(addr)
    }

    /// Reads `buf.len()` consecutive words from the line address
    /// `line_addr` without counting traffic (the line contents a
    /// content-sensitive policy or the FVC insert inspects). A line
    /// lies within one page, which is looked up once; a line longer
    /// than a page (a served `sim` request may ask for one) is read
    /// page by page.
    ///
    /// # Panics
    ///
    /// Panics if the words cross a page boundary inside a page-sized
    /// part, i.e. if `line_addr` is not aligned to the line.
    pub fn peek_line(&self, line_addr: Addr, buf: &mut [Word]) {
        let page_words = (SimMemory::PAGE_BYTES / WORD_BYTES) as usize;
        for (i, part) in buf.chunks_mut(page_words).enumerate() {
            self.mem
                .read_words(line_addr + i as u32 * SimMemory::PAGE_BYTES, part);
        }
    }

    /// Writes a word without counting traffic: an architectural store
    /// into the image, or test setup.
    #[inline]
    pub fn poke(&mut self, addr: Addr, value: Word) {
        self.mem.write(addr, value);
    }

    /// Words fetched from memory into the cache hierarchy.
    pub fn words_out(&self) -> u64 {
        self.words_out
    }

    /// Words written back from the cache hierarchy.
    pub fn words_in(&self) -> u64 {
        self.words_in
    }

    /// Total off-chip word traffic in both directions.
    pub fn total_traffic_words(&self) -> u64 {
        self.words_out + self.words_in
    }
}

impl fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MainMemory")
            .field("words_out", &self.words_out)
            .field("words_in", &self.words_in)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_counted_per_word() {
        let mut m = MainMemory::new();
        let mut buf = [0; 8];
        m.read_line(0x0, &mut buf);
        assert_eq!(m.words_out(), 8);
        m.write_line(0x0, &buf);
        assert_eq!(m.words_in(), 8);
        m.write_word(0x4, 9);
        assert_eq!(m.words_in(), 9);
        assert_eq!(m.total_traffic_words(), 17);
    }

    #[test]
    fn peek_and_poke_do_not_count() {
        let mut m = MainMemory::new();
        m.poke(0x10, 3);
        assert_eq!(m.peek(0x10), 3);
        let mut line = [9; 4];
        m.peek_line(0x10, &mut line);
        assert_eq!(line, [3, 0, 0, 0]);
        assert_eq!(m.total_traffic_words(), 0);
    }

    #[test]
    fn peek_line_equals_word_by_word_peeks() {
        let mut m = MainMemory::new();
        for i in 0..2048u32 {
            m.poke(0x4000 + i * 4, i ^ 0x55);
        }
        let by_word = |m: &MainMemory, addr: Addr, n: u32| -> Vec<Word> {
            (0..n).map(|i| m.peek(addr + i * 4)).collect()
        };
        // Materialized, unmaterialized (zeros), the last line of a
        // page, and a line of two whole pages.
        for (addr, n) in [(0x4020, 8), (0x9000, 16), (0x4fc0, 16), (0x4000, 2048)] {
            let mut buf = vec![7; n as usize];
            m.peek_line(addr, &mut buf);
            assert_eq!(buf, by_word(&m, addr, n), "{addr:#x}");
        }
        assert_eq!(m.total_traffic_words(), 0);
    }

    #[test]
    #[should_panic(expected = "page boundary")]
    fn peek_line_straddling_a_page_panics() {
        MainMemory::new().peek_line(0x0ff0, &mut [0; 8]);
    }

    #[test]
    fn counted_moves_touch_no_data() {
        let mut m = MainMemory::new();
        m.poke(0x20, 5);
        m.count_fetch(8);
        m.count_write_back(3);
        assert_eq!((m.words_out(), m.words_in()), (8, 3));
        assert_eq!(m.peek(0x20), 5);
    }

    #[test]
    fn line_round_trip() {
        let mut m = MainMemory::new();
        let data = [10, 20, 30, 40, 50, 60, 70, 80];
        m.write_line(0x200, &data);
        let mut buf = [0; 8];
        m.read_line(0x200, &mut buf);
        assert_eq!(buf, data);
    }
}
