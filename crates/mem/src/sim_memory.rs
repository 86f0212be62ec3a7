//! Sparse paged backing store for the simulated 32-bit address space.

use crate::layout::{Addr, Word, WORD_BYTES};
use std::fmt;

/// Words per page (4 KiB pages).
pub(crate) const PAGE_WORDS: usize = 1024;
const PAGE_SHIFT: u32 = 12; // 4096 bytes
/// Pages per page table: one table maps 4 MiB of address space.
const TABLE_PAGES: usize = 1024;
const TABLE_SHIFT: u32 = 22; // PAGE_SHIFT + log2(TABLE_PAGES)
/// Page tables in the directory: 1024 tables cover the 32-bit space.
const DIR_TABLES: usize = 1 << (32 - TABLE_SHIFT);

type Page = [Word; PAGE_WORDS];
type Table = [Option<Box<Page>>; TABLE_PAGES];

/// Sparse, paged, word-addressable simulated memory.
///
/// Pages are materialized on first touch; untouched memory reads as zero,
/// like freshly mapped pages on a real OS. `SimMemory` itself performs no
/// tracing — that is [`crate::TracedMemory`]'s job.
///
/// Pages are found through a two-level radix page table, like an MMU's:
/// the top 10 address bits pick a page table, the next 10 a page. A
/// lookup is two indexed loads with no hashing, which matters because
/// every cache sink checks each load against its memory image.
///
/// # Example
///
/// ```
/// use fvl_mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// assert_eq!(mem.read(0x8000), 0);
/// mem.write(0x8000, 0xdead_beef);
/// assert_eq!(mem.read(0x8000), 0xdead_beef);
/// ```
#[derive(Clone)]
pub struct SimMemory {
    /// Page tables by the top 10 address bits; `None` until a page in
    /// its 4 MiB is materialized.
    dir: Box<[Option<Box<Table>>; DIR_TABLES]>,
    /// Materialized pages.
    pages: usize,
}

impl Default for SimMemory {
    fn default() -> Self {
        SimMemory {
            dir: Box::new(std::array::from_fn(|_| None)),
            pages: 0,
        }
    }
}

impl SimMemory {
    /// Bytes per page: the unit that is materialized, and that no
    /// [`SimMemory::read_words`] range may cross.
    pub const PAGE_BYTES: u32 = 1 << PAGE_SHIFT;

    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// (page table, page within it, word within the page) of `addr`.
    #[inline]
    fn split(addr: Addr) -> (usize, usize, usize) {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word address {addr:#x}");
        (
            (addr >> TABLE_SHIFT) as usize,
            ((addr >> PAGE_SHIFT) as usize) & (TABLE_PAGES - 1),
            ((addr >> 2) as usize) & (PAGE_WORDS - 1),
        )
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is not 4-byte aligned.
    #[inline]
    pub fn read(&self, addr: Addr) -> Word {
        let (table, page, idx) = Self::split(addr);
        match &self.dir[table] {
            Some(table) => table[page].as_ref().map_or(0, |page| page[idx]),
            None => 0,
        }
    }

    /// Reads `buf.len()` consecutive words starting at `addr`, all from
    /// the one page that holds `addr`: the page is looked up once, not
    /// once per word. An aligned cache line of at most
    /// [`SimMemory::PAGE_BYTES`] never crosses a page.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a page boundary, and (in debug
    /// builds) if `addr` is not 4-byte aligned.
    #[inline]
    pub fn read_words(&self, addr: Addr, buf: &mut [Word]) {
        let (table, page, idx) = Self::split(addr);
        assert!(
            idx + buf.len() <= PAGE_WORDS,
            "{} words at {addr:#x} cross a {}-byte page boundary",
            buf.len(),
            Self::PAGE_BYTES
        );
        match self.dir[table].as_ref().and_then(|t| t[page].as_ref()) {
            Some(page) => buf.copy_from_slice(&page[idx..idx + buf.len()]),
            None => buf.fill(0),
        }
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is not 4-byte aligned.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) {
        let (table, page, idx) = Self::split(addr);
        if let Some(page) = self.dir[table].as_mut().and_then(|t| t[page].as_mut()) {
            page[idx] = value;
            return;
        }
        if value == 0 {
            // Writing zero into an unmaterialized page is a no-op.
            return;
        }
        let table = self.dir[table].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        table[page].insert(Box::new([0; PAGE_WORDS]))[idx] = value;
        self.pages += 1;
    }

    /// Number of materialized 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.pages
    }

    /// Resident simulated bytes (materialized pages only).
    pub fn resident_bytes(&self) -> usize {
        self.pages * PAGE_WORDS * WORD_BYTES as usize
    }
}

impl fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMemory")
            .field("resident_pages", &self.pages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let mem = SimMemory::new();
        assert_eq!(mem.read(0), 0);
        assert_eq!(mem.read(0xffff_fffc), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut mem = SimMemory::new();
        mem.write(0x1234_5678 & !3, 99);
        assert_eq!(mem.read(0x1234_5678 & !3), 99);
    }

    #[test]
    fn zero_write_to_untouched_page_allocates_nothing() {
        let mut mem = SimMemory::new();
        mem.write(0x4000, 0);
        assert_eq!(mem.resident_pages(), 0);
        mem.write(0x4000, 5);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.resident_bytes(), 4096);
    }

    #[test]
    fn adjacent_words_do_not_alias() {
        let mut mem = SimMemory::new();
        mem.write(0x100, 1);
        mem.write(0x104, 2);
        assert_eq!(mem.read(0x100), 1);
        assert_eq!(mem.read(0x104), 2);
    }

    #[test]
    fn page_boundary_words_are_independent() {
        let mut mem = SimMemory::new();
        mem.write(0x0ffc, 7); // last word of page 0
        mem.write(0x1000, 8); // first word of page 1
        assert_eq!(mem.read(0x0ffc), 7);
        assert_eq!(mem.read(0x1000), 8);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn interleaved_pages_and_clones_stay_independent() {
        let mut mem = SimMemory::new();
        // Alternate between two pages in different page tables (4 MiB
        // apart).
        for i in 0..PAGE_WORDS as u32 {
            mem.write(i * 4, i);
            mem.write(0x40_0000 + i * 4, !i);
        }
        for i in 0..PAGE_WORDS as u32 {
            assert_eq!(mem.read(i * 4), i);
            assert_eq!(mem.read(0x40_0000 + i * 4), !i);
        }
        assert_eq!(mem.resident_pages(), 2);
        // A clone carries the same contents.
        let copy = mem.clone();
        assert_eq!(copy.read(4), 1);
        assert_eq!(copy.read(0x40_0004), !1);
        // Writes to the original do not leak into the clone.
        mem.write(4, 999);
        assert_eq!(copy.read(4), 1);
    }

    #[test]
    fn read_words_equals_word_by_word_reads() {
        let mut mem = SimMemory::new();
        for i in 0..PAGE_WORDS as u32 {
            mem.write(0x2000 + i * 4, i * 7 + 1);
        }
        let by_word = |mem: &SimMemory, addr: Addr, n: u32| -> Vec<Word> {
            (0..n).map(|i| mem.read(addr + i * 4)).collect()
        };
        // A materialized page, an unmaterialized one (zeros), and the
        // last line of a page.
        for (addr, n) in [
            (0x2040, 8),
            (0x2000, 16),
            (0x5000, 8),
            (0x2fe0, 8),
            (0x2ffc, 1),
        ] {
            let mut buf = vec![99; n as usize];
            mem.read_words(addr, &mut buf);
            assert_eq!(buf, by_word(&mem, addr, n), "{addr:#x}");
        }
        let mut whole = vec![0; PAGE_WORDS];
        mem.read_words(0x2000, &mut whole);
        assert_eq!(whole, by_word(&mem, 0x2000, PAGE_WORDS as u32));
        assert_eq!(mem.resident_pages(), 1, "reads materialize nothing");
    }

    #[test]
    #[should_panic(expected = "cross a 4096-byte page boundary")]
    fn read_words_across_a_page_boundary_panics() {
        let mut mem = SimMemory::new();
        mem.write(0x1000, 5);
        mem.read_words(0x0ff8, &mut [0; 4]);
    }

    #[test]
    fn top_of_address_space_is_addressable() {
        let mut mem = SimMemory::new();
        mem.write(0xffff_fffc, 0xabcd);
        assert_eq!(mem.read(0xffff_fffc), 0xabcd);
    }
}
