//! A deliberately naive reference DMC+FVC hybrid.
//!
//! This is the oracle [`fvl_core::HybridCache`] is diffed against. It
//! is written from the policy list in the `HybridCache` docs, not from
//! its code, and shares nothing with `fvl-core` or `fvl-cache`:
//!
//! * both structures are LRU `Vec` sets kept in recency order (front =
//!   least recent), indexed with division and modulo;
//! * a DMC line holds its full words; an FVC line holds one
//!   `Option<Word>` per word — `Some(value)` for a frequent word,
//!   `None` for one marked infrequent;
//! * memory is a `BTreeMap` from word address to value, and every word
//!   moved over the bus is counted in each direction.

use fvl_mem::{Access, AccessKind, AccessSink, Addr, Word};
use std::collections::BTreeMap;

/// The oracle's counters, field for field comparable with
/// [`fvl_core::HybridStats`] plus the bus traffic.
#[derive(Copy, Clone, Default, PartialEq, Debug)]
pub struct OracleHybridStats {
    /// Combined counters: an access hits if either structure served it.
    pub overall: crate::OracleStats,
    /// Hits served by the DMC.
    pub dmc_hits: u64,
    /// Loads of a frequent word served by the FVC.
    pub fvc_read_hits: u64,
    /// Stores of a frequent value absorbed by a resident FVC line.
    pub fvc_write_hits: u64,
    /// Store misses of a frequent value allocated in the FVC.
    pub fvc_write_allocs: u64,
    /// Lines moved FVC -> DMC by an access the FVC could not serve.
    pub transfer_moves: u64,
    /// DMC victims inserted into the FVC.
    pub dmc_to_fvc_inserts: u64,
    /// DMC victims too poor in frequent words to insert.
    pub fvc_insert_skips: u64,
    /// FVC lines displaced by an insert or allocation.
    pub fvc_evictions: u64,
    /// Displaced FVC lines that were dirty.
    pub fvc_dirty_evictions: u64,
    /// Sum over samples of the mean % of frequent words per FVC line.
    pub occupancy_percent_sum: f64,
    /// Occupancy samples taken.
    pub occupancy_samples: u64,
    /// Words fetched from memory.
    pub words_out: u64,
    /// Words written to memory.
    pub words_in: u64,
}

impl OracleHybridStats {
    /// Whether these counters equal an optimized hybrid's statistics
    /// (every [`fvl_core::HybridStats`] field, including the combined
    /// [`fvl_cache::CacheStats`]) and its memory's traffic counters.
    pub fn matches(&self, stats: &fvl_core::HybridStats, words_out: u64, words_in: u64) -> bool {
        self.overall.matches(&stats.overall)
            && self.dmc_hits == stats.dmc_hits
            && self.fvc_read_hits == stats.fvc_read_hits
            && self.fvc_write_hits == stats.fvc_write_hits
            && self.fvc_write_allocs == stats.fvc_write_allocs
            && self.transfer_moves == stats.transfer_moves
            && self.dmc_to_fvc_inserts == stats.dmc_to_fvc_inserts
            && self.fvc_insert_skips == stats.fvc_insert_skips
            && self.fvc_evictions == stats.fvc_evictions
            && self.fvc_dirty_evictions == stats.fvc_dirty_evictions
            && self.occupancy_percent_sum == stats.occupancy_percent_sum
            && self.occupancy_samples == stats.occupancy_samples
            && self.words_out == words_out
            && self.words_in == words_in
    }
}

#[derive(Clone, Debug)]
struct DmcLine {
    line_addr: Addr,
    dirty: bool,
    data: Vec<Word>,
}

#[derive(Clone, Debug)]
struct FvcLine {
    line_addr: Addr,
    dirty: bool,
    words: Vec<Option<Word>>,
}

/// The reference DMC+FVC hybrid with the paper's default policies: an
/// LRU write-back DMC, an LRU FVC, DMC victims inserted when they hold
/// at least one frequent word, and store misses of a frequent value
/// allocated in the FVC and counted as hits.
///
/// # Example
///
/// ```
/// use fvl_check::OracleHybrid;
/// use fvl_mem::{Access, AccessSink};
///
/// let mut oracle = OracleHybrid::new((1024, 16, 1), 8, 1, vec![0, 1], 4096);
/// oracle.on_access(Access::store(0x100, 0)); // allocated in the FVC
/// oracle.on_access(Access::load(0x100, 0));  // an FVC read hit
/// oracle.on_finish();
/// assert_eq!(oracle.stats().fvc_write_allocs, 1);
/// assert_eq!(oracle.stats().fvc_read_hits, 1);
/// assert_eq!(oracle.stats().words_in, 1, "one dirty frequent word");
/// ```
#[derive(Clone, Debug)]
pub struct OracleHybrid {
    line_bytes: u32,
    dmc_sets: Vec<Vec<DmcLine>>,
    dmc_ways: usize,
    fvc_sets: Vec<Vec<FvcLine>>,
    fvc_ways: usize,
    values: Vec<Word>,
    memory: BTreeMap<Addr, Word>,
    sample_every: u64,
    next_sample: u64,
    accesses: u64,
    stats: OracleHybridStats,
    finished: bool,
}

impl OracleHybrid {
    /// A cold hybrid: a DMC of `(size bytes, line bytes, associativity)`,
    /// an FVC of `fvc_entries` lines in sets of `fvc_ways`, the
    /// frequent `values`, and an occupancy sample every `sample_every`
    /// accesses.
    ///
    /// # Panics
    ///
    /// Panics unless both structures divide into whole sets.
    pub fn new(
        dmc: (u64, u32, u32),
        fvc_entries: u32,
        fvc_ways: u32,
        values: Vec<Word>,
        sample_every: u64,
    ) -> Self {
        let (size, line_bytes, dmc_ways) = dmc;
        let set_bytes = u64::from(line_bytes) * u64::from(dmc_ways);
        assert!(
            line_bytes >= 4 && set_bytes > 0 && size.is_multiple_of(set_bytes),
            "indivisible DMC"
        );
        assert!(
            fvc_ways > 0 && fvc_entries.is_multiple_of(fvc_ways),
            "indivisible FVC"
        );
        OracleHybrid {
            line_bytes,
            dmc_sets: vec![Vec::new(); (size / set_bytes) as usize],
            dmc_ways: dmc_ways as usize,
            fvc_sets: vec![Vec::new(); (fvc_entries / fvc_ways) as usize],
            fvc_ways: fvc_ways as usize,
            values,
            memory: BTreeMap::new(),
            sample_every,
            next_sample: sample_every,
            accesses: 0,
            stats: OracleHybridStats::default(),
            finished: false,
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &OracleHybridStats {
        &self.stats
    }

    /// The value memory holds at `addr` (after a flush, the final
    /// memory image).
    pub fn peek_memory(&self, addr: Addr) -> Word {
        *self.memory.get(&addr).unwrap_or(&0)
    }

    fn words_per_line(&self) -> usize {
        (self.line_bytes / 4) as usize
    }

    fn is_frequent(&self, value: Word) -> bool {
        self.values.contains(&value)
    }

    fn fetch(&mut self, line_addr: Addr) -> Vec<Word> {
        self.stats.overall.fetches += 1;
        self.stats.words_out += self.words_per_line() as u64;
        (0..self.line_bytes / 4)
            .map(|w| self.peek_memory(line_addr + 4 * w))
            .collect()
    }

    fn write_words(&mut self, line_addr: Addr, words: &[Option<Word>]) {
        for (w, word) in words.iter().enumerate() {
            if let Some(value) = *word {
                self.memory.insert(line_addr + 4 * w as u32, value);
                self.stats.words_in += 1;
            }
        }
    }

    fn write_back_dmc(&mut self, line: &DmcLine) {
        if line.dirty {
            let words: Vec<Option<Word>> = line.data.iter().map(|&v| Some(v)).collect();
            self.write_words(line.line_addr, &words);
            self.stats.overall.writebacks += 1;
        }
    }

    /// Puts `line` at the most-recent end of its FVC set, displacing
    /// the least recent line of a full set.
    fn install_fvc(&mut self, line: FvcLine) {
        let set = ((line.line_addr / self.line_bytes) as usize) % self.fvc_sets.len();
        let victim = if self.fvc_sets[set].len() == self.fvc_ways {
            Some(self.fvc_sets[set].remove(0))
        } else {
            None
        };
        self.fvc_sets[set].push(line);
        if let Some(victim) = victim {
            self.stats.fvc_evictions += 1;
            if victim.dirty {
                self.stats.fvc_dirty_evictions += 1;
                self.write_words(victim.line_addr, &victim.words);
            }
        }
    }

    /// Puts `line` at the most-recent end of its DMC set. A displaced
    /// line is written back if dirty, then offered to the FVC with its
    /// frequent words.
    fn install_dmc(&mut self, line: DmcLine) {
        let set = ((line.line_addr / self.line_bytes) as usize) % self.dmc_sets.len();
        let victim = if self.dmc_sets[set].len() == self.dmc_ways {
            Some(self.dmc_sets[set].remove(0))
        } else {
            None
        };
        self.dmc_sets[set].push(line);
        let Some(victim) = victim else { return };
        self.write_back_dmc(&victim);
        let words: Vec<Option<Word>> = victim
            .data
            .iter()
            .map(|&v| self.is_frequent(v).then_some(v))
            .collect();
        if words.iter().any(Option::is_some) {
            self.stats.dmc_to_fvc_inserts += 1;
            self.install_fvc(FvcLine {
                line_addr: victim.line_addr,
                dirty: false,
                words,
            });
        } else {
            self.stats.fvc_insert_skips += 1;
        }
    }

    /// Serves `access` from its line, which is the most recent of its
    /// DMC set.
    fn serve_on_dmc(&mut self, access: Access, word: usize) {
        let set = ((access.addr / self.line_bytes) as usize) % self.dmc_sets.len();
        let line = self.dmc_sets[set].last_mut().expect("line just installed");
        if access.kind == AccessKind::Store {
            line.data[word] = access.value;
            line.dirty = true;
        }
    }

    fn count_miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Load => self.stats.overall.read_misses += 1,
            AccessKind::Store => self.stats.overall.write_misses += 1,
        }
    }

    fn sample_occupancy(&mut self) {
        let wpl = self.words_per_line() as f64;
        let mut lines = 0u64;
        let mut sum = 0.0;
        for line in self.fvc_sets.iter().flatten() {
            lines += 1;
            sum += line.words.iter().filter(|w| w.is_some()).count() as f64 / wpl;
        }
        if lines > 0 {
            self.stats.occupancy_percent_sum += sum / lines as f64 * 100.0;
            self.stats.occupancy_samples += 1;
        }
    }

    /// Simulates one access.
    pub fn access(&mut self, access: Access) {
        let line_addr = access.addr - access.addr % self.line_bytes;
        let word = ((access.addr % self.line_bytes) / 4) as usize;
        let dmc_set = ((line_addr / self.line_bytes) as usize) % self.dmc_sets.len();
        let fvc_set = ((line_addr / self.line_bytes) as usize) % self.fvc_sets.len();

        if let Some(pos) = self.dmc_sets[dmc_set]
            .iter()
            .position(|l| l.line_addr == line_addr)
        {
            // DMC hit: most recent, and a store dirties the line.
            self.stats.dmc_hits += 1;
            match access.kind {
                AccessKind::Load => self.stats.overall.read_hits += 1,
                AccessKind::Store => self.stats.overall.write_hits += 1,
            }
            let line = self.dmc_sets[dmc_set].remove(pos);
            self.dmc_sets[dmc_set].push(line);
            self.serve_on_dmc(access, word);
        } else if let Some(pos) = self.fvc_sets[fvc_set]
            .iter()
            .position(|l| l.line_addr == line_addr)
        {
            let frequent_word = self.fvc_sets[fvc_set][pos].words[word].is_some();
            match access.kind {
                AccessKind::Load if frequent_word => {
                    self.stats.fvc_read_hits += 1;
                    self.stats.overall.read_hits += 1;
                    let line = self.fvc_sets[fvc_set].remove(pos);
                    self.fvc_sets[fvc_set].push(line);
                }
                AccessKind::Store if self.is_frequent(access.value) => {
                    self.stats.fvc_write_hits += 1;
                    self.stats.overall.write_hits += 1;
                    let mut line = self.fvc_sets[fvc_set].remove(pos);
                    line.words[word] = Some(access.value);
                    line.dirty = true;
                    self.fvc_sets[fvc_set].push(line);
                }
                kind => {
                    // The FVC cannot serve this word: a miss that moves
                    // the line to the DMC, its frequent words laid over
                    // the fetched memory line.
                    self.count_miss(kind);
                    self.stats.transfer_moves += 1;
                    let fline = self.fvc_sets[fvc_set].remove(pos);
                    let mut data = self.fetch(line_addr);
                    for (slot, w) in data.iter_mut().zip(&fline.words) {
                        if let Some(value) = *w {
                            *slot = value;
                        }
                    }
                    self.install_dmc(DmcLine {
                        line_addr,
                        dirty: fline.dirty,
                        data,
                    });
                    self.serve_on_dmc(access, word);
                }
            }
        } else if access.kind == AccessKind::Store && self.is_frequent(access.value) {
            // Allocate in the FVC without a fetch; absorbed as a hit.
            self.stats.overall.write_hits += 1;
            self.stats.fvc_write_allocs += 1;
            let mut words = vec![None; self.words_per_line()];
            words[word] = Some(access.value);
            self.install_fvc(FvcLine {
                line_addr,
                dirty: true,
                words,
            });
        } else {
            self.count_miss(access.kind);
            let data = self.fetch(line_addr);
            self.install_dmc(DmcLine {
                line_addr,
                dirty: false,
                data,
            });
            self.serve_on_dmc(access, word);
        }

        self.accesses += 1;
        if self.accesses >= self.next_sample {
            self.next_sample = self.accesses + self.sample_every;
            self.sample_occupancy();
        }
    }

    /// Writes every dirty DMC line back, then every dirty FVC line's
    /// frequent words, and empties both structures.
    pub fn flush(&mut self) {
        let dmc: Vec<DmcLine> = self.dmc_sets.iter_mut().flat_map(std::mem::take).collect();
        for line in &dmc {
            self.write_back_dmc(line);
        }
        let fvc: Vec<FvcLine> = self.fvc_sets.iter_mut().flat_map(std::mem::take).collect();
        for line in fvc.iter().filter(|l| l.dirty) {
            self.write_words(line.line_addr, &line.words);
        }
    }
}

impl AccessSink for OracleHybrid {
    fn on_access(&mut self, access: Access) {
        self.access(access);
    }

    fn on_finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 KiB direct-mapped DMC of 16-byte lines (lines 1 KiB apart
    /// conflict) and a 4-entry direct-mapped FVC over {0, 1}.
    fn small() -> OracleHybrid {
        OracleHybrid::new((1024, 16, 1), 4, 1, vec![0, 1], 4096)
    }

    #[test]
    fn evicted_frequent_line_is_served_by_the_fvc() {
        let mut o = small();
        o.access(Access::load(0x100, 0));
        o.access(Access::load(0x500, 0)); // evicts 0x100 into the FVC
        o.access(Access::load(0x104, 0));
        let s = o.stats();
        assert_eq!(s.dmc_to_fvc_inserts, 1);
        assert_eq!(s.fvc_read_hits, 1);
        assert_eq!(s.overall.read_misses, 2);
    }

    #[test]
    fn infrequent_word_moves_the_line_back_with_its_newer_frequent_words() {
        let mut o = small();
        o.access(Access::store(0x100, 7)); // infrequent: fetched into the DMC
        o.access(Access::load(0x500, 0)); // 0x100 written back, then to the FVC
        o.access(Access::store(0x104, 1)); // FVC write hit: the line is dirty
        o.access(Access::load(0x100, 7)); // word 0 is infrequent: transfer
        o.on_finish();
        let s = o.stats();
        assert_eq!(s.fvc_write_hits, 1);
        assert_eq!(s.transfer_moves, 1);
        assert_eq!(o.peek_memory(0x100), 7);
        assert_eq!(o.peek_memory(0x104), 1, "the FVC's word survived the move");
    }

    #[test]
    fn dirty_fvc_victims_write_back_only_frequent_words() {
        let mut o = small();
        o.access(Access::store(0x000, 1)); // allocated in FVC set 0
        o.access(Access::store(0x040, 0)); // same FVC set: displaces it
        let s = o.stats();
        assert_eq!(s.fvc_write_allocs, 2);
        assert_eq!((s.fvc_evictions, s.fvc_dirty_evictions), (1, 1));
        assert_eq!(s.words_in, 1);
        assert_eq!(s.words_out, 0, "allocation fetches nothing");
        assert_eq!(o.peek_memory(0x000), 1);
    }

    #[test]
    fn all_infrequent_victims_are_skipped() {
        let mut o = small();
        o.access(Access::store(0x100, 5));
        o.access(Access::store(0x104, 5));
        o.access(Access::store(0x108, 5));
        o.access(Access::store(0x10c, 5));
        o.access(Access::load(0x500, 0));
        assert_eq!(o.stats().fvc_insert_skips, 1);
        assert_eq!(o.stats().overall.writebacks, 1);
        assert_eq!(o.stats().words_in, 4);
    }
}
