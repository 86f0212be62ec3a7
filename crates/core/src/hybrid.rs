//! The DMC+FVC hybrid controller — Section 3 of the paper.

use crate::config::HybridConfig;
use crate::fvc::{Fvc, FvcLine};
use crate::hybrid_stats::HybridStats;
use crate::value_set::FrequentValueSet;
use fvl_cache::{CacheStats, DataCache, LineTag, MainMemory, Simulator};
use fvl_mem::{Access, AccessKind, AccessSink, Word};
use std::fmt;

/// A conventional write-back cache augmented with a frequent value
/// cache, implementing the paper's policy exactly:
///
/// * both structures are probed in parallel; at most one can hold a
///   given line (the *exclusivity* invariant);
/// * an FVC tag match only counts as a hit if the referenced word's code
///   is a frequent value (reads) or the written value is frequent
///   (writes);
/// * a tag match on an infrequent word *moves* the line to the DMC:
///   fetch from memory, overlay the FVC's (possibly newer) frequent
///   words, install, evict from FVC;
/// * lines evicted from the DMC are written back (if dirty) and their
///   frequent-value identities inserted into the FVC;
/// * a write miss in both structures with a frequent value allocates
///   directly in the FVC — no fetch — with all other words marked
///   infrequent ("eliminate or delay the miss");
/// * dirty FVC victims write back only their frequent words.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, Simulator};
/// use fvl_core::{FrequentValueSet, HybridCache, HybridConfig};
/// use fvl_mem::{Access, AccessSink};
///
/// let config = HybridConfig::new(
///     CacheGeometry::new(4096, 32, 1)?,
///     64,
///     FrequentValueSet::new(vec![0, 1, 2, 3, 4, 5, 6])?,
/// );
/// let mut sim = HybridCache::new(config);
/// sim.on_access(Access::store(0x100, 0)); // absorbed by the FVC
/// sim.on_finish();
/// assert_eq!(sim.stats().misses(), 0);
/// assert_eq!(sim.hybrid_stats().fvc_write_allocs, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct HybridCache {
    dmc: DataCache,
    fvc: Fvc,
    values: FrequentValueSet,
    memory: MainMemory,
    stats: HybridStats,
    min_frequent: u32,
    write_alloc: bool,
    count_write_alloc_as_miss: bool,
    sample_every: u64,
    verify: bool,
    accesses: u64,
    next_sample: u64,
    line_buf: Vec<Word>,
    flushed: bool,
}

impl HybridCache {
    /// Builds the hybrid from a [`HybridConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the DMC's lines are longer than
    /// [`MAX_FVC_WORDS`](crate::MAX_FVC_WORDS) words.
    pub fn new(config: HybridConfig) -> Self {
        let dmc_geom = *config.dmc();
        let wpl = dmc_geom.words_per_line();
        let fvc = Fvc::with_associativity(
            config.fvc_entries(),
            wpl,
            config.values(),
            config.fvc_assoc(),
        );
        let sample_every = config.sample_every();
        HybridCache {
            dmc: DataCache::with_replacement(dmc_geom, config.dmc_replacement_kind()),
            fvc,
            values: config.values().clone(),
            memory: MainMemory::new(),
            stats: HybridStats::new(),
            min_frequent: config.min_frequent(),
            write_alloc: config.write_alloc(),
            count_write_alloc_as_miss: config.walloc_as_miss(),
            sample_every,
            verify: config.verify(),
            accesses: 0,
            next_sample: sample_every,
            line_buf: vec![0; wpl as usize],
            flushed: false,
        }
    }

    /// Accumulated hybrid statistics (combined + breakdown).
    pub fn hybrid_stats(&self) -> &HybridStats {
        &self.stats
    }

    /// The frequent value set in use.
    pub fn values(&self) -> &FrequentValueSet {
        &self.values
    }

    /// The FVC structure (for occupancy inspection).
    pub fn fvc(&self) -> &Fvc {
        &self.fvc
    }

    /// The conventional cache.
    pub fn dmc(&self) -> &DataCache {
        &self.dmc
    }

    /// The backing memory: the architectural image and the traffic
    /// counters.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Size of the FVC's encoded data array in bytes (the paper's
    /// reported FVC size).
    pub fn fvc_data_bytes(&self) -> f64 {
        self.fvc.data_bytes()
    }

    /// Verifies the exclusivity invariant: no line is simultaneously
    /// valid in the DMC and the FVC. Used by tests; linear in cache
    /// size.
    pub fn is_exclusive(&self) -> bool {
        self.dmc
            .iter_valid()
            .all(|l| self.fvc.probe(l.line_addr).is_none())
    }

    fn words_per_line(&self) -> u64 {
        u64::from(self.fvc.words_per_line())
    }

    /// Writes all dirty state back to memory and empties both caches.
    pub fn flush(&mut self) {
        let wpl = self.words_per_line();
        for line in self.dmc.drain() {
            if line.dirty {
                self.memory.count_write_back(wpl);
                self.stats.overall.writebacks += 1;
            }
        }
        for line in self.fvc.drain() {
            if line.dirty {
                self.write_back_fvc_line(&line);
            }
        }
    }

    /// A dirty FVC line writes back its frequent words only.
    fn write_back_fvc_line(&mut self, line: &FvcLine) {
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: the line writes back every word, as if
        // the FVC held whole lines.
        let words = if cfg!(feature = "seeded-bugs") {
            self.words_per_line()
        } else {
            u64::from(line.frequent_count())
        };
        self.memory.count_write_back(words);
    }

    fn handle_fvc_eviction(&mut self, evicted: Option<FvcLine>) {
        if let Some(line) = evicted {
            self.stats.fvc_evictions += 1;
            if line.dirty {
                self.stats.fvc_dirty_evictions += 1;
                self.write_back_fvc_line(&line);
            }
        }
    }

    fn handle_dmc_eviction(&mut self, evicted: Option<LineTag>) {
        let Some(line) = evicted else { return };
        if line.dirty {
            self.memory.count_write_back(self.words_per_line());
            self.stats.overall.writebacks += 1;
        }
        // Store the identities of frequent-value words in the FVC. The
        // line was just made consistent with memory, so it enters clean.
        self.memory.peek_line(line.line_addr, &mut self.line_buf);
        let fline = FvcLine::encode(line.line_addr, &self.line_buf, &self.values);
        if fline.frequent_count() >= self.min_frequent {
            self.stats.dmc_to_fvc_inserts += 1;
            let displaced = self.fvc.install(fline);
            self.handle_fvc_eviction(displaced);
        } else {
            self.stats.fvc_insert_skips += 1;
        }
    }

    /// Fetch the line from memory, merge the FVC's frequent words over
    /// it (the image already holds them), move it into the DMC, and
    /// retire the FVC copy. Returns the line's DMC slot.
    fn transfer_fvc_to_dmc(&mut self, fslot: usize, line_addr: u32) -> usize {
        #[cfg(feature = "metrics")]
        crate::metrics::LINES_DECODED.incr();
        self.stats.transfer_moves += 1;
        let fline = self.fvc.take(fslot);
        debug_assert_eq!(fline.line_addr, line_addr);
        self.memory.count_fetch(self.words_per_line());
        self.stats.overall.fetches += 1;
        // If the FVC copy was dirty the merged line differs from memory.
        let (slot, evicted) = self.dmc.install(line_addr, fline.dirty, &self.memory);
        self.handle_dmc_eviction(evicted);
        slot
    }

    fn serve_on_dmc(&mut self, access: Access, slot: usize) {
        self.dmc.touch(slot);
        match access.kind {
            AccessKind::Load => {
                if self.verify {
                    let value = self.memory.peek(access.addr);
                    assert_eq!(
                        value, access.value,
                        "hybrid returned {value:#x}, trace expects {:#x} at {:#x}",
                        access.value, access.addr
                    );
                }
            }
            AccessKind::Store => {
                self.memory.poke(access.addr, access.value);
                self.dmc.write(slot, &self.memory);
            }
        }
    }

    fn sample_occupancy(&mut self) {
        let wpl = self.fvc.words_per_line() as f64;
        let mut lines = 0u64;
        let mut sum = 0.0;
        for (_, _, frequent) in self.fvc.iter_valid() {
            lines += 1;
            sum += frequent as f64 / wpl;
        }
        if lines > 0 {
            self.stats.occupancy_percent_sum += sum / lines as f64 * 100.0;
            self.stats.occupancy_samples += 1;
        }
    }

    fn handle(&mut self, access: Access) {
        self.accesses += 1;
        let addr = access.addr;

        if let Some(slot) = self.dmc.probe(addr) {
            // Conventional hit: FVC changes nothing on this path.
            self.stats.dmc_hits += 1;
            self.dmc.touch(slot);
            match access.kind {
                AccessKind::Load => {
                    self.stats.overall.read_hits += 1;
                    if self.verify {
                        let value = self.memory.peek(addr);
                        assert_eq!(
                            value, access.value,
                            "DMC returned {value:#x}, trace expects {:#x} at {addr:#x}",
                            access.value
                        );
                    }
                }
                AccessKind::Store => {
                    self.stats.overall.write_hits += 1;
                    self.memory.poke(addr, access.value);
                    self.dmc.write(slot, &self.memory);
                }
            }
        } else if let Some(fslot) = self.fvc.probe(addr) {
            match access.kind {
                AccessKind::Load if self.fvc.is_frequent(fslot, addr) => {
                    // FVC read hit: the word's code names a frequent value.
                    self.stats.fvc_read_hits += 1;
                    self.stats.overall.read_hits += 1;
                    self.fvc.touch(fslot);
                    let value = self.memory.peek(addr);
                    assert!(
                        self.values.contains(value),
                        "FVC serves {addr:#x} but its value {value:#x} is not frequent"
                    );
                    if self.verify {
                        assert_eq!(
                            value, access.value,
                            "FVC decoded {value:#x}, trace expects {:#x} at {addr:#x}",
                            access.value
                        );
                    }
                }
                AccessKind::Store if self.values.contains(access.value) => {
                    // FVC write hit: re-encode the word.
                    self.stats.fvc_write_hits += 1;
                    self.stats.overall.write_hits += 1;
                    self.fvc.touch(fslot);
                    self.memory.poke(addr, access.value);
                    self.fvc.set_frequent(fslot, addr);
                }
                _ => {
                    // Tag match but the FVC cannot provide/store the
                    // word: a miss that moves the line back to the DMC.
                    match access.kind {
                        AccessKind::Load => self.stats.overall.read_misses += 1,
                        AccessKind::Store => self.stats.overall.write_misses += 1,
                    }
                    let line_addr = self.dmc.geometry().line_addr(addr);
                    let slot = self.transfer_fvc_to_dmc(fslot, line_addr);
                    self.serve_on_dmc(access, slot);
                }
            }
        } else {
            // Miss in both structures.
            match access.kind {
                AccessKind::Store if self.write_alloc && self.values.contains(access.value) => {
                    // Allocate directly in the FVC; no fetch. The FVC
                    // completes the write, so per the paper's accounting
                    // ("this strategy has the effect of either
                    // eliminating or delaying the cache miss") the miss
                    // is only charged later, if an infrequent word of
                    // the line is ever referenced (the transfer path).
                    if self.count_write_alloc_as_miss {
                        self.stats.overall.write_misses += 1;
                    } else {
                        self.stats.overall.write_hits += 1;
                    }
                    self.stats.fvc_write_allocs += 1;
                    self.memory.poke(addr, access.value);
                    let displaced = self.fvc.install(FvcLine {
                        line_addr: self.dmc.geometry().line_addr(addr),
                        dirty: true,
                        frequent: 1 << self.fvc.word_offset(addr),
                    });
                    self.handle_fvc_eviction(displaced);
                }
                kind => {
                    match kind {
                        AccessKind::Load => self.stats.overall.read_misses += 1,
                        AccessKind::Store => self.stats.overall.write_misses += 1,
                    }
                    let line_addr = self.dmc.geometry().line_addr(addr);
                    self.memory.count_fetch(self.words_per_line());
                    self.stats.overall.fetches += 1;
                    let (slot, evicted) = self.dmc.install(line_addr, false, &self.memory);
                    self.handle_dmc_eviction(evicted);
                    self.serve_on_dmc(access, slot);
                }
            }
        }

        if self.accesses >= self.next_sample {
            self.next_sample = self.accesses + self.sample_every;
            self.sample_occupancy();
        }
    }
}

impl AccessSink for HybridCache {
    #[inline]
    fn on_access(&mut self, access: Access) {
        #[cfg(feature = "metrics")]
        crate::metrics::HYBRID_DISPATCHES.incr();
        self.handle(access);
    }

    fn on_finish(&mut self) {
        if !self.flushed {
            self.flushed = true;
            self.flush();
        }
    }
}

impl Simulator for HybridCache {
    fn stats(&self) -> &CacheStats {
        &self.stats.overall
    }

    fn traffic_words(&self) -> u64 {
        self.memory.total_traffic_words()
    }

    fn label(&self) -> String {
        format!(
            "{} + {:.3}KB FVC ({} entries, top-{})",
            self.dmc.geometry(),
            self.fvc.data_bytes() / 1024.0,
            self.fvc.entries(),
            self.values.len()
        )
    }
}

impl fmt::Debug for HybridCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridCache")
            .field("dmc", &self.dmc)
            .field("fvc", &self.fvc)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvl_cache::{CacheGeometry, ReplacementKind};

    fn top7() -> FrequentValueSet {
        FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 10]).unwrap()
    }

    /// 1KB DMC with 32B lines: conflicting lines are 1KB apart.
    fn small_hybrid(entries: u32) -> HybridCache {
        HybridCache::new(HybridConfig::new(
            CacheGeometry::new(1024, 32, 1).unwrap(),
            entries,
            top7(),
        ))
    }

    #[test]
    fn dmc_hits_unaffected_by_fvc() {
        let mut h = small_hybrid(64);
        h.on_access(Access::store(0x100, 12345)); // miss, not frequent
        h.on_access(Access::load(0x100, 12345)); // DMC hit
        assert_eq!(h.hybrid_stats().dmc_hits, 1);
        assert_eq!(h.stats().hits(), 1);
        assert!(h.is_exclusive());
    }

    #[test]
    fn evicted_frequent_line_hits_in_fvc() {
        let mut h = small_hybrid(64);
        // Bring the (all-zero) line into the DMC with a load, then touch
        // every word through DMC hits.
        for i in 0..8 {
            h.on_access(Access::load(0x100 + i * 4, 0));
        }
        // Evict it via the conflicting line 1KB away.
        h.on_access(Access::load(0x500, 0));
        assert_eq!(h.hybrid_stats().dmc_to_fvc_inserts, 1);
        // Re-read: the FVC should serve all 8 words.
        for i in 0..8 {
            h.on_access(Access::load(0x100 + i * 4, 0));
        }
        assert_eq!(h.hybrid_stats().fvc_read_hits, 8);
        assert!(h.is_exclusive());
    }

    #[test]
    fn frequent_store_into_resident_fvc_line_is_a_write_hit() {
        let mut h = small_hybrid(64);
        h.on_access(Access::store(0x100, 0)); // write-alloc in FVC
        h.on_access(Access::store(0x104, 4)); // tag match, frequent: write hit
        assert_eq!(h.hybrid_stats().fvc_write_allocs, 1);
        assert_eq!(h.hybrid_stats().fvc_write_hits, 1);
        h.on_access(Access::load(0x104, 4));
        assert_eq!(h.hybrid_stats().fvc_read_hits, 1);
    }

    #[test]
    fn infrequent_word_under_tag_match_moves_line_to_dmc() {
        let mut h = small_hybrid(64);
        // Line enters the DMC via a load, gets an infrequent word, and
        // is then evicted into the FVC.
        h.on_access(Access::load(0x100, 0));
        h.on_access(Access::store(0x104, 777)); // infrequent, DMC hit
        h.on_access(Access::load(0x500, 0)); // evict line 0x100 -> FVC
        assert_eq!(h.hybrid_stats().dmc_to_fvc_inserts, 1);
        // Tag matches in FVC; word 0x104 is infrequent -> transfer.
        h.on_access(Access::load(0x104, 777));
        assert_eq!(h.hybrid_stats().transfer_moves, 1);
        assert!(h.fvc().probe(0x104).is_none(), "line left the FVC");
        assert!(h.dmc().probe(0x104).is_some(), "line entered the DMC");
        // And the frequent word is still correct through the DMC.
        h.on_access(Access::load(0x100, 0));
        assert!(h.is_exclusive());
    }

    #[test]
    fn write_miss_of_frequent_value_allocates_in_fvc_without_fetch() {
        let mut h = small_hybrid(64);
        let fetches_before = h.stats().fetches;
        h.on_access(Access::store(0x200, 0));
        assert_eq!(
            h.stats().fetches,
            fetches_before,
            "no fetch on FVC write-alloc"
        );
        assert_eq!(h.hybrid_stats().fvc_write_allocs, 1);
        // The FVC absorbs the write (the paper's "eliminate or delay").
        assert_eq!(h.stats().write_misses, 0);
        assert_eq!(h.stats().write_hits, 1);
        // The stored word now hits in the FVC.
        h.on_access(Access::load(0x200, 0));
        assert_eq!(h.hybrid_stats().fvc_read_hits, 1);
    }

    #[test]
    fn write_alloc_line_merges_correctly_on_infrequent_read() {
        let mut h = small_hybrid(64);
        // Seed memory with a known value at 0x204 via DMC path.
        h.on_access(Access::store(0x204, 555));
        h.on_access(Access::load(0x600, 0)); // evict; 555 written back, line -> FVC? 555 not frequent but 0-words...
                                             // The evicted line holds [0,555,0,...] (zeros from memory), so it
                                             // enters the FVC with word 1 infrequent.
                                             // Write frequent value to word 0 -> FVC write hit or alloc.
        h.on_access(Access::store(0x200, 1));
        // Read back the infrequent word: transfer miss must return 555.
        h.on_access(Access::load(0x204, 555)); // oracle checks value
                                               // And the frequent word written while in the FVC survived.
        h.on_access(Access::load(0x200, 1));
        assert!(h.is_exclusive());
    }

    #[test]
    fn dirty_fvc_eviction_writes_frequent_words_back() {
        let mut h = small_hybrid(1); // single-entry FVC: every insert evicts
        h.on_access(Access::store(0x200, 0)); // write-alloc in FVC (dirty)
                                              // Different line, also write-alloc -> evicts the first.
        h.on_access(Access::store(0x800, 1));
        assert_eq!(h.hybrid_stats().fvc_evictions, 1);
        assert_eq!(h.hybrid_stats().fvc_dirty_evictions, 1);
        // Write-allocate marked one word: only that word goes back.
        assert_eq!(h.memory().words_in(), 1, "partial write-back");
        // The evicted value is recoverable through the normal path.
        h.on_access(Access::load(0x200, 0));
    }

    #[test]
    fn hybrid_never_loses_data_random_workload() {
        use std::collections::HashMap;
        let mut h = small_hybrid(16);
        let mut shadow: HashMap<u32, u32> = HashMap::new();
        // Deterministic pseudo-random mixed workload over 4KB.
        let mut x: u32 = 0x12345678;
        for _ in 0..20_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let addr = ((x >> 8) % 4096) & !3;
            let write = x & 1 == 0;
            if write {
                // Bias towards frequent values half the time.
                let value = if x & 2 == 0 { (x >> 16) % 11 } else { x };
                shadow.insert(addr, value);
                h.on_access(Access::store(addr, value));
            } else {
                let expect = shadow.get(&addr).copied().unwrap_or(0);
                // The oracle inside the hybrid asserts equality.
                h.on_access(Access::load(addr, expect));
            }
        }
        h.on_finish();
        assert!(h.is_exclusive());
        // Every load was checked against the image, which stores keep
        // current, so what a lost or extra write-back changes is the
        // traffic. These are the counts of `fvl_check::OracleHybrid`, a
        // full-data model, on the same workload.
        assert_eq!(h.stats().writebacks, 6775);
        assert_eq!(h.stats().fetches, 12555);
        assert_eq!(h.hybrid_stats().fvc_dirty_evictions, 1684);
        assert_eq!(h.memory().words_in(), 56589);
        assert_eq!(h.memory().words_out(), 100440);
    }

    /// Runs a store-heavy trace over 8 conflicting lines in each of 4
    /// sets of a 1 KiB, 32-byte-line DMC (lines 1 KiB apart share a
    /// set), half of whose stored values are frequent, through a hybrid
    /// with a 16-entry FVC and the given DMC shape and replacement.
    fn run_conflict_trace(
        assoc: u32,
        kind: ReplacementKind,
    ) -> (CacheStats, HybridStats, u64, u64) {
        use std::collections::HashMap;
        let config = HybridConfig::new(CacheGeometry::new(1024, 32, assoc).unwrap(), 16, top7())
            .dmc_replacement(kind);
        let mut h = HybridCache::new(config);
        let mut shadow: HashMap<u32, u32> = HashMap::new();
        let mut x: u32 = 0x1357_9bdf;
        for _ in 0..6000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let addr = (x >> 8) % 8 * 1024 + (x >> 12) % 4 * 32 + (x >> 16) % 8 * 4;
            if x >> 28 < 10 {
                let value = if x >> 24 & 1 == 0 { (x >> 20) % 11 } else { x };
                shadow.insert(addr, value);
                h.on_access(Access::store(addr, value));
            } else {
                h.on_access(Access::load(addr, shadow.get(&addr).copied().unwrap_or(0)));
            }
        }
        h.on_finish();
        (
            *h.stats(),
            h.hybrid_stats().clone(),
            h.memory().words_in(),
            h.memory().words_out(),
        )
    }

    #[test]
    fn direct_mapped_dmc_outcomes_do_not_depend_on_the_replacement_kind() {
        let lru = run_conflict_trace(1, ReplacementKind::Lru);
        // What every kind gave when a 1-way DMC still kept and consulted
        // its replacement state.
        let expected = CacheStats {
            read_hits: 338,
            read_misses: 1865,
            write_hits: 1397,
            write_misses: 2400,
            writebacks: 2640,
            fetches: 4265,
        };
        assert_eq!((lru.0, lru.2, lru.3), (expected, 22115, 34120));
        assert_eq!(
            (
                lru.1.dmc_hits,
                lru.1.dmc_to_fvc_inserts,
                lru.1.fvc_dirty_evictions
            ),
            (748, 3979, 756)
        );
        for kind in ReplacementKind::ALL {
            assert_eq!(run_conflict_trace(1, kind), lru, "{kind}");
        }
        // The same trace tells the kinds apart with a 2-way DMC, so it
        // does give the policies decisions to make.
        let two_way: Vec<_> = ReplacementKind::ALL
            .iter()
            .map(|&kind| run_conflict_trace(2, kind))
            .collect();
        assert!(two_way.iter().any(|r| *r != two_way[0]));
    }

    #[test]
    fn occupancy_sampling_accumulates() {
        let config = HybridConfig::new(CacheGeometry::new(1024, 32, 1).unwrap(), 64, top7())
            .occupancy_sample_every(8);
        let mut h = HybridCache::new(config);
        for i in 0..8 {
            h.on_access(Access::store(0x100 + i * 4, 0));
        }
        h.on_access(Access::load(0x500, 0)); // causes FVC insert
        for i in 0..16 {
            h.on_access(Access::load(0x100 + (i % 8) * 4, 0));
        }
        assert!(h.hybrid_stats().occupancy_samples > 0);
        assert!(
            h.hybrid_stats().avg_occupancy_percent() > 99.0,
            "all-zero line is 100% frequent"
        );
    }

    #[test]
    fn write_alloc_ablation_disables_rule() {
        let config = HybridConfig::new(CacheGeometry::new(1024, 32, 1).unwrap(), 64, top7())
            .write_allocate_fvc(false);
        let mut h = HybridCache::new(config);
        h.on_access(Access::store(0x200, 0));
        assert_eq!(h.hybrid_stats().fvc_write_allocs, 0);
        assert_eq!(h.stats().fetches, 1, "conventional write-allocate fetch");
    }

    #[test]
    fn min_frequent_words_zero_inserts_everything() {
        let config = HybridConfig::new(CacheGeometry::new(1024, 32, 1).unwrap(), 64, top7())
            .min_frequent_words(0);
        let mut h = HybridCache::new(config);
        h.on_access(Access::store(0x100, 99999)); // all-infrequent line
        h.on_access(Access::load(0x500, 0)); // evict it
        assert_eq!(h.hybrid_stats().dmc_to_fvc_inserts, 1);
        assert_eq!(h.hybrid_stats().fvc_insert_skips, 0);
    }

    #[test]
    fn simulator_trait_label() {
        let h = small_hybrid(64);
        let label = h.label();
        assert!(label.contains("1KB direct-mapped"));
        assert!(label.contains("top-7"));
    }

    #[test]
    fn flush_is_idempotent_and_complete() {
        let mut h = small_hybrid(64);
        h.on_access(Access::store(0x100, 42)); // infrequent: fetched into the DMC
        h.on_access(Access::store(0x200, 0)); // frequent: allocated in the FVC
        h.on_finish();
        h.on_finish();
        assert_eq!(h.stats().writebacks, 1, "the DMC line, once");
        assert_eq!(h.memory().words_in(), 8 + 1, "its line and the FVC word");
        assert_eq!(h.dmc().valid_lines(), 0);
        assert_eq!(h.fvc().valid_lines(), 0);
    }
}
