//! The baseline conventional cache simulator.

use crate::backing::MainMemory;
use crate::classify::MissClassifier;
use crate::data_cache::DataCache;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementKind;
use crate::stats::CacheStats;
use fvl_mem::{Access, AccessBlock, AccessKind, AccessSink, Addr, ACCESS_BLOCK};
use std::fmt;

/// How stores propagate to memory.
///
/// The paper evaluates write-back caches only, "because write-through
/// caches are known to generate much higher levels of traffic" — a
/// premise this simulator can verify directly (see the crate tests).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate (the paper's configuration).
    #[default]
    WriteBack,
    /// Write-through with no write-allocate: stores update memory
    /// immediately; store misses do not fetch the line.
    WriteThrough,
}

/// A write-back, write-allocate cache in front of a [`MainMemory`],
/// driven by an access trace.
///
/// With associativity 1 this is the paper's baseline DMC. The cache
/// itself is a tag-only [`DataCache`]; the memory is the architectural
/// image every store updates at once, and by default the simulator
/// *verifies* on every load that the image holds the value recorded in
/// the trace — a built-in coherence oracle for the trace, since the
/// value a resident line would return is always the image's.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, CacheSim};
/// use fvl_mem::{Access, AccessSink};
///
/// let mut sim = CacheSim::new(CacheGeometry::new(4096, 32, 1)?);
/// sim.on_access(Access::store(0x100, 1));
/// sim.on_access(Access::load(0x100, 1));
/// sim.on_finish();
/// assert_eq!(sim.stats().write_misses, 1);
/// assert_eq!(sim.stats().read_hits, 1);
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
pub struct CacheSim {
    cache: DataCache,
    memory: MainMemory,
    stats: CacheStats,
    classifier: Option<MissClassifier>,
    policy: WritePolicy,
    verify_values: bool,
    flushed: bool,
}

impl CacheSim {
    /// Creates a simulator over an all-zero main memory.
    pub fn new(geom: CacheGeometry) -> Self {
        CacheSim {
            cache: DataCache::new(geom),
            memory: MainMemory::new(),
            stats: CacheStats::new(),
            classifier: None,
            policy: WritePolicy::WriteBack,
            verify_values: true,
            flushed: false,
        }
    }

    /// Selects the write policy (builder style; default write-back).
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the replacement policy (builder style; default true
    /// LRU). Must be called before any access: the cache is rebuilt
    /// empty with fresh policy state.
    pub fn with_replacement(mut self, kind: ReplacementKind) -> Self {
        assert_eq!(
            self.stats.accesses(),
            0,
            "with_replacement must precede the first access"
        );
        self.cache = DataCache::with_replacement(*self.cache.geometry(), kind);
        self
    }

    /// The configured replacement policy.
    pub fn replacement(&self) -> ReplacementKind {
        self.cache.replacement()
    }

    /// The configured write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.policy
    }

    /// Enables compulsory/capacity/conflict classification of misses.
    pub fn with_classifier(mut self) -> Self {
        let geom = *self.cache.geometry();
        self.classifier = Some(MissClassifier::new(
            geom.lines() as usize,
            geom.line_bytes(),
        ));
        self
    }

    /// Disables the load-value oracle (useful only for deliberately
    /// incoherent experiments).
    pub fn set_verify_values(&mut self, verify: bool) {
        self.verify_values = verify;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The cache organization.
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }

    /// The backing memory: the architectural image and the traffic
    /// counters.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// The miss classifier, if enabled via [`CacheSim::with_classifier`].
    pub fn classifier(&self) -> Option<&MissClassifier> {
        self.classifier.as_ref()
    }

    /// Total off-chip traffic in words, including the final flush.
    pub fn traffic_words(&self) -> u64 {
        self.memory.total_traffic_words()
    }

    fn words_per_line(&self) -> u64 {
        u64::from(self.cache.geometry().words_per_line())
    }

    /// Writes every dirty line back to memory and empties the cache.
    pub fn flush(&mut self) {
        let wpl = self.words_per_line();
        for line in self.cache.drain() {
            if line.dirty {
                self.memory.count_write_back(wpl);
                self.stats.writebacks += 1;
            }
        }
    }

    /// Simulates one access and reports whether it **missed** — the
    /// entry point for callers that need per-access outcomes (e.g. the
    /// Figure 4 miss-attribution study). [`AccessSink::on_access`]
    /// delegates here.
    pub fn access(&mut self, access: Access) -> bool {
        let geom = self.cache.geometry();
        let (line_addr, set) = (geom.line_addr(access.addr), geom.set_index(access.addr));
        self.access_split(access, line_addr, set)
    }

    /// [`CacheSim::access`] with the address already split into its
    /// line address and set index (as produced per block by
    /// [`CacheGeometry::split_block`]) — the wide replay path batches
    /// the extraction and feeds the tag-match state machine here.
    fn access_split(&mut self, access: Access, line_addr: Addr, set: u32) -> bool {
        #[cfg(feature = "metrics")]
        crate::metrics::DMC_LOOKUPS.incr();
        let addr = access.addr;
        let probed = self.cache.probe_at(set, line_addr);
        let missed = probed.is_none();
        if let Some(c) = &mut self.classifier {
            c.observe(addr, missed);
        }
        let store = access.kind == AccessKind::Store;
        let slot = match probed {
            Some(slot) => {
                if store {
                    self.stats.write_hits += 1;
                } else {
                    self.stats.read_hits += 1;
                }
                self.cache.touch(slot);
                slot
            }
            None if store && self.policy == WritePolicy::WriteThrough => {
                // No write-allocate: the store bypasses the cache.
                self.stats.write_misses += 1;
                self.memory.write_word(addr, access.value);
                return true;
            }
            None => {
                if store {
                    self.stats.write_misses += 1;
                } else {
                    self.stats.read_misses += 1;
                }
                let wpl = self.words_per_line();
                self.memory.count_fetch(wpl);
                self.stats.fetches += 1;
                let (slot, evicted) = self.cache.install(line_addr, false, &self.memory);
                if evicted.is_some_and(|line| line.dirty) {
                    self.memory.count_write_back(wpl);
                    self.stats.writebacks += 1;
                }
                slot
            }
        };
        if !store {
            if self.verify_values {
                let value = self.memory.peek(addr);
                assert_eq!(
                    value,
                    access.value,
                    "{} returned {value:#x} but trace expects {:#x} at {addr:#x}",
                    if missed { "memory" } else { "cache" },
                    access.value
                );
            }
        } else if self.policy == WritePolicy::WriteBack {
            self.memory.poke(addr, access.value);
            self.cache.write(slot, &self.memory);
        } else {
            // A write-through store hit keeps the line clean: the word
            // goes straight to memory as well.
            self.memory.write_word(addr, access.value);
            self.cache.write(slot, &self.memory);
            self.cache.clean(slot);
        }
        missed
    }
}

impl AccessSink for CacheSim {
    #[inline]
    fn on_access(&mut self, access: Access) {
        self.access(access);
    }

    /// Wide-replay fast path: the line-address/set-index extraction for
    /// the whole block runs as one vectorizable pass
    /// ([`CacheGeometry::split_block`]) before the sequential
    /// tag-match/LRU state machine consumes the precomputed columns.
    fn on_access_block(&mut self, block: &AccessBlock<'_>) {
        let n = block.len();
        let mut line_addrs = [0 as Addr; ACCESS_BLOCK];
        let mut sets = [0u32; ACCESS_BLOCK];
        self.cache
            .geometry()
            .split_block(block.addrs(), &mut line_addrs[..n], &mut sets[..n]);
        for i in 0..n {
            self.access_split(block.get(i), line_addrs[i], sets[i]);
        }
    }

    fn on_finish(&mut self) {
        if !self.flushed {
            self.flushed = true;
            self.flush();
        }
    }
}

impl fmt::Debug for CacheSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheSim")
            .field("geometry", self.cache.geometry())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(size: u64, line: u32, assoc: u32) -> CacheSim {
        CacheSim::new(CacheGeometry::new(size, line, assoc).unwrap())
    }

    #[test]
    fn cold_miss_then_hits_within_line() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::load(0x100, 0));
        s.on_access(Access::load(0x104, 0));
        s.on_access(Access::load(0x108, 0));
        assert_eq!(s.stats().read_misses, 1);
        assert_eq!(s.stats().read_hits, 2);
    }

    #[test]
    fn store_then_load_returns_stored_value() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x200, 0xabcd));
        s.on_access(Access::load(0x200, 0xabcd)); // oracle verifies
        assert_eq!(s.stats().write_misses, 1);
        assert_eq!(s.stats().read_hits, 1);
    }

    #[test]
    #[should_panic(expected = "trace expects")]
    fn oracle_catches_wrong_values() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x200, 1));
        s.on_access(Access::load(0x200, 2)); // inconsistent trace
    }

    #[test]
    fn conflicting_lines_thrash_in_dm_but_not_2way() {
        let a = 0x0000u32;
        let b = a + 1024; // same index in a 1KB DM cache
        let mut dm = sim(1024, 16, 1);
        let mut w2 = sim(1024, 16, 2);
        for _ in 0..10 {
            for s in [&mut dm, &mut w2] {
                s.on_access(Access::load(a, 0));
                s.on_access(Access::load(b, 0));
            }
        }
        assert_eq!(dm.stats().misses(), 20, "DM thrashes");
        assert_eq!(w2.stats().misses(), 2, "2-way keeps both");
    }

    #[test]
    fn dirty_eviction_writes_back_and_data_survives() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x000, 42));
        // Evict by touching the conflicting line.
        s.on_access(Access::load(0x400, 0));
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.memory().words_in(), 4, "the whole line went back");
        // Re-load the written value through the cache.
        s.on_access(Access::load(0x000, 42));
        assert_eq!(s.stats().read_misses, 2);
    }

    #[test]
    fn clean_eviction_writes_nothing_back() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::load(0x000, 0));
        s.on_access(Access::load(0x400, 0));
        assert_eq!(s.stats().writebacks, 0);
    }

    #[test]
    fn flush_on_finish_writes_dirty_lines() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x123 & !3, 5));
        s.on_finish();
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.memory().words_in(), 4);
        s.on_finish(); // idempotent
        assert_eq!(s.stats().writebacks, 1);
    }

    #[test]
    fn traffic_counts_fetches_and_writebacks() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x000, 1)); // fetch 4 words
        s.on_access(Access::load(0x400, 0)); // fetch 4, write back 4
        s.on_finish();
        assert_eq!(s.traffic_words(), 4 + 4 + 4);
    }

    #[test]
    fn write_through_updates_memory_immediately() {
        let mut s = sim(1024, 16, 1).with_write_policy(WritePolicy::WriteThrough);
        assert_eq!(s.write_policy(), WritePolicy::WriteThrough);
        // Store miss: no allocation, word goes straight to memory.
        s.on_access(Access::store(0x100, 5));
        assert_eq!(s.memory().words_in(), 1, "one word written through");
        assert_eq!(s.stats().fetches, 0, "no write-allocate");
        assert_eq!(s.memory().words_out(), 0);
        // Load brings the line in; a store hit updates both copies.
        s.on_access(Access::load(0x100, 5));
        assert_eq!(s.memory().words_out(), 4, "one 16-byte line fetched");
        s.on_access(Access::store(0x104, 6));
        assert_eq!(s.memory().words_in(), 2, "the hit is written through");
        s.on_finish();
        assert_eq!(s.memory().words_in(), 2, "nothing left to flush");
        assert_eq!(
            s.stats().writebacks,
            0,
            "write-through lines are never dirty"
        );
    }

    #[test]
    fn write_through_generates_more_traffic_than_write_back() {
        // The paper's premise for choosing write-back caches.
        let mut wb = sim(1024, 16, 1);
        let mut wt = sim(1024, 16, 1).with_write_policy(WritePolicy::WriteThrough);
        for i in 0..1000u32 {
            let addr = (i % 64) * 4;
            let access = Access::store(addr, i);
            wb.on_access(access);
            wt.on_access(access);
        }
        wb.on_finish();
        wt.on_finish();
        assert!(
            wt.traffic_words() > 3 * wb.traffic_words(),
            "write-through {} vs write-back {}",
            wt.traffic_words(),
            wb.traffic_words()
        );
    }

    #[test]
    fn classifier_integration() {
        let mut s = sim(64, 16, 1).with_classifier(); // 4 lines
        for &a in &[0x00u32, 0x40, 0x00, 0x40] {
            s.on_access(Access::load(a, 0));
        }
        let c = s.classifier().unwrap();
        assert_eq!(c.compulsory(), 2);
        assert_eq!(c.conflict(), 2); // FA with 4 lines would have kept both
        assert_eq!(s.stats().misses(), 4);
    }

    #[test]
    fn block_delivery_matches_per_event_delivery() {
        use fvl_mem::{PackedTrace, SimdLevel, Trace, TraceEvent};
        // A trace long enough to span several blocks, mixing hits,
        // misses, and dirty evictions across both write policies.
        let events: Vec<TraceEvent> = (0..500u32)
            .map(|i| {
                let addr = (i.wrapping_mul(52) % 4096) & !3;
                if i % 3 == 0 {
                    TraceEvent::Access(Access::store(addr, i))
                } else {
                    TraceEvent::Access(Access::load(addr, 0))
                }
            })
            .collect();
        let packed = PackedTrace::from_trace(&Trace::from_events(events));
        for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
            let mut scalar = sim(512, 16, 2).with_write_policy(policy);
            scalar.set_verify_values(false);
            packed.replay_into_with(SimdLevel::Scalar, &mut scalar);
            for level in SimdLevel::available() {
                let mut wide = sim(512, 16, 2).with_write_policy(policy);
                wide.set_verify_values(false);
                packed.replay_into_with(level, &mut wide);
                assert_eq!(wide.stats(), scalar.stats(), "{policy:?} {level:?}");
                assert_eq!(
                    wide.traffic_words(),
                    scalar.traffic_words(),
                    "{policy:?} {level:?}"
                );
            }
        }
    }

    /// A store-heavy trace over 8 conflicting lines in each of 4 sets of
    /// a 1 KiB cache of 16-byte lines (lines 1 KiB apart share a set).
    /// Values lean to 0 and all-ones, so value pinning finds pinnable
    /// lines; every load sees the latest store.
    fn conflict_trace() -> Vec<Access> {
        let mut shadow = std::collections::HashMap::new();
        let mut x: u32 = 0x2468_ace1;
        (0..6000)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let addr = (x >> 8) % 8 * 1024 + (x >> 12) % 4 * 16 + (x >> 16) % 4 * 4;
                if x >> 28 < 10 {
                    let value = match x >> 24 & 3 {
                        0 | 1 => 0,
                        2 => u32::MAX,
                        _ => x,
                    };
                    shadow.insert(addr, value);
                    Access::store(addr, value)
                } else {
                    Access::load(addr, shadow.get(&addr).copied().unwrap_or(0))
                }
            })
            .collect()
    }

    fn run_conflict_trace(
        assoc: u32,
        kind: ReplacementKind,
        policy: WritePolicy,
    ) -> (CacheStats, u64, u64) {
        let mut s = sim(1024, 16, assoc)
            .with_write_policy(policy)
            .with_replacement(kind);
        for access in conflict_trace() {
            s.on_access(access);
        }
        s.on_finish();
        (*s.stats(), s.memory().words_in(), s.memory().words_out())
    }

    #[test]
    fn direct_mapped_outcomes_do_not_depend_on_the_replacement_kind() {
        // What every kind gave when a 1-way cache still kept and
        // consulted its replacement state.
        let expected = |policy| match policy {
            WritePolicy::WriteBack => (
                CacheStats {
                    read_hits: 319,
                    read_misses: 1952,
                    write_hits: 458,
                    write_misses: 3271,
                    writebacks: 3435,
                    fetches: 5223,
                },
                13740,
                20892,
            ),
            WritePolicy::WriteThrough => (
                CacheStats {
                    read_hits: 304,
                    read_misses: 1967,
                    write_hits: 504,
                    write_misses: 3225,
                    writebacks: 0,
                    fetches: 1967,
                },
                3729,
                7868,
            ),
        };
        for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
            let lru = run_conflict_trace(1, ReplacementKind::Lru, policy);
            assert_eq!(lru, expected(policy), "{policy:?}");
            for kind in ReplacementKind::ALL {
                assert_eq!(
                    run_conflict_trace(1, kind, policy),
                    lru,
                    "{kind} {policy:?}"
                );
            }
            // The same trace tells the kinds apart at 2-way, so it does
            // give the policies decisions to make.
            let two_way: Vec<_> = ReplacementKind::ALL
                .iter()
                .map(|&kind| run_conflict_trace(2, kind, policy))
                .collect();
            assert!(two_way.iter().any(|r| *r != two_way[0]), "{policy:?}");
        }
    }

    #[test]
    fn stats_conservation() {
        let mut s = sim(512, 16, 2);
        let addrs: Vec<u32> = (0..200).map(|i| (i * 52) % 4096).map(|a| a & !3).collect();
        for (i, &a) in addrs.iter().enumerate() {
            if i % 3 == 0 {
                s.on_access(Access::store(a, i as u32));
            } else {
                // Loads with unknown ground truth: disable oracle.
                s.set_verify_values(false);
                s.on_access(Access::load(a, 0));
            }
        }
        assert_eq!(s.stats().accesses(), 200);
        assert_eq!(s.stats().hits() + s.stats().misses(), 200);
        assert_eq!(s.stats().fetches, s.stats().misses());
    }
}
