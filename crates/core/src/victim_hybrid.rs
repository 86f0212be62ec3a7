//! A DMC + victim-cache controller (Jouppi), the paper's Figure 15
//! comparison baseline.

use fvl_cache::{
    CacheGeometry, CacheStats, DataCache, EvictedLine, LineTag, MainMemory, Simulator, VictimCache,
};
use fvl_mem::{Access, AccessKind, AccessSink};
use std::fmt;

/// A write-back direct-mapped (or set-associative) cache backed by a
/// small fully-associative victim cache with swap-on-hit.
///
/// On a main-cache miss that hits in the victim cache the two lines are
/// swapped, which the paper (following Jouppi) counts as a hit: the data
/// was on chip and no off-chip fetch occurs.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, Simulator};
/// use fvl_core::VictimHybrid;
/// use fvl_mem::{Access, AccessSink};
///
/// let mut sim = VictimHybrid::new(CacheGeometry::new(4096, 32, 1)?, 4);
/// sim.on_access(Access::load(0x0, 0));
/// sim.on_access(Access::load(0x1000, 0)); // conflicts, evicts into VC
/// sim.on_access(Access::load(0x0, 0));    // VC hit: swap back
/// assert_eq!(sim.stats().hits(), 1);
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
pub struct VictimHybrid {
    dmc: DataCache,
    vc: VictimCache,
    memory: MainMemory,
    stats: CacheStats,
    vc_hits: u64,
    verify: bool,
    flushed: bool,
}

impl VictimHybrid {
    /// Creates a hybrid of a main cache of geometry `geom` and a
    /// fully-associative victim cache of `vc_entries` lines.
    ///
    /// # Panics
    ///
    /// Panics if `vc_entries` is zero.
    pub fn new(geom: CacheGeometry, vc_entries: usize) -> Self {
        VictimHybrid {
            dmc: DataCache::new(geom),
            vc: VictimCache::new(vc_entries, geom.words_per_line()),
            memory: MainMemory::new(),
            stats: CacheStats::new(),
            vc_hits: 0,
            verify: true,
            flushed: false,
        }
    }

    /// Disables the load-value oracle.
    pub fn set_verify_values(&mut self, verify: bool) {
        self.verify = verify;
    }

    /// Hits served by the victim cache.
    pub fn vc_hits(&self) -> u64 {
        self.vc_hits
    }

    /// The victim cache (for inspection).
    pub fn victim_cache(&self) -> &VictimCache {
        &self.vc
    }

    /// The backing memory: the architectural image and the traffic
    /// counters.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    fn write_back(&mut self, dirty: bool) {
        if dirty {
            let wpl = self.dmc.geometry().words_per_line();
            self.memory.count_write_back(u64::from(wpl));
            self.stats.writebacks += 1;
        }
    }

    /// Flushes all dirty state to memory.
    pub fn flush(&mut self) {
        for line in self.dmc.drain() {
            self.write_back(line.dirty);
        }
        for line in self.vc.drain() {
            self.write_back(line.dirty);
        }
    }

    fn serve(&mut self, access: Access, slot: usize) {
        self.dmc.touch(slot);
        match access.kind {
            AccessKind::Load => {
                if self.verify {
                    let value = self.memory.peek(access.addr);
                    assert_eq!(
                        value, access.value,
                        "victim hybrid returned {value:#x}, trace expects {:#x} at {:#x}",
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

    /// Moves a line displaced from the DMC into the victim cache,
    /// writing back whatever the victim cache displaces in turn.
    fn insert_into_vc(&mut self, evicted: Option<LineTag>) {
        let Some(line) = evicted else { return };
        let displaced = self.vc.insert(EvictedLine {
            line_addr: line.line_addr,
            dirty: line.dirty,
            data: Vec::new(),
        });
        if let Some(displaced) = displaced {
            self.write_back(displaced.dirty);
        }
    }

    fn handle(&mut self, access: Access) {
        let addr = access.addr;
        if let Some(slot) = self.dmc.probe(addr) {
            match access.kind {
                AccessKind::Load => self.stats.read_hits += 1,
                AccessKind::Store => self.stats.write_hits += 1,
            }
            self.dmc.touch(slot);
            match access.kind {
                AccessKind::Load => {
                    if self.verify {
                        let value = self.memory.peek(addr);
                        assert_eq!(value, access.value, "DMC value mismatch at {addr:#x}");
                    }
                }
                AccessKind::Store => {
                    self.memory.poke(addr, access.value);
                    self.dmc.write(slot, &self.memory);
                }
            }
            return;
        }
        if let Some(vslot) = self.vc.probe(addr) {
            // Swap: the VC line enters the DMC, the displaced DMC line
            // (if any) takes its place in the VC. Counted as a hit.
            self.vc_hits += 1;
            match access.kind {
                AccessKind::Load => self.stats.read_hits += 1,
                AccessKind::Store => self.stats.write_hits += 1,
            }
            let line = self.vc.take(vslot);
            let (slot, evicted) = self.dmc.install(line.line_addr, line.dirty, &self.memory);
            self.insert_into_vc(evicted);
            self.serve(access, slot);
            return;
        }
        // Miss everywhere: fetch, install, displaced line -> VC.
        match access.kind {
            AccessKind::Load => self.stats.read_misses += 1,
            AccessKind::Store => self.stats.write_misses += 1,
        }
        let line_addr = self.dmc.geometry().line_addr(addr);
        let wpl = self.dmc.geometry().words_per_line();
        self.memory.count_fetch(u64::from(wpl));
        self.stats.fetches += 1;
        let (slot, evicted) = self.dmc.install(line_addr, false, &self.memory);
        self.insert_into_vc(evicted);
        self.serve(access, slot);
    }
}

impl AccessSink for VictimHybrid {
    #[inline]
    fn on_access(&mut self, access: Access) {
        #[cfg(feature = "metrics")]
        crate::metrics::VICTIM_HYBRID_DISPATCHES.incr();
        self.handle(access);
    }

    fn on_finish(&mut self) {
        if !self.flushed {
            self.flushed = true;
            self.flush();
        }
    }
}

impl Simulator for VictimHybrid {
    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn traffic_words(&self) -> u64 {
        self.memory.total_traffic_words()
    }

    fn label(&self) -> String {
        format!("{} + {}-entry VC", self.dmc.geometry(), self.vc.capacity())
    }
}

impl fmt::Debug for VictimHybrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VictimHybrid")
            .field("dmc", &self.dmc)
            .field("vc", &self.vc)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vh() -> VictimHybrid {
        // 1KB DM cache, 32B lines: conflicts 1KB apart; 4-entry VC.
        VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 4)
    }

    #[test]
    fn ping_pong_conflict_is_absorbed_by_vc() {
        let mut h = vh();
        let a = 0x100u32;
        let b = a + 1024;
        h.on_access(Access::load(a, 0));
        h.on_access(Access::load(b, 0));
        for _ in 0..10 {
            h.on_access(Access::load(a, 0));
            h.on_access(Access::load(b, 0));
        }
        assert_eq!(h.stats().misses(), 2, "only the two cold misses");
        assert_eq!(h.vc_hits(), 20);
    }

    #[test]
    fn dirty_data_survives_swap_cycles() {
        let mut h = vh();
        let a = 0x100u32;
        let b = a + 1024;
        h.on_access(Access::store(a, 7));
        h.on_access(Access::store(b, 9));
        h.on_access(Access::load(a, 7)); // swapped back from VC, dirty intact
        h.on_access(Access::load(b, 9));
        assert_eq!(h.stats().writebacks, 0, "both lines still on chip");
        h.on_finish();
        // Both lines were dirtied once and swapped twice; a dirty bit
        // lost on a swap would skip its write-back here.
        assert_eq!(h.stats().writebacks, 2);
        assert_eq!(h.memory().words_in(), 16);
        assert_eq!(h.memory().words_out(), 16, "two cold fetches");
    }

    #[test]
    fn vc_overflow_writes_back_dirty_lines() {
        let mut h = vh();
        // Dirty six conflicting lines; VC holds 4.
        for i in 0..6u32 {
            h.on_access(Access::store(0x100 + i * 1024, i));
        }
        // One line in the DMC, four in the VC: line 0 fell out dirty.
        assert_eq!(h.stats().writebacks, 1);
        assert_eq!(h.memory().words_in(), 8);
        h.on_finish();
        assert_eq!(h.stats().writebacks, 6, "every dirty line written once");
        assert_eq!(h.memory().words_in(), 48);
    }

    #[test]
    fn capacity_miss_stream_gets_no_vc_benefit() {
        let mut h = vh();
        // 64 distinct lines cycled twice; 1KB cache (32 lines) + 4 VC
        // entries cannot hold them.
        for _ in 0..2 {
            for i in 0..64u32 {
                h.on_access(Access::load(i * 1024, 0));
            }
        }
        assert_eq!(h.vc_hits(), 0);
        assert_eq!(h.stats().misses(), 128);
    }

    #[test]
    fn label_and_traffic() {
        let mut h = vh();
        h.on_access(Access::load(0x0, 0));
        h.on_finish();
        assert_eq!(h.label(), "1KB direct-mapped (32B lines) + 4-entry VC");
        assert_eq!(h.traffic_words(), 8);
    }
}
