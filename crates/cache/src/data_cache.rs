//! Set-associative write-back cache state: tags, dirty bits and
//! pluggable replacement, with no line data.

use crate::backing::MainMemory;
use crate::geometry::CacheGeometry;
use crate::replacement::{Replacement, ReplacementKind, ReplacementPolicy};
use fvl_mem::{Addr, Word};
use std::fmt;

/// Tag of an empty way. Line addresses are word aligned, so no valid
/// line address has bit 0 set.
const EMPTY: Addr = 1;

/// The first way of `ways` holding `tag`. Wide sets (fully-associative
/// geometries) are compared 16 tags at a time into a bit mask, a loop
/// without early exit that compiles to vector compares.
#[inline]
fn find(ways: &[Addr], tag: Addr) -> Option<usize> {
    if ways.len() < 16 {
        return ways.iter().position(|&t| t == tag);
    }
    ways.chunks_exact(16).enumerate().find_map(|(chunk, tags)| {
        let hits = tags
            .iter()
            .enumerate()
            .fold(0u32, |mask, (i, &t)| mask | u32::from(t == tag) << i);
        (hits != 0).then(|| chunk * 16 + hits.trailing_zeros() as usize)
    })
}

/// Loads the words of `line_addr` from `image` into a policy-hook
/// buffer, if the policy inspects contents (else the buffer is empty).
#[inline]
fn gather(contents: &mut [Word], line_addr: Addr, image: &MainMemory) {
    if !contents.is_empty() {
        image.peek_line(line_addr, contents);
    }
}

/// The tag and dirty bit of a line leaving (or resident in) a
/// [`DataCache`]: everything a controller needs to count its
/// write-back or forward it to a frequent value cache, whose words it
/// reads from the architectural image.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct LineTag {
    /// Address of the first byte of the line.
    pub line_addr: Addr,
    /// Whether the line was modified since it was fetched.
    pub dirty: bool,
}

/// A line handed to or taken from a [`crate::VictimCache`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct EvictedLine {
    /// Address of the first byte of the line.
    pub line_addr: Addr,
    /// Whether the line was modified since it was fetched.
    pub dirty: bool,
    /// The line's words when the caller models them; empty for the
    /// tag-only controllers, which read words from the image.
    pub data: Vec<Word>,
}

/// The tag/dirty/replacement state machine of a set-associative cache,
/// with victim selection delegated to a [`ReplacementKind`] policy
/// (true LRU by default — see [`crate::replacement`] for the zoo).
///
/// It stores no line data. In a single-level write-back cache a
/// resident line always holds the architectural value of its words, so
/// hits, misses and traffic depend only on tags and dirty bits; the
/// controllers keep the values in one [`MainMemory`] image and hand it
/// in where contents matter (the [`ReplacementKind::PinnedLru`] hooks).
/// Tags are stored struct-of-arrays, so a probe scans a dense `u32`
/// column — the whole cache for a fully-associative geometry.
///
/// A direct-mapped cache (associativity 1) builds no replacement
/// policy: its set has one way, which is always the victim, so no
/// policy state can change an outcome. A probe is one tag compare,
/// [`DataCache::touch`] does nothing, [`DataCache::write`] only sets
/// the dirty bit and [`DataCache::install`] swaps the tag.
/// [`DataCache::replacement`] still reports the configured kind.
///
/// `DataCache` never talks to memory itself. Controllers
/// ([`crate::CacheSim`], the hybrid controllers in `fvl-core`) decide
/// when to fetch, install and write back, which keeps each policy in
/// exactly one place.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, DataCache, MainMemory};
///
/// let image = MainMemory::new();
/// let mut dmc = DataCache::new(CacheGeometry::new(1024, 16, 1)?);
/// assert!(dmc.probe(0x40).is_none());
/// let (slot, evicted) = dmc.install(0x40, false, &image);
/// assert!(evicted.is_none());
/// assert_eq!(dmc.probe(0x44), Some(slot));
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
#[derive(Clone)]
pub struct DataCache {
    geom: CacheGeometry,
    /// log2 of the associativity: slot = set << way_shift | way.
    way_shift: u32,
    /// Line address per slot (set-major), [`EMPTY`] for an invalid way.
    tags: Vec<Addr>,
    dirty: Vec<bool>,
    kind: ReplacementKind,
    /// The replacement state; `None` for a direct-mapped cache.
    policy: Option<Replacement>,
    /// Buffer for the line words a content-sensitive policy reads from
    /// the image; empty (and never filled) for every other policy.
    contents: Vec<Word>,
}

impl DataCache {
    /// Creates an empty (all-invalid) cache of the given geometry with
    /// the default true-LRU replacement policy.
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_replacement(geom, ReplacementKind::Lru)
    }

    /// Creates an empty cache of the given geometry using the given
    /// replacement policy.
    pub fn with_replacement(geom: CacheGeometry, kind: ReplacementKind) -> Self {
        let lines = geom.lines() as usize;
        let policy = (geom.associativity() > 1).then(|| kind.build(&geom));
        let contents = match (kind, &policy) {
            (ReplacementKind::PinnedLru, Some(_)) => vec![0; geom.words_per_line() as usize],
            _ => Vec::new(),
        };
        DataCache {
            geom,
            way_shift: geom.associativity().trailing_zeros(),
            tags: vec![EMPTY; lines],
            dirty: vec![false; lines],
            kind,
            policy,
            contents,
        }
    }

    /// The cache's organization.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The configured replacement policy.
    pub fn replacement(&self) -> ReplacementKind {
        self.kind
    }

    /// Splits a global slot index back into the (set, way) coordinates
    /// the replacement policy speaks.
    #[inline]
    fn set_way(&self, slot: usize) -> (u32, u32) {
        let way_mask = (1 << self.way_shift) - 1;
        ((slot >> self.way_shift) as u32, (slot & way_mask) as u32)
    }

    /// Looks up the line containing `addr`. Returns an opaque slot index
    /// on hit. Does **not** update LRU state; call [`DataCache::touch`]
    /// when the probe corresponds to a real access.
    #[inline]
    pub fn probe(&self, addr: Addr) -> Option<usize> {
        self.probe_at(self.geom.set_index(addr), self.geom.line_addr(addr))
    }

    /// [`DataCache::probe`] with the address already split: `set` and
    /// `line_addr` as produced by
    /// [`CacheGeometry::split_block`](crate::CacheGeometry::split_block),
    /// so the wide replay path pays the index extraction once per block
    /// instead of once per probe.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range for the geometry.
    #[inline]
    pub fn probe_at(&self, set: u32, line_addr: Addr) -> Option<usize> {
        let start = (set as usize) << self.way_shift;
        if self.way_shift == 0 {
            return (self.tags[start] == line_addr).then_some(start);
        }
        find(&self.tags[start..start + (1 << self.way_shift)], line_addr).map(|way| start + way)
    }

    /// Reports the hit in `slot` to the replacement policy (most-
    /// recently-used promotion under LRU-family policies).
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        let (set, way) = self.set_way(slot);
        if let Some(policy) = &mut self.policy {
            policy.touch(set, way);
        }
    }

    /// Records a store into the resident line in `slot`: marks it dirty
    /// and lets a content-sensitive policy re-read the line from
    /// `image`, which must already hold the stored word.
    #[inline]
    pub fn write(&mut self, slot: usize, image: &MainMemory) {
        debug_assert_ne!(self.tags[slot], EMPTY, "write to an invalid line");
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: the dirty bit is dropped, so modified
        // lines are silently discarded instead of written back.
        #[cfg(not(feature = "seeded-bugs"))]
        {
            self.dirty[slot] = true;
        }
        let (set, way) = self.set_way(slot);
        if let Some(policy) = &mut self.policy {
            gather(&mut self.contents, self.tags[slot], image);
            policy.write(set, way, &self.contents);
        }
    }

    /// Installs a line, evicting the policy's chosen victim if the set
    /// is full. Returns the line's slot and the evicted line (valid
    /// victims only). A content-sensitive policy reads the new line's
    /// words from `image`.
    ///
    /// Invalid ways are always filled first, lowest index first; the
    /// replacement policy only picks among full sets. This rule is part
    /// of the [`crate::replacement`] contract the conformance oracle
    /// mirrors.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` is not a line address, or if the line is
    /// already resident (installing a duplicate would break the
    /// one-copy invariant).
    pub fn install(
        &mut self,
        line_addr: Addr,
        dirty: bool,
        image: &MainMemory,
    ) -> (usize, Option<LineTag>) {
        assert_eq!(
            line_addr,
            self.geom.line_addr(line_addr),
            "not a line address"
        );
        let set = self.geom.set_index(line_addr);
        assert!(
            self.probe_at(set, line_addr).is_none(),
            "line {line_addr:#x} already resident"
        );
        let start = (set as usize) << self.way_shift;
        // Fill the lowest-index invalid way first, else ask the policy;
        // a direct-mapped set's only way is both.
        let way = match &mut self.policy {
            None => 0,
            Some(policy) => match find(&self.tags[start..start + (1 << self.way_shift)], EMPTY) {
                Some(way) => way as u32,
                None => {
                    let way = policy.victim(set);
                    assert!(
                        way < self.geom.associativity(),
                        "policy picked way {way} of {}",
                        self.geom.associativity()
                    );
                    way
                }
            },
        };
        let slot = start + way as usize;
        let evicted = (self.tags[slot] != EMPTY).then(|| LineTag {
            line_addr: self.tags[slot],
            dirty: self.dirty[slot],
        });
        self.tags[slot] = line_addr;
        self.dirty[slot] = dirty;
        if let Some(policy) = &mut self.policy {
            gather(&mut self.contents, line_addr, image);
            policy.fill(set, way, line_addr, &self.contents);
        }
        (slot, evicted)
    }

    /// Clears the dirty bit of the line in `slot` (write-through mode
    /// keeps lines clean because memory was updated in the same cycle).
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    pub fn clean(&mut self, slot: usize) {
        assert_ne!(self.tags[slot], EMPTY, "clean on invalid line");
        self.dirty[slot] = false;
    }

    /// Removes and returns the line in `slot` (used for victim-cache
    /// swaps).
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    pub fn take(&mut self, slot: usize) -> LineTag {
        let line_addr = std::mem::replace(&mut self.tags[slot], EMPTY);
        assert_ne!(line_addr, EMPTY, "take on invalid line");
        let (set, way) = self.set_way(slot);
        if let Some(policy) = &mut self.policy {
            policy.invalidate(set, way);
        }
        LineTag {
            line_addr,
            dirty: self.dirty[slot],
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u32 {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count() as u32
    }

    /// Iterates over all valid lines.
    pub fn iter_valid(&self) -> impl Iterator<Item = LineTag> + '_ {
        self.tags
            .iter()
            .zip(&self.dirty)
            .filter(|&(&tag, _)| tag != EMPTY)
            .map(|(&line_addr, &dirty)| LineTag { line_addr, dirty })
    }

    /// Drains every valid line (end-of-simulation flush). The cache is
    /// left empty.
    pub fn drain(&mut self) -> Vec<LineTag> {
        let mut out = Vec::new();
        for slot in 0..self.tags.len() {
            if self.tags[slot] != EMPTY {
                out.push(self.take(slot));
            }
        }
        out
    }
}

impl fmt::Debug for DataCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataCache")
            .field("geometry", &self.geom)
            .field("replacement", &self.kind)
            .field("valid_lines", &self.valid_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_1k() -> DataCache {
        DataCache::new(CacheGeometry::new(1024, 16, 1).unwrap())
    }

    #[test]
    fn probe_miss_then_install_then_hit() {
        let image = MainMemory::new();
        let mut c = dm_1k();
        assert!(c.probe(0x100).is_none());
        let (slot, evicted) = c.install(0x100, false, &image);
        assert!(evicted.is_none());
        assert_eq!(c.probe(0x108), Some(slot));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn wide_sets_find_the_first_matching_way() {
        for len in [1usize, 15, 16, 64, 1024] {
            let mut ways = vec![EMPTY; len];
            assert_eq!(find(&ways, 0x40), None, "{len}");
            assert_eq!(find(&ways, EMPTY), Some(0), "{len}");
            ways[len - 1] = 0x40;
            assert_eq!(find(&ways, 0x40), Some(len - 1), "{len}");
            ways[len / 2] = 0x40;
            assert_eq!(find(&ways, 0x40), Some(len / 2), "{len}");
        }
    }

    #[test]
    fn probe_at_matches_probe() {
        let image = MainMemory::new();
        let mut c = DataCache::new(CacheGeometry::new(512, 16, 2).unwrap());
        c.install(0x100, false, &image);
        c.install(0x300, true, &image);
        let g = *c.geometry();
        for addr in (0u32..0x500).step_by(4) {
            assert_eq!(
                c.probe(addr),
                c.probe_at(g.set_index(addr), g.line_addr(addr)),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn conflicting_install_evicts_and_reports() {
        let image = MainMemory::new();
        let mut c = dm_1k();
        let (slot, _) = c.install(0x100, false, &image);
        c.write(slot, &image);
        // 0x100 + 1024 maps to the same set in a 1KB DM cache.
        let (_, evicted) = c.install(0x100 + 1024, false, &image);
        assert_eq!(
            evicted,
            Some(LineTag {
                line_addr: 0x100,
                dirty: true
            })
        );
        assert!(c.probe(0x100).is_none());
        assert!(c.probe(0x100 + 1024).is_some());
    }

    #[test]
    fn lru_evicts_least_recent_in_set() {
        let image = MainMemory::new();
        // 64B 2-way: two sets; 0x00, 0x40 and 0x80 all map to set 0.
        let mut c = DataCache::new(CacheGeometry::new(64, 16, 2).unwrap());
        c.install(0x00, false, &image);
        c.install(0x40, false, &image);
        let s0 = c.geometry().set_index(0x00);
        let s1 = c.geometry().set_index(0x40);
        assert_eq!(s0, s1, "test assumes same set");
        // Touch 0x00 so 0x40 becomes LRU.
        let slot = c.probe(0x00).unwrap();
        c.touch(slot);
        let (_, evicted) = c.install(0x80, false, &image);
        assert_eq!(evicted.unwrap().line_addr, 0x40);
        assert!(c.probe(0x00).is_some());
    }

    #[test]
    fn write_marks_dirty_and_clean_clears_it() {
        let image = MainMemory::new();
        let mut c = dm_1k();
        let (slot, _) = c.install(0x200, false, &image);
        assert!(!c.iter_valid().next().unwrap().dirty);
        c.write(slot, &image);
        assert!(c.iter_valid().next().unwrap().dirty);
        c.clean(slot);
        assert!(!c.iter_valid().next().unwrap().dirty);
    }

    #[test]
    fn take_removes_line() {
        let image = MainMemory::new();
        let mut c = dm_1k();
        let (slot, _) = c.install(0x300, true, &image);
        let line = c.take(slot);
        assert_eq!(line.line_addr, 0x300);
        assert!(line.dirty);
        assert!(c.probe(0x300).is_none());
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn drain_empties_cache() {
        let image = MainMemory::new();
        let mut c = dm_1k();
        c.install(0x000, false, &image);
        c.install(0x010, true, &image);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(c.valid_lines(), 0);
        assert!(c.drain().is_empty());
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn duplicate_install_panics() {
        let image = MainMemory::new();
        let mut c = dm_1k();
        c.install(0x100, false, &image);
        c.install(0x100, false, &image);
    }

    #[test]
    #[should_panic(expected = "not a line address")]
    fn unaligned_install_panics() {
        let mut c = dm_1k();
        c.install(0x104, false, &MainMemory::new());
    }
}
