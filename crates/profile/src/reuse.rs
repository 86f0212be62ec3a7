//! Streaming reuse-distance profiling: the full miss-rate-vs-cache-size
//! curve in one trace walk.
//!
//! A fully associative LRU cache of capacity `C` lines hits an access
//! exactly when the access's *reuse distance* (distinct lines touched
//! since the last touch of its line) is below `C`. [`ReuseProfiler`]
//! feeds every line to one exact [`StackDistance`] engine as deep as the
//! largest capacity and histograms the distances by power-of-two
//! bucket, so the exact hit count at every capacity 2^l is a prefix sum
//! — the curve the `ext6` experiment cross-checks against `CacheSim`.
//! The engine's state is bounded, so the profiler streams over corpora
//! of any size (as an [`AccessSink`], fed by the out-of-core replay).

use fvl_cache::StackDistance;
use fvl_mem::{Access, AccessSink};

/// Capacities on the curve: 2^0 .. 2^10 lines, i.e. 32 B .. 32 KiB of
/// data at the default 32-byte line.
pub const TOWER_LEVELS: usize = 11;

/// Line size (bytes) the profiler measures at — the paper's DMC line
/// size.
pub const DEFAULT_LINE_BYTES: u32 = 32;

/// One point of a [`MissCurve`]: the exact fully-associative-LRU hit
/// and miss counts at one cache size.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CurvePoint {
    /// Cache capacity in lines (a power of two).
    pub capacity_lines: u64,
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Accesses whose reuse distance was below the capacity.
    pub hits: u64,
    /// Accesses that would miss (including cold misses).
    pub misses: u64,
    /// `misses / (hits + misses)`, 0 for an empty trace.
    pub miss_rate: f64,
}

/// The miss-rate-vs-cache-size curve extracted from one
/// [`ReuseProfiler`] pass, smallest capacity first.
#[derive(Clone, Debug, PartialEq)]
pub struct MissCurve {
    /// Line size the curve was measured at.
    pub line_bytes: u32,
    /// Total accesses profiled.
    pub accesses: u64,
    /// One point per capacity 2^0 .. 2^([`TOWER_LEVELS`]-1) lines,
    /// ascending.
    pub points: Vec<CurvePoint>,
}

/// Streaming reuse-distance profiler: one [`StackDistance`] engine
/// and a per-capacity distance histogram (see the module docs).
///
/// # Example
///
/// ```
/// use fvl_mem::{Access, AccessSink};
/// use fvl_profile::ReuseProfiler;
///
/// let mut profiler = ReuseProfiler::new();
/// // Round-robin over 2 lines: everything hits once capacity >= 2.
/// for i in 0..100u32 {
///     profiler.on_access(Access::load((i % 2) * 32, 0));
/// }
/// let curve = profiler.curve();
/// assert_eq!(curve.points[0].hits, 0); // capacity 1: always thrashing
/// assert_eq!(curve.points[1].misses, 2); // capacity 2: cold misses only
/// ```
#[derive(Debug)]
pub struct ReuseProfiler {
    lru: StackDistance,
    /// `by_level[l]`: accesses that first hit at capacity 2^l, i.e.
    /// whose distance is below 2^l but not below 2^(l-1). The last
    /// bucket holds the accesses that miss at every capacity.
    by_level: [u64; TOWER_LEVELS + 1],
}

impl ReuseProfiler {
    /// An empty profiler over capacities 2^0 .. 2^([`TOWER_LEVELS`]-1)
    /// lines of [`DEFAULT_LINE_BYTES`] bytes (32 B .. 32 KiB).
    pub fn new() -> ReuseProfiler {
        ReuseProfiler {
            lru: StackDistance::new(1 << (TOWER_LEVELS - 1)),
            by_level: [0; TOWER_LEVELS + 1],
        }
    }

    /// Hits a fully associative LRU cache of 2^`level` lines would have
    /// scored.
    pub fn hits(&self, level: usize) -> u64 {
        self.by_level[..=level].iter().sum()
    }

    /// Misses at 2^`level` lines (including cold misses).
    pub fn misses(&self, level: usize) -> u64 {
        self.by_level[level + 1..].iter().sum()
    }

    /// Extracts the full miss-rate-vs-cache-size curve.
    pub fn curve(&self) -> MissCurve {
        let accesses = self.by_level.iter().sum();
        MissCurve {
            line_bytes: DEFAULT_LINE_BYTES,
            accesses,
            points: (0..TOWER_LEVELS)
                .map(|l| CurvePoint {
                    capacity_lines: 1 << l,
                    capacity_bytes: u64::from(DEFAULT_LINE_BYTES) << l,
                    hits: self.hits(l),
                    misses: self.misses(l),
                    miss_rate: match accesses {
                        0 => 0.0,
                        n => self.misses(l) as f64 / n as f64,
                    },
                })
                .collect(),
        }
    }
}

impl Default for ReuseProfiler {
    fn default() -> Self {
        ReuseProfiler::new()
    }
}

impl AccessSink for ReuseProfiler {
    fn on_access(&mut self, access: Access) {
        // Distance d hits at every capacity 2^l > d, the smallest
        // being l = bit length of d.
        let level = match self.lru.access(access.addr / DEFAULT_LINE_BYTES) {
            Some(d) => (u32::BITS - d.leading_zeros()) as usize,
            None => TOWER_LEVELS,
        };
        self.by_level[level] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact reuse-distance oracle: full LRU stack as a Vec, one
    /// distance per access (`None` on a first touch).
    fn oracle_distances(lines: &[u32]) -> Vec<Option<usize>> {
        let mut stack: Vec<u32> = Vec::new();
        lines
            .iter()
            .map(|&line| {
                let depth = stack.iter().position(|&l| l == line);
                if let Some(depth) = depth {
                    stack.remove(depth);
                }
                stack.insert(0, line);
                depth
            })
            .collect()
    }

    fn profile(lines: &[u32]) -> ReuseProfiler {
        let mut p = ReuseProfiler::new();
        for &line in lines {
            p.on_access(Access::load(line * 32, 0));
        }
        p
    }

    #[test]
    fn matches_the_stack_distance_oracle() {
        // Mixed locality: sequential sweeps, hot loop, random jumps over
        // more lines than the largest capacity, long enough for the
        // engine to compact and evict.
        let mut lines = Vec::new();
        let mut x = 7u32;
        for i in 0..6000u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            lines.push(match i % 4 {
                0 => i % 40,          // sweep
                1 => x % 8,           // hot set
                2 => (x >> 8) % 3000, // wide set
                _ => (i / 2) % 17,    // strided
            });
        }
        let p = profile(&lines);
        let distances = oracle_distances(&lines);
        for level in 0..TOWER_LEVELS {
            let hits = distances
                .iter()
                .flatten()
                .filter(|&&d| d < 1 << level)
                .count();
            assert_eq!(p.hits(level), hits as u64, "capacity {}", 1 << level);
        }
    }

    #[test]
    fn hits_grow_monotonically_with_capacity() {
        let lines: Vec<u32> = (0..500u32).map(|i| (i * i) % 61).collect();
        let p = profile(&lines);
        for level in 1..TOWER_LEVELS {
            assert!(p.hits(level) >= p.hits(level - 1), "level {level}");
        }
        let curve = p.curve();
        assert_eq!(curve.accesses, 500);
        assert_eq!(curve.points.len(), TOWER_LEVELS);
        assert_eq!(curve.points[0].capacity_bytes, 32);
        for w in curve.points.windows(2) {
            assert!(w[1].miss_rate <= w[0].miss_rate);
            assert_eq!(w[1].capacity_lines, w[0].capacity_lines * 2);
        }
    }

    #[test]
    fn line_granularity_folds_words_onto_one_line() {
        let mut p = ReuseProfiler::new();
        // 8 consecutive words = one 32-byte line: only one cold miss.
        for w in 0..8u32 {
            p.on_access(Access::store(w * 4, w));
        }
        assert_eq!(p.misses(0), 1);
        assert_eq!(p.hits(0), 7);
    }

    #[test]
    fn empty_profile_has_zero_rates() {
        let curve = ReuseProfiler::new().curve();
        assert_eq!(curve.accesses, 0);
        assert_eq!(curve.points[0].miss_rate, 0.0);
        assert_eq!(curve.points[TOWER_LEVELS - 1].misses, 0);
    }
}
