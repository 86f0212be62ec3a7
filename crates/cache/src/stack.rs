//! Exact, bounded LRU stack distances.
//!
//! A fully associative LRU cache of `C` lines hits exactly the accesses
//! whose stack distance — distinct lines touched since the previous
//! touch of the same line — is below `C` (Mattson et al.).
//! [`StackDistance`] uses Olken's method: each live line sits at the
//! slot of its latest touch, slots are handed out in time order, and a
//! Fenwick tree over the slots counts the live lines after any slot.
//! Only the `depth` most recent lines stay live and the slots are
//! compacted when they run out, so memory is O(depth) for any trace.

use std::collections::HashMap;
use std::fmt;

/// Exact LRU stack-distance engine over the `depth` most recent lines.
///
/// # Example
///
/// ```
/// use fvl_cache::StackDistance;
///
/// let mut lru = StackDistance::new(2);
/// assert_eq!(lru.access(7), None); // first touch
/// assert_eq!(lru.access(9), None);
/// assert_eq!(lru.access(7), Some(1)); // line 9 was touched in between
/// assert_eq!(lru.access(5), None);
/// assert_eq!(lru.access(9), None); // distance 2: beyond depth 2
/// ```
#[derive(Clone)]
pub struct StackDistance {
    depth: usize,
    /// Line -> slot of its latest touch, for every live line.
    slot_of: HashMap<u32, u32>,
    /// Slot -> line touched there; `None` once that line was touched
    /// again or evicted. Its length is the next free slot.
    lines: Vec<Option<u32>>,
    /// 1-based Fenwick tree over the `2 * depth + 1` slots: 1 at every
    /// live slot.
    tree: Vec<u32>,
}

impl StackDistance {
    /// An empty engine that resolves distances below `depth`.
    ///
    /// # Panics
    ///
    /// Panics unless `depth` is in `1..2^31`.
    pub fn new(depth: usize) -> StackDistance {
        assert!((1..1 << 31).contains(&depth), "stack depth out of range");
        StackDistance {
            depth,
            slot_of: HashMap::with_capacity(depth + 1),
            lines: Vec::with_capacity(2 * depth + 1),
            tree: vec![0; 2 * depth + 2],
        }
    }

    /// Touches `line` and returns its stack distance: the number of
    /// distinct lines touched since its previous touch. `None` on a
    /// first touch or when that count is `depth` or more.
    pub fn access(&mut self, line: u32) -> Option<u32> {
        if self.lines.len() + 1 == self.tree.len() {
            self.compact();
        }
        let slot = self.lines.len() as u32;
        self.lines.push(Some(line));
        let distance = self.slot_of.insert(line, slot).map(|old| {
            // `seeded-bugs` is a TEST-ONLY mutation used by the
            // `fvl-check` conformance harness: the line's own old slot
            // is counted as touched after it, one too far.
            #[cfg(feature = "seeded-bugs")]
            let through_old = self.live_before(old);
            #[cfg(not(feature = "seeded-bugs"))]
            let through_old = self.live_before(old + 1);
            self.lines[old as usize] = None;
            self.add(old, u32::MAX);
            self.slot_of.len() as u32 - through_old
        });
        self.add(slot, 1);
        if self.slot_of.len() > self.depth {
            self.evict_oldest();
        }
        distance
    }

    /// Adds `delta` (wrapping, so `u32::MAX` subtracts one) at `slot`.
    fn add(&mut self, slot: u32, delta: u32) {
        let mut i = slot as usize + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Live lines in slots `0..end`.
    fn live_before(&self, end: u32) -> u32 {
        let (mut i, mut sum) = (end as usize, 0);
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Drops the least recently touched line: the first live slot,
    /// found by descending the tree past all-empty prefixes.
    fn evict_oldest(&mut self) {
        let mut before = 0;
        let mut step = self.tree.len().next_power_of_two();
        while step > 0 {
            if before + step < self.tree.len() && self.tree[before + step] == 0 {
                before += step;
            }
            step >>= 1;
        }
        let victim = self.lines[before].take().expect("a live line exists");
        self.add(before as u32, u32::MAX);
        self.slot_of.remove(&victim);
    }

    /// Moves the live lines into slots `0..live`, oldest first, and
    /// rebuilds the tree: node `i` covers slots `i - lowbit(i)..i`.
    fn compact(&mut self) {
        let mut live = 0;
        for read in 0..self.lines.len() {
            if let Some(line) = self.lines[read] {
                self.lines[live] = Some(line);
                *self.slot_of.get_mut(&line).expect("live lines are mapped") = live as u32;
                live += 1;
            }
        }
        self.lines.truncate(live);
        for (i, node) in self.tree.iter_mut().enumerate().skip(1) {
            *node = i.min(live).saturating_sub(i - (i & i.wrapping_neg())) as u32;
        }
    }
}

impl fmt::Debug for StackDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StackDistance")
            .field("depth", &self.depth)
            .field("live", &self.slot_of.len())
            .finish()
    }
}

#[cfg(all(test, not(feature = "seeded-bugs")))]
mod tests {
    use super::*;

    /// The textbook LRU stack — a `Vec`, most recent line first — and
    /// the unbounded distance of every access.
    fn oracle(lines: &[u32]) -> Vec<Option<u32>> {
        let mut stack: Vec<u32> = Vec::new();
        lines
            .iter()
            .map(|&line| {
                let found = stack.iter().position(|&l| l == line);
                if let Some(at) = found {
                    stack.remove(at);
                }
                stack.insert(0, line);
                found.map(|d| d as u32)
            })
            .collect()
    }

    /// Phases of `3 * depth + 3` accesses: a loop over `depth` lines
    /// (distance exactly `depth - 1`), a loop over `depth + 1` lines
    /// (distance exactly `depth`), then random lines from a pool shared
    /// across phases.
    fn trace(depth: u32, len: u32) -> Vec<u32> {
        let mut x = 0x9e37_79b9u32;
        (0..len)
            .map(|i| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let phase = i / (3 * depth + 3);
                let base = 1_000_000 + phase * 1_000;
                match phase % 3 {
                    0 => base + i % depth,
                    1 => base + i % (depth + 1),
                    _ => (x >> 8) % (4 * depth + 4),
                }
            })
            .collect()
    }

    #[test]
    fn matches_the_vec_stack_across_compactions_and_evictions() {
        for depth in [1u32, 2, 7, 64] {
            let lines = trace(depth, 40 * (2 * depth + 1) + 97);
            let distances = oracle(&lines);
            for edge in [depth - 1, depth] {
                assert!(
                    distances.contains(&Some(edge)),
                    "depth {depth}: no distance {edge}"
                );
            }
            let mut lru = StackDistance::new(depth as usize);
            for (i, (&line, &want)) in lines.iter().zip(&distances).enumerate() {
                let want = want.filter(|&d| d < depth);
                assert_eq!(lru.access(line), want, "depth {depth}, access {i}");
                assert!(lru.slot_of.len() <= depth as usize);
            }
        }
    }

    #[test]
    fn distance_depth_is_a_miss_and_depth_minus_one_a_hit() {
        let mut lru = StackDistance::new(3);
        for line in [1, 2, 3] {
            assert_eq!(lru.access(line), None);
        }
        assert_eq!(lru.access(1), Some(2)); // depth - 1: resolved
        assert_eq!(lru.access(4), None); // evicts 2
        assert_eq!(lru.access(2), None); // distance 3 == depth
        assert_eq!(lru.access(2), Some(0));
    }

    #[test]
    fn memory_stays_bounded_on_a_streaming_trace() {
        let mut lru = StackDistance::new(8);
        for line in 0..100_000 {
            assert_eq!(lru.access(line), None);
        }
        assert_eq!(lru.slot_of.len(), 8);
        assert!(lru.lines.len() <= 17);
    }
}
