//! Compulsory / capacity / conflict miss classification.
//!
//! Uses the standard decomposition: a miss is *compulsory* if the line was
//! never referenced before; otherwise it is a *capacity* miss if a
//! fully-associative LRU cache of the same total capacity would also miss,
//! and a *conflict* miss if that cache would hit. The fully-associative
//! cache is a [`StackDistance`] engine as deep as the cache has lines.
//! This supports the paper's Figure 14 discussion of which miss classes
//! the FVC removes.

use crate::stack::StackDistance;
use fvl_mem::Addr;
use std::collections::HashSet;
use std::fmt;

/// The class of a cache miss.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum MissClass {
    /// First-ever reference to the line.
    Compulsory,
    /// Missed even in a fully-associative cache of equal capacity.
    Capacity,
    /// Hit in the equal-capacity fully-associative cache.
    Conflict,
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MissClass::Compulsory => "compulsory",
            MissClass::Capacity => "capacity",
            MissClass::Conflict => "conflict",
        })
    }
}

/// Online classifier fed with every access of a simulation.
///
/// # Example
///
/// ```
/// use fvl_cache::{MissClass, MissClassifier};
///
/// let mut c = MissClassifier::new(2, 16);
/// assert_eq!(c.observe(0x00, true), Some(MissClass::Compulsory));
/// assert_eq!(c.observe(0x10, true), Some(MissClass::Compulsory));
/// assert_eq!(c.observe(0x00, false), None); // subject cache hit
/// ```
#[derive(Clone)]
pub struct MissClassifier {
    line_mask: Addr,
    seen: HashSet<Addr>,
    /// The equal-capacity fully-associative LRU cache.
    lru: StackDistance,
    compulsory: u64,
    capacity: u64,
    conflict: u64,
}

impl MissClassifier {
    /// Creates a classifier for a cache of `capacity_lines` lines of
    /// `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero or `line_bytes` is not a power
    /// of two.
    pub fn new(capacity_lines: usize, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 4,
            "bad line size"
        );
        MissClassifier {
            line_mask: !(line_bytes - 1),
            seen: HashSet::new(),
            lru: StackDistance::new(capacity_lines),
            compulsory: 0,
            capacity: 0,
            conflict: 0,
        }
    }

    /// Feeds one access. `subject_missed` says whether the cache being
    /// studied missed. Returns the class when it missed.
    pub fn observe(&mut self, addr: Addr, subject_missed: bool) -> Option<MissClass> {
        let line = addr & self.line_mask;
        let first = self.seen.insert(line);
        let fa_hit = self.lru.access(line).is_some();
        if !subject_missed {
            return None;
        }
        let class = if first {
            self.compulsory += 1;
            MissClass::Compulsory
        } else if fa_hit {
            self.conflict += 1;
            MissClass::Conflict
        } else {
            self.capacity += 1;
            MissClass::Capacity
        };
        Some(class)
    }

    /// Compulsory misses counted so far.
    pub fn compulsory(&self) -> u64 {
        self.compulsory
    }

    /// Capacity misses counted so far.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Conflict misses counted so far.
    pub fn conflict(&self) -> u64 {
        self.conflict
    }

    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }
}

impl fmt::Debug for MissClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MissClassifier")
            .field("compulsory", &self.compulsory)
            .field("capacity", &self.capacity)
            .field("conflict", &self.conflict)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = MissClassifier::new(4, 16);
        assert_eq!(c.observe(0x100, true), Some(MissClass::Compulsory));
        assert_eq!(c.compulsory(), 1);
    }

    #[test]
    fn hit_returns_none_but_updates_model() {
        let mut c = MissClassifier::new(1, 16);
        assert_eq!(c.observe(0x00, true), Some(MissClass::Compulsory));
        assert_eq!(c.observe(0x00, false), None);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn conflict_when_fa_would_hit() {
        // Capacity 2 lines: A, B, A again — FA keeps both, so a re-miss
        // on A is a conflict miss.
        let mut c = MissClassifier::new(2, 16);
        c.observe(0x000, true);
        c.observe(0x100, true);
        assert_eq!(c.observe(0x000, true), Some(MissClass::Conflict));
    }

    #[test]
    fn capacity_when_fa_would_also_miss() {
        // Capacity 2, access 3 distinct lines cyclically: returning to A
        // after B and C evicted it from the FA model = capacity miss.
        let mut c = MissClassifier::new(2, 16);
        c.observe(0x000, true);
        c.observe(0x100, true);
        c.observe(0x200, true);
        assert_eq!(c.observe(0x000, true), Some(MissClass::Capacity));
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.compulsory(), 3);
    }

    #[test]
    fn classes_partition_misses() {
        let mut c = MissClassifier::new(2, 16);
        let addrs = [0x0u32, 0x100, 0x200, 0x0, 0x100, 0x0, 0x300];
        let mut classified = 0;
        for &a in &addrs {
            if c.observe(a, true).is_some() {
                classified += 1;
            }
        }
        assert_eq!(classified, addrs.len() as u64);
        assert_eq!(c.total(), c.compulsory() + c.capacity() + c.conflict());
        assert_eq!(c.total(), addrs.len() as u64);
    }

    #[test]
    fn word_accesses_within_a_line_count_as_one_line() {
        let mut c = MissClassifier::new(2, 16);
        assert_eq!(c.observe(0x100, true), Some(MissClass::Compulsory));
        // Different word, same line: not compulsory anymore.
        assert_eq!(c.observe(0x104, true), Some(MissClass::Conflict));
    }
}
