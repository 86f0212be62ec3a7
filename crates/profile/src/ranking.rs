//! Shared ranking helper for count-based profiles.
//!
//! Every profiler in this crate ranks values the same way: decreasing
//! count, ties broken towards the numerically smaller value so results
//! are deterministic regardless of `HashMap` iteration order. This
//! module is the single implementation of that rule.

use fvl_mem::Word;
use std::cmp::Ordering;

/// Ranks `(value, count)` pairs by decreasing count, breaking ties
/// towards the smaller value, and returns the values in rank order.
///
/// # Example
///
/// ```
/// use fvl_profile::rank_by_count;
///
/// let ranked = rank_by_count([(5u32, 3u64), (9, 10), (2, 3)]);
/// assert_eq!(ranked, vec![9, 2, 5]);
/// ```
pub fn rank_by_count(counts: impl IntoIterator<Item = (Word, u64)>) -> Vec<Word> {
    let mut pairs: Vec<(Word, u64)> = counts.into_iter().collect();
    pairs.sort_unstable_by(rank_order);
    pairs.into_iter().map(|(v, _)| v).collect()
}

/// The rank order: decreasing count, then increasing value.
fn rank_order(a: &(Word, u64), b: &(Word, u64)) -> Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Like [`rank_by_count`], truncated to the top `k` values.
///
/// Only the `k` winners are sorted: a selection pass moves them to the
/// front first. The order breaks every count tie, so the result is
/// exactly the truncated full ranking.
pub fn top_by_count(counts: impl IntoIterator<Item = (Word, u64)>, k: usize) -> Vec<Word> {
    let mut pairs: Vec<(Word, u64)> = counts.into_iter().collect();
    if k < pairs.len() {
        pairs.select_nth_unstable_by(k, rank_order);
        pairs.truncate(k);
    }
    pairs.sort_unstable_by(rank_order);
    pairs.into_iter().map(|(v, _)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_count_then_breaks_ties_towards_smaller_value() {
        // 2 and 5 tie on count 3: 2 must come first, every time.
        let ranked = rank_by_count([(5, 3), (9, 10), (2, 3), (7, 1)]);
        assert_eq!(ranked, vec![9, 2, 5, 7]);
        // Same data, different insertion order: identical ranking.
        let ranked2 = rank_by_count([(2, 3), (7, 1), (9, 10), (5, 3)]);
        assert_eq!(ranked, ranked2);
    }

    #[test]
    fn all_ties_sort_purely_by_value() {
        let ranked = rank_by_count([(30, 1), (10, 1), (20, 1)]);
        assert_eq!(ranked, vec![10, 20, 30]);
    }

    #[test]
    fn top_by_count_truncates() {
        assert_eq!(top_by_count([(1, 5), (2, 9), (3, 7)], 2), vec![2, 3]);
        assert_eq!(top_by_count([(1, 5)], 10), vec![1]);
        assert!(top_by_count(std::iter::empty(), 3).is_empty());
    }

    #[test]
    fn selection_equals_the_truncated_full_ranking() {
        // SplitMix64, so the maps are reproducible without a dependency.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for len in [0usize, 1, 2, 5, 11, 64, 300] {
            for _ in 0..8 {
                // Few distinct counts over many values: heavy ties.
                let mut counts = std::collections::HashMap::new();
                while counts.len() < len {
                    counts.insert(next() as Word, next() % 4);
                }
                let pairs: Vec<(Word, u64)> = counts.into_iter().collect();
                let full = rank_by_count(pairs.iter().copied());
                for k in [0, 1, 3, 7, 10, len, len + 5] {
                    let expect = &full[..k.min(len)];
                    assert_eq!(
                        top_by_count(pairs.iter().copied(), k),
                        expect,
                        "len {len} k {k}"
                    );
                }
            }
        }
    }
}
