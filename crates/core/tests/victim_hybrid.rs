//! Integration tests for the DMC + victim-cache controller: swap
//! semantics, eviction ordering into and out of the VC, and dirty-line
//! write-backs, through the public API only.

use fvl_cache::{CacheGeometry, Simulator};
use fvl_core::VictimHybrid;
use fvl_mem::{Access, AccessSink};

/// 1 KiB direct-mapped, 32-byte lines (conflicts 1 KiB apart), 4-entry VC.
fn hybrid() -> VictimHybrid {
    VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 4)
}

#[test]
fn swap_on_hit_moves_the_line_into_the_dmc() {
    let mut h = hybrid();
    let a = 0x100u32;
    let b = a + 1024;
    h.on_access(Access::load(a, 0)); // miss: a in DMC
    h.on_access(Access::load(b, 0)); // miss: b in DMC, a in VC
    h.on_access(Access::load(a, 0)); // VC hit: swap a<->b
    assert_eq!(h.vc_hits(), 1);
    // After the swap `a` is in the DMC: another access is a DMC hit and
    // the VC hit counter must NOT move.
    h.on_access(Access::load(a, 0));
    assert_eq!(h.vc_hits(), 1);
    assert_eq!(h.stats().read_hits, 2);
    assert_eq!(h.stats().read_misses, 2);
}

#[test]
fn vc_holds_the_most_recently_evicted_lines() {
    let mut h = hybrid();
    // Six conflicting lines through one DMC set; the 4-entry VC can
    // only keep the last four evicted (lines 1..=4; line 5 is in the
    // DMC; line 0 was displaced from the VC).
    for i in 0..6u32 {
        h.on_access(Access::load(0x100 + i * 1024, 0));
    }
    assert_eq!(h.stats().misses(), 6);
    // Re-touch in reverse: lines 4,3,2,1 are VC hits, line 0 misses.
    for i in (0..5u32).rev() {
        h.on_access(Access::load(0x100 + i * 1024, 0));
    }
    assert_eq!(h.vc_hits(), 4);
    assert_eq!(h.stats().misses(), 7, "line 0 fell out of the VC");
}

#[test]
fn dirty_line_written_back_only_when_displaced_from_vc() {
    let mut h = hybrid();
    h.on_access(Access::store(0x100, 42));
    // Push the dirty line into the VC and keep evicting until the VC
    // displaces it (4-entry VC + 1 DMC slot = 5 on-chip lines).
    for i in 1..=5u32 {
        h.on_access(Access::load(0x100 + i * 1024, 0));
    }
    assert_eq!(h.stats().writebacks, 1, "displaced dirty line written back");
    assert_eq!(h.memory().words_in(), 8, "one whole line");
    // The value is still loadable (from memory) afterwards.
    h.on_access(Access::load(0x100, 42));
}

#[test]
fn dirty_bit_survives_a_swap_round_trip() {
    let mut h = hybrid();
    let a = 0x100u32;
    let b = a + 1024;
    h.on_access(Access::store(a, 7)); // a dirty in DMC
    h.on_access(Access::load(b, 0)); // a (dirty) into VC
    h.on_access(Access::load(a, 7)); // swap back: dirty must survive
    assert_eq!(h.stats().writebacks, 0, "nothing displaced yet");
    h.on_finish();
    // `a` is dirty in the DMC, `b` clean in the VC: the flush writes
    // back exactly `a`, which it misses if the swap dropped the bit.
    assert_eq!(h.stats().writebacks, 1, "flush wrote the dirty line");
    assert_eq!(h.memory().words_in(), 8);
}

#[test]
fn flush_is_idempotent_and_counts_conserve() {
    let mut h = hybrid();
    for i in 0..40u32 {
        let addr = (i % 10) * 1024;
        if i % 3 == 0 {
            h.on_access(Access::store(addr, i));
        } else {
            h.set_verify_values(false);
            h.on_access(Access::load(addr, 0));
        }
    }
    h.on_finish();
    let after_first = h.stats().writebacks;
    h.on_finish();
    assert_eq!(
        h.stats().writebacks,
        after_first,
        "second finish is a no-op"
    );
    assert_eq!(h.stats().accesses(), 40);
    assert_eq!(h.stats().hits() + h.stats().misses(), 40);
    assert_eq!(h.stats().fetches, h.stats().misses());
    assert!(h.traffic_words() > 0);
}

#[test]
fn victim_cache_inspection_matches_behavior() {
    let mut h = hybrid();
    assert_eq!(h.victim_cache().capacity(), 4);
    assert!(h.victim_cache().is_empty());
    h.on_access(Access::load(0x0, 0));
    h.on_access(Access::load(0x400, 0)); // evicts 0x0 into the VC
    assert_eq!(h.victim_cache().len(), 1);
    assert!(h.victim_cache().probe(0x0).is_some());
}
