//! End-to-end pipeline tests: workload → trace → profile → simulators.

use fvl::cache::{CacheGeometry, CacheSim, Simulator};
use fvl::core::{FrequentValueSet, HybridCache, HybridConfig, VictimHybrid};
use fvl::mem::{Trace, TraceBuffer, TracedMemory};
use fvl::profile::ValueCounter;
use fvl::workloads::{by_name, InputSize};
use fvl_check::OracleHybrid;

fn capture(name: &str) -> (Trace, Vec<u32>) {
    let mut workload = by_name(name, InputSize::Test, 1).expect("known workload");
    let mut buf = TraceBuffer::new();
    {
        let mut mem = TracedMemory::new(&mut buf);
        workload.run(&mut mem);
        mem.finish();
    }
    let trace = buf.into_trace();
    let mut counter = ValueCounter::new();
    trace.replay(&mut counter);
    let ranking = counter.ranking();
    (trace, ranking)
}

/// The value oracle inside every controller verifies each load against
/// the trace; running all three controllers over every workload is a
/// whole-system coherence check.
#[test]
fn all_controllers_stay_coherent_on_every_workload() {
    for name in [
        "go", "m88ksim", "gcc", "li", "perl", "vortex", "compress", "ijpeg", "tomcatv", "swim",
    ] {
        let (trace, ranking) = capture(name);
        let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();

        let mut dmc = CacheSim::new(geom);
        trace.replay(&mut dmc); // panics on any wrong load value
        assert_eq!(dmc.stats().accesses(), trace.accesses(), "{name}");

        let values = FrequentValueSet::from_ranking(&ranking, 7).unwrap();
        let mut hybrid = HybridCache::new(HybridConfig::new(geom, 256, values));
        trace.replay(&mut hybrid);
        assert_eq!(hybrid.stats().accesses(), trace.accesses(), "{name}");
        assert!(hybrid.is_exclusive(), "{name}: line in both DMC and FVC");

        let mut vc = VictimHybrid::new(geom, 8);
        trace.replay(&mut vc);
        assert_eq!(Simulator::stats(&vc).accesses(), trace.accesses(), "{name}");
    }
}

/// After a full run plus flush, the hybrid must have written back
/// exactly what the data-carrying reference hybrid writes back — every
/// counter and the words moved each way agree — and the reference's
/// memory must be identical to a plain write-through reconstruction of
/// the trace. A lost or extra write-back in the hybrid breaks the first
/// check; a write-back policy that loses data breaks the second.
#[test]
fn hybrid_flush_reconstructs_memory_exactly() {
    let (trace, ranking) = capture("li");
    let geom = CacheGeometry::new(4 * 1024, 32, 1).unwrap();
    let values = FrequentValueSet::from_ranking(&ranking, 7).unwrap();
    let mut oracle = OracleHybrid::new((4 * 1024, 32, 1), 128, 1, values.values().to_vec(), 4096);
    let mut hybrid = HybridCache::new(HybridConfig::new(geom, 128, values));
    trace.replay(&mut hybrid);
    trace.replay(&mut oracle);
    let memory = hybrid.memory();
    assert!(
        oracle
            .stats()
            .matches(hybrid.hybrid_stats(), memory.words_out(), memory.words_in()),
        "hybrid {:?} (words out {}, in {}) vs oracle {:?}",
        hybrid.hybrid_stats(),
        memory.words_out(),
        memory.words_in(),
        oracle.stats()
    );

    // Reconstruct ground truth from the trace's stores.
    let mut truth = fvl::mem::SimMemory::new();
    for a in trace.iter_accesses() {
        if a.kind.is_store() {
            truth.write(a.addr, a.value);
        }
    }
    for a in trace.iter_accesses() {
        assert_eq!(
            oracle.peek_memory(a.addr),
            truth.read(a.addr),
            "mismatch at {:#x}",
            a.addr
        );
    }
}

/// The same trace replayed twice produces identical statistics
/// (simulators are deterministic).
#[test]
fn simulation_is_deterministic() {
    let (trace, ranking) = capture("vortex");
    let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
    let values = FrequentValueSet::from_ranking(&ranking, 3).unwrap();
    let run = || {
        let mut sim = HybridCache::new(HybridConfig::new(geom, 512, values.clone()));
        trace.replay(&mut sim);
        (
            sim.stats().misses(),
            sim.hybrid_stats().fvc_read_hits,
            sim.traffic_words(),
        )
    };
    assert_eq!(run(), run());
}

/// Traffic accounting: total traffic equals fetched words plus written
/// words; every fetch moves exactly one line.
#[test]
fn traffic_is_consistent_with_fetch_and_writeback_counts() {
    let (trace, _) = capture("gcc");
    let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
    let mut sim = CacheSim::new(geom);
    trace.replay(&mut sim);
    let wpl = geom.words_per_line() as u64;
    assert_eq!(sim.memory().words_out(), sim.stats().fetches * wpl);
    assert_eq!(sim.memory().words_in(), sim.stats().writebacks * wpl);
    assert_eq!(
        sim.traffic_words(),
        sim.memory().words_out() + sim.memory().words_in()
    );
}

/// A bigger direct-mapped cache cannot have more fetches than the trace
/// has accesses, and stats always conserve.
#[test]
fn stats_conservation_across_geometries() {
    let (trace, _) = capture("perl");
    for (kb, line, assoc) in [(4u64, 16u32, 1u32), (8, 32, 2), (16, 64, 4), (32, 32, 1)] {
        let geom = CacheGeometry::new(kb * 1024, line, assoc).unwrap();
        let mut sim = CacheSim::new(geom);
        trace.replay(&mut sim);
        let s = sim.stats();
        assert_eq!(s.accesses(), trace.accesses());
        assert_eq!(s.hits() + s.misses(), s.accesses());
        assert_eq!(
            s.fetches,
            s.misses(),
            "write-allocate fetches once per miss"
        );
    }
}
