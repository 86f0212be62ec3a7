//! The traced run: every per-layer metric, from spans recorded around
//! calls into each layer's public API.
//!
//! A traced run of any workload runs the whole ledger, so every run
//! reports every per-layer metric with one definition each:
//!
//! 1. corpus-sweep: encode, one traced batch sweep, and every chunk decoded
//!    (`mem.encode_mev_s`, `mem.decode_mev_s`, `corpus.*`);
//! 2. serve-mixed: a short closed loop with a span per job (`serve.*`);
//! 3. paper-quick, untraced then traced (captures over the store keys,
//!    then each experiment, then the metrics export), giving the
//!    `workloads.*` and `bench.*` metrics and the tracing overhead;
//! 4. each sink, walk and pack over the captured traces of the paper's
//!    six frequent-value benchmarks (`mem.*`, `cache.*`, `core.*`,
//!    `profile.*`).
//!
//! The untraced and traced paper-quick stdout must be byte-identical;
//! the corpus and serve checks of the measuring runs apply here too.

use crate::stats::{self, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{corpus_sweep, paper_quick, serve_mixed, Config};
use fvl_bench::data::SMOKE_REFS;
use fvl_bench::{experiments, ExperimentContext, WorkloadData};
use fvl_cache::{CacheGeometry, CacheSim, EvictedLine, VictimCache};
use fvl_core::{
    CompressedCache, FrequentValueSet, HybridCache, HybridConfig, OnlineHybrid, VictimHybrid,
};
use fvl_mem::{
    Access, AccessBlock, AccessSink, TraceBuffer, TraceRepr, TraceReprKind, TracedMemory,
};
use fvl_profile::{OccurrenceSampler, ReuseProfiler, ValueCounter};
use fvl_workloads::{by_name, InputSize};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// The paper's DMC (16 KB, 32-byte lines, direct mapped), FVC entries
/// and frequent-value count, as the figure experiments use them.
const DMC: (u64, u32, u32) = (16 * 1024, 32, 1);
const FVC_ENTRIES: u32 = 512;
const TOP_K: usize = 7;
const VC_ENTRIES: usize = 4;
/// Walks are ~100x faster than the sinks; repeat them so the span is
/// long enough to time.
const WALK_REPEATS: usize = 16;

pub fn traced_run(config: &Config) -> io::Result<Outcome> {
    let tracer = Tracer::new();
    let mut out = Outcome::default();

    // The corpus ledger runs first, so this process's peak resident
    // memory after it is the corpus sweep's.
    let corpus = tracer.begin("corpus-sweep", None, 0);
    corpus_sweep::ledger(config, &tracer, corpus, &mut out)?;
    tracer.end(corpus);

    let serve = tracer.begin("serve-mixed", None, 0);
    serve_mixed::ledger(config, &tracer, serve, &mut out)?;
    tracer.end(serve);

    let root = tracer.begin("paper-quick", None, 0);
    let untraced = paper_quick::run_pass(config.seed, config.tiny);
    out.metric("bench.peak_rss_mib", stats::peak_rss_mib("self"), "MiB");
    let (traced, traced_wall, captured) =
        paper_quick::run_traced_pass(config.seed, config.tiny, &untraced.keys, &tracer, root);
    tracer.end(root);
    out.check(traced.stdout == untraced.stdout, || {
        "paper-quick: traced stdout differs from the untraced run".to_string()
    });
    paper_quick::check_passes(&mut out, config, &[&untraced, &traced]);

    let capture_s: f64 = tracer.self_seconds_named("workloads.capture").iter().sum();
    out.metric("workloads.capture_s", capture_s, "s");
    out.metric(
        "workloads.capture_mev_s",
        captured as f64 / capture_s / 1e6,
        "Mev/s",
    );
    for (name, _) in experiments::all() {
        let secs: f64 = tracer
            .self_seconds_named(&format!("bench.exp.{name}"))
            .iter()
            .sum();
        out.metric(format!("bench.exp.{name}_s"), secs, "s");
    }
    let render: f64 = tracer
        .self_seconds_named("bench.report_render")
        .iter()
        .sum();
    out.metric("bench.report_render_s", render, "s");
    let export: f64 = tracer
        .self_seconds_named("bench.metrics_export")
        .iter()
        .sum();
    out.metric("bench.metrics_export_s", export, "s");
    out.metric("bench.store_hits", untraced.store_hits as f64, "count");
    out.metric("bench.store_misses", untraced.store_misses as f64, "count");
    out.metric("bench.cells", untraced.cell_nanos.len() as f64, "count");
    out.metric(
        "bench.trace_overhead_frac",
        traced_wall / untraced.wall,
        "frac",
    );

    let sinks = tracer.begin("layers", None, 0);
    sink_ledger(config, &traced.ctx, &tracer, sinks, &mut out);
    tracer.end(sinks);

    let path = PathBuf::from(crate::OUT_DIR)
        .join(format!("spans-{}-seed{}.tsv", config.workload, config.seed));
    tracer.write_tsv(&path)?;
    println!("spans written to {}", path.display());
    Ok(out)
}

/// Counts accesses; overrides the block hook so the walk runs at the
/// active SIMD level.
#[derive(Default)]
struct CountingSink {
    accesses: u64,
    stores: u64,
}

impl AccessSink for CountingSink {
    fn on_access(&mut self, access: Access) {
        self.accesses += 1;
        self.stores += u64::from(access.kind.is_store());
    }

    fn on_access_block(&mut self, block: &AccessBlock<'_>) {
        self.accesses += block.len() as u64;
        self.stores += u64::from(block.store_mask().count_ones());
    }
}

/// Drives a `VictimCache` with every referenced line: a probe, then a
/// swap-out on a hit or an insertion on a miss.
struct VictimDriver {
    vc: VictimCache,
    line_mask: u32,
}

impl AccessSink for VictimDriver {
    fn on_access(&mut self, access: Access) {
        let line_addr = access.addr & self.line_mask;
        let mut line = match self.vc.probe(line_addr) {
            Some(slot) => self.vc.take(slot),
            None => EvictedLine {
                line_addr,
                dirty: false,
                data: vec![0; self.vc.words_per_line() as usize],
            },
        };
        line.dirty |= access.kind.is_store();
        self.vc.insert(line);
    }
}

/// Replays every trace into a fresh sink inside one span; returns the
/// sinks and the events per second.
fn time_sink<S: AccessSink>(
    tracer: &Tracer,
    parent: SpanId,
    name: &str,
    datas: &[Arc<WorkloadData>],
    make: impl Fn(&WorkloadData) -> S,
) -> (Vec<S>, f64) {
    let mut sinks: Vec<S> = datas.iter().map(|d| make(d)).collect();
    let id = tracer.span(name, Some(parent), 0, |id| {
        for (sink, data) in sinks.iter_mut().zip(datas) {
            data.trace.replay_into(sink);
        }
        id
    });
    let events: u64 = datas.iter().map(|d| d.trace.accesses()).sum();
    (sinks, events as f64 / tracer.seconds(id) / 1e6)
}

fn values(data: &WorkloadData) -> FrequentValueSet {
    FrequentValueSet::from_ranking(&data.counter.ranking(), TOP_K)
        .expect("profiled workloads have at least one value")
}

fn sink_ledger(
    config: &Config,
    ctx: &ExperimentContext,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) {
    let names = ctx.fv_six();
    let datas: Vec<Arc<WorkloadData>> = names.iter().map(|n| ctx.capture(n)).collect();
    let geom = CacheGeometry::new(DMC.0, DMC.1, DMC.2).expect("the paper's DMC is valid");

    // Pack: record each workload again, then time only the packing.
    let mut packed_events = 0u64;
    let mut pack_secs = 0.0;
    for name in names {
        let mut workload =
            by_name(name, InputSize::Test, config.seed).expect("registered workload");
        let mut buf = if config.tiny {
            TraceBuffer::new().with_access_limit(SMOKE_REFS)
        } else {
            TraceBuffer::new()
        };
        {
            let mut mem = TracedMemory::new(&mut buf);
            workload.run(&mut mem);
            mem.finish();
        }
        let trace = buf.into_trace();
        let id = tracer.span("mem.pack", Some(parent), 0, |id| {
            let repr = TraceRepr::from_trace(trace, TraceReprKind::default());
            packed_events += repr.accesses();
            id
        });
        pack_secs += tracer.seconds(id);
    }
    out.metric(
        "mem.pack_mev_s",
        packed_events as f64 / pack_secs / 1e6,
        "Mev/s",
    );

    let (walk, walked) = tracer.span("mem.walk", Some(parent), 0, |id| {
        let mut sink = CountingSink::default();
        for _ in 0..WALK_REPEATS {
            for data in &datas {
                data.trace.replay_into(&mut sink);
            }
        }
        std::hint::black_box(sink.stores);
        (id, sink.accesses)
    });
    out.metric(
        "mem.walk_gev_s",
        walked as f64 / tracer.seconds(walk) / 1e9,
        "Gev/s",
    );

    let (sims, rate) = time_sink(tracer, parent, "cache.cachesim", &datas, |_| {
        CacheSim::new(geom)
    });
    out.metric("cache.cachesim_mev_s", rate, "Mev/s");
    let dmc_misses: u64 = sims.iter().map(|s| s.stats().misses()).sum();
    let (_, rate) = time_sink(tracer, parent, "cache.classifier", &datas, |_| {
        CacheSim::new(geom).with_classifier()
    });
    out.metric("cache.classifier_mev_s", rate, "Mev/s");
    let (_, rate) = time_sink(tracer, parent, "cache.victim", &datas, |_| VictimDriver {
        vc: VictimCache::new(VC_ENTRIES, DMC.1 / 4),
        line_mask: !(DMC.1 - 1),
    });
    out.metric("cache.victim_mev_s", rate, "Mev/s");
    out.metric("cache.dmc_misses", dmc_misses as f64, "count");

    let (hybrids, rate) = time_sink(tracer, parent, "core.hybrid", &datas, |d| {
        HybridCache::new(HybridConfig::new(geom, FVC_ENTRIES, values(d)))
    });
    out.metric("core.hybrid_mev_s", rate, "Mev/s");
    let fvc_hits: u64 = hybrids.iter().map(|h| h.hybrid_stats().fvc_hits()).sum();
    let (_, rate) = time_sink(tracer, parent, "core.victim_hybrid", &datas, |_| {
        VictimHybrid::new(geom, VC_ENTRIES)
    });
    out.metric("core.victim_hybrid_mev_s", rate, "Mev/s");
    let (_, rate) = time_sink(tracer, parent, "core.online_hybrid", &datas, |d| {
        OnlineHybrid::new(geom, FVC_ENTRIES, TOP_K, (d.trace.accesses() / 20).max(1))
    });
    out.metric("core.online_hybrid_mev_s", rate, "Mev/s");
    let (_, rate) = time_sink(tracer, parent, "core.compressed", &datas, |d| {
        CompressedCache::new(geom, values(d))
    });
    out.metric("core.compressed_mev_s", rate, "Mev/s");
    out.metric("core.fvc_hits", fvc_hits as f64, "count");

    let (_, rate) = time_sink(tracer, parent, "profile.reuse", &datas, |_| {
        ReuseProfiler::new()
    });
    out.metric("profile.reuse_mev_s", rate, "Mev/s");
    let (_, rate) = time_sink(tracer, parent, "profile.value_counter", &datas, |_| {
        ValueCounter::new()
    });
    out.metric("profile.value_counter_mev_s", rate, "Mev/s");
    let occurrence = tracer.span("profile.occurrence", Some(parent), 0, |id| {
        for data in &datas {
            let mut occ = OccurrenceSampler::new();
            data.trace
                .replay_with_snapshots_into(&mut occ, data.sample_every);
            std::hint::black_box(occ.samples());
        }
        id
    });
    let events: u64 = datas.iter().map(|d| d.trace.accesses()).sum();
    out.metric(
        "profile.occurrence_mev_s",
        events as f64 / tracer.seconds(occurrence) / 1e6,
        "Mev/s",
    );
    println!(
        "digest layers seed={} dmc_misses={dmc_misses} fvc_hits={fvc_hits}",
        config.seed
    );
}
