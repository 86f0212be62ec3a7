//! `corpus-sweep`: mapped, pipelined `sweep_corpus_with` calls over a
//! v2.2 synthetic corpus whose file bytes far exceed the residency
//! budget — the out-of-core path.
//!
//! A run is [`SETUPS`] segments. Each segment sets up: it writes the
//! corpus and opens (maps and validates) it, both as one multi-file
//! corpus and as one single-file corpus per file. It then times
//! [`BATCHES_PER_SEGMENT`] batch sweeps of the whole corpus (`wall_s`)
//! and runs a closed loop of `nproc` workers for the rest of its share
//! of the run. A loop job sweeps one single-file corpus under its own
//! budget; the files rotate across jobs. The many short jobs give the
//! latency percentiles real samples, which a run of batch sweeps (a few
//! hundred) cannot. Interleaving the set-ups with the load lets both see
//! the same host speed. Decode, the residency budget and the chunk cache
//! work only here, and the `ReuseProfiler` tower dominates the run.

use crate::stats::{self, fnv64, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{Config, SETUPS};
use fvl_bench::corpus::{
    self, sweep_corpus_with, ChunkDecode, Corpus, CorpusReport, ReplayMode, SWEEP_GEOMETRIES,
    TRACE_EXTENSION,
};
use fvl_check::{OracleCache, OraclePolicy};
use fvl_mem::CHUNK_ACCESSES;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const FILES: usize = 4;
/// Accesses per file (file `i` gets `i` more, as the corpus generator
/// does): about 0.7 MB and 16 chunks per file on disk.
pub const ACCESSES: u64 = 128 * 1024;
const TINY_ACCESSES: u64 = 16 * 1024;
/// Residency budget of one single-file job: under two fifths of its
/// file. Half of it funds the file's chunk cache (two 64 KiB chunks),
/// the other half two chunks in flight.
pub const BUDGET_BYTES: u64 = 256 * 1024;
const TINY_BUDGET_BYTES: u64 = 64 * 1024;
/// The batch sweep's budget is split across the files: one cached chunk
/// per file plus four in flight, a fifth of the corpus's bytes.
const BATCH_BUDGET_BYTES: u64 = FILES as u64 * 2 * 64 * 1024;
/// Batch sweeps at the start of each segment. One batch sweep's time
/// varies by up to 1.8x from segment to segment within a run, so
/// `wall_s` takes the median of this many per segment.
const BATCHES_PER_SEGMENT: usize = 3;
/// Replays per access the corpus export counts: the digest pass, the
/// reuse tower, and one per sweep geometry.
const REPLAYS: u64 = 2 + SWEEP_GEOMETRIES.len() as u64;

/// `(accesses per file, single-file budget, batch budget)`.
pub fn sizes(config: &Config) -> (u64, u64, u64) {
    if config.tiny {
        (
            TINY_ACCESSES,
            TINY_BUDGET_BYTES,
            FILES as u64 * TINY_BUDGET_BYTES,
        )
    } else {
        (ACCESSES, BUDGET_BYTES, BATCH_BUDGET_BYTES)
    }
}

/// The single-file corpus directory of file `i`.
fn file_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(i.to_string())
}

/// The directory holding every file: the batch corpus.
fn batch_dir(dir: &Path) -> PathBuf {
    dir.join("all")
}

/// Writes the corpus under `dir` (replacing any old one): every file in
/// the batch directory, hard-linked into a directory of its own. Returns
/// the seconds spent in the v2.2 encoder alone.
pub fn write_corpus(dir: &Path, accesses: u64, seed: u64) -> io::Result<f64> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(batch_dir(dir))?;
    let mut encode = 0.0;
    for i in 0..FILES {
        let trace = corpus::synth_trace(accesses + i as u64, seed.wrapping_add(i as u64));
        let mut bytes = Vec::new();
        let start = Instant::now();
        trace.write_v22_with(&mut bytes, CHUNK_ACCESSES)?;
        encode += start.elapsed().as_secs_f64();
        let name = format!("synth-{i:03}.{TRACE_EXTENSION}");
        let path = batch_dir(dir).join(&name);
        std::fs::write(&path, bytes)?;
        let sub = file_dir(dir, i);
        std::fs::create_dir_all(&sub)?;
        std::fs::hard_link(&path, sub.join(name))?;
    }
    Ok(encode)
}

/// The corpus as a run sweeps it: the batch corpus and one single-file
/// corpus per file, all mapped.
pub struct Opened {
    batch: Corpus,
    singles: Vec<Corpus>,
}

/// Set-up: write the corpus and open (validate) it. Returns the opened
/// corpora, the set-up seconds and the encoder seconds.
pub fn setup(dir: &Path, accesses: u64, seed: u64) -> io::Result<(Opened, f64, f64)> {
    let start = Instant::now();
    let encode = write_corpus(dir, accesses, seed)?;
    let opened = Opened {
        batch: Corpus::open_dir(&batch_dir(dir))?,
        singles: (0..FILES)
            .map(|i| Corpus::open_dir(&file_dir(dir, i)))
            .collect::<io::Result<_>>()?,
    };
    Ok((opened, start.elapsed().as_secs_f64(), encode))
}

/// Every simulated statistic of a sweep, rendered exactly.
pub fn render(report: &CorpusReport) -> String {
    let mut text = String::new();
    for s in &report.summaries {
        text.push_str(&format!(
            "trace {} accesses={} stores={} chunks={} bytes={} digest={:016x}\n",
            s.name, s.accesses, s.stores, s.chunks, s.file_bytes, s.digest
        ));
        for (label, st) in &s.geometries {
            text.push_str(&format!("  {label} {st:?}\n"));
        }
        text.push_str(&format!("  curve {:?}\n", s.curve.points));
    }
    text
}

/// Simulated references of a sweep, counted as the corpus export counts
/// them.
fn references(report: &CorpusReport) -> u64 {
    REPLAYS * report.summaries.iter().map(|s| s.accesses).sum::<u64>()
}

/// One timed sweep of an opened corpus.
fn sweep(corpus: &Corpus, budget: u64, mode: ReplayMode) -> io::Result<(CorpusReport, f64)> {
    let start = Instant::now();
    let report = sweep_corpus_with(corpus, budget, mode, ChunkDecode::Pipelined)?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// One completed loop job: which file, how long, and its report.
struct Job {
    file: usize,
    secs: f64,
    report: CorpusReport,
}

/// Runs the closed loop until `deadline`, starting each worker's file
/// rotation at `first`; returns the jobs.
fn closed_loop(
    singles: &[Corpus],
    budget: u64,
    first: usize,
    deadline: Instant,
) -> io::Result<Vec<Job>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || -> io::Result<Vec<Job>> {
                    let mut jobs = Vec::new();
                    let mut k = 0;
                    // At least one job per worker, even when the batch
                    // sweeps used up the segment.
                    loop {
                        let file = (first + t + k * threads) % FILES;
                        let (report, secs) = sweep(&singles[file], budget, ReplayMode::Mapped)?;
                        jobs.push(Job { file, secs, report });
                        k += 1;
                        if Instant::now() >= deadline {
                            return Ok(jobs);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sweep thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut jobs = Vec::new();
    for result in per_thread {
        jobs.extend(result?);
    }
    Ok(jobs)
}

/// Output checks: every mapped single-file sweep must render
/// byte-identically to an in-RAM sweep of that file, every mapped batch
/// sweep to an in-RAM batch sweep, and one geometry per file (rotating)
/// must match the independent `OracleCache`. Returns the in-RAM batch
/// rendering.
fn check<'a>(
    out: &mut Outcome,
    opened: &Opened,
    (budget, batch_budget): (u64, u64),
    singles: impl IntoIterator<Item = (usize, &'a CorpusReport)>,
    batches: impl IntoIterator<Item = &'a CorpusReport>,
) -> io::Result<String> {
    let mut expected = Vec::new();
    for (i, corpus) in opened.singles.iter().enumerate() {
        let (in_ram, _) = sweep(corpus, budget, ReplayMode::InRam)?;
        let (entry, summary) = (&corpus.entries()[0], &in_ram.summaries[0]);
        let g = i % SWEEP_GEOMETRIES.len();
        let (label, kb, line, assoc) = SWEEP_GEOMETRIES[g];
        let mut oracle = OracleCache::new(kb * 1024, line, assoc, OraclePolicy::WriteBack);
        entry.trace.to_packed()?.replay_into(&mut oracle);
        let got = &summary.geometries[g].1;
        out.check(oracle.stats().matches(got), || {
            format!(
                "corpus-sweep: {} {label}: sweep {got:?} vs oracle {:?}",
                entry.name,
                oracle.stats()
            )
        });
        expected.push(render(&in_ram));
    }
    for (file, report) in singles {
        out.check(render(report) == expected[file], || {
            format!("corpus-sweep: a mapped sweep of file {file} differs from the in-RAM sweep")
        });
    }
    let (in_ram, _) = sweep(&opened.batch, batch_budget, ReplayMode::InRam)?;
    let whole = render(&in_ram);
    for report in batches {
        out.check(render(report) == whole, || {
            "corpus-sweep: a mapped batch sweep differs from the in-RAM batch sweep".to_string()
        });
    }
    Ok(whole)
}

fn corpus_dir(config: &Config) -> PathBuf {
    config.scratch("corpus")
}

pub fn run(config: &Config) -> io::Result<Outcome> {
    let (accesses, budget, batch_budget) = sizes(config);
    let dir = corpus_dir(config);
    let slice = Duration::from_secs_f64(config.seconds / SETUPS as f64);
    let (mut setups, mut batches, mut batch_secs, mut jobs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    let mut opened = None;
    for segment in 0..SETUPS {
        drop(opened.take()); // unmap the previous segment's files
        let (corpora, secs, _) = setup(&dir, accesses, config.seed)?;
        let corpora = opened.insert(corpora);
        setups.push(secs);
        if segment == 0 {
            let batch = &corpora.batch;
            println!(
                "corpus files={FILES} accesses={} chunks={} file_bytes={} \
                 budget_bytes_batch={batch_budget} budget_bytes_per_job={budget}",
                batch.total_accesses(),
                batch.total_chunks(),
                batch.total_file_bytes(),
            );
        }
        let start = Instant::now();
        for _ in 0..BATCHES_PER_SEGMENT {
            let (report, secs) = sweep(&corpora.batch, batch_budget, ReplayMode::Mapped)?;
            batches.push(report);
            batch_secs.push(secs);
        }
        jobs.extend(closed_loop(
            &corpora.singles,
            budget,
            segment,
            start + slice,
        )?);
        measured += start.elapsed().as_secs_f64();
    }

    let mut out = Outcome::default();
    let opened = opened.expect("at least one set-up");
    let expected = check(
        &mut out,
        &opened,
        (budget, batch_budget),
        jobs.iter().map(|j| (j.file, &j.report)),
        &batches,
    )?;
    println!(
        "digest corpus-sweep seed={} report={:016x}",
        config.seed,
        fnv64(expected.as_bytes())
    );
    drop(opened);
    std::fs::remove_dir_all(dir)?;

    let ms: Vec<f64> = jobs.iter().map(|j| j.secs * 1e3).collect();
    let refs: u64 = jobs
        .iter()
        .map(|j| &j.report)
        .chain(&batches)
        .map(references)
        .sum();
    println!(
        "samples corpus-sweep batch_sweeps={} jobs={} (p99 leaves {} beyond)",
        batches.len(),
        jobs.len(),
        jobs.len() / 100
    );
    out.metric("wall_s", stats::median(&batch_secs), "s");
    out.metric("mrefs_per_s", refs as f64 / measured / 1e6, "Mref/s");
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("ok_frac", out.ok_frac(), "frac");
    out.metric("jobs_per_s", jobs.len() as f64 / measured, "1/s");
    out.metric("job_p50_ms", stats::percentile(&ms, 50.0), "ms");
    out.metric("job_p99_ms", stats::percentile(&ms, 99.0), "ms");
    Ok(out)
}

/// Traced corpus ledger: encode, one traced batch sweep of the whole
/// corpus, and a decode of every chunk, each in its own span.
pub fn ledger(
    config: &Config,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> io::Result<()> {
    let (accesses, budget, batch_budget) = sizes(config);
    let dir = corpus_dir(config);
    let (opened, _, encode) = tracer.span("mem.encode", Some(parent), 0, |_| {
        setup(&dir, accesses, config.seed)
    })?;
    let corpus = &opened.batch;
    out.metric(
        "mem.encode_mev_s",
        corpus.total_accesses() as f64 / encode / 1e6,
        "Mev/s",
    );

    let (report, _) = tracer.span("corpus.sweep", Some(parent), 0, |_| {
        sweep(corpus, batch_budget, ReplayMode::Mapped)
    })?;
    out.metric("corpus.peak_rss_mib", stats::peak_rss_mib("self"), "MiB");
    let expected = check(
        out,
        &opened,
        (budget, batch_budget),
        std::iter::empty(),
        [&report],
    )?;
    println!(
        "digest corpus-sweep seed={} report={:016x}",
        config.seed,
        fnv64(expected.as_bytes())
    );
    let cache = &report.cache;
    out.metric("corpus.budget_waits", report.budget.waits as f64, "count");
    out.metric(
        "corpus.resident_peak_bytes",
        report.budget.peak as f64,
        "bytes",
    );
    out.metric(
        "corpus.chunk_cache_hit_frac",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "frac",
    );

    let decoded = tracer.span("mem.decode", Some(parent), 0, |_| -> io::Result<u64> {
        let mut events = 0;
        for entry in corpus.entries() {
            for i in 0..entry.trace.chunk_count() {
                events += entry.trace.decode_chunk(i)?.accesses();
            }
        }
        Ok(events)
    })?;
    let decode_secs = tracer.seconds(tracer.last_named("mem.decode").expect("span recorded"));
    out.metric(
        "mem.decode_mev_s",
        decoded as f64 / decode_secs / 1e6,
        "Mev/s",
    );
    drop(opened);
    std::fs::remove_dir_all(dir)?;
    Ok(())
}
