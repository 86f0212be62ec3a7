//! `paper-quick`: every registered experiment on test inputs — the
//! users' `experiments all --quick` — repeated on warm trace stores.
//!
//! A run is a sequence of rounds, at least [`MIN_ROUNDS`] and as many as
//! fit in the run's seconds. Each round sets up a fresh
//! `ExperimentContext` (a new engine with the default `nproc` workers,
//! a new trace store) and fills its store with every capture the round
//! will ask for; that set-up is `setup_s`. The round then runs every
//! experiment in registry order on the warm store, and its seconds are
//! one `wall_s` sample. A job is one engine job (a simulation cell),
//! timed by the engine itself. Capture is paid once per store, so the
//! captures are set-up work here; their per-layer cost is
//! `workloads.capture_s` in the traced run.

use crate::stats::{self, fnv64, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{Config, DEFAULT_SEED, HELD_OUT_SEED};
use fvl_bench::metrics::{self, RunInfo};
use fvl_bench::{experiments, Engine, ExperimentContext, TraceKey};
use std::sync::Arc;
use std::time::Instant;

/// Fewest rounds in a run: `wall_s` is a median of at least three, and
/// the run has over 1500 cell latencies (15 beyond the 99th
/// percentile).
const MIN_ROUNDS: usize = 3;
/// Most rounds in a run (tiny rounds take milliseconds).
const MAX_ROUNDS: usize = 64;

/// One timed `all` pass and everything it produced.
pub struct Pass {
    pub wall: f64,
    pub references: u64,
    pub cell_nanos: Vec<u64>,
    /// `(experiment, rendered report)` in registry order.
    pub reports: Vec<(&'static str, String)>,
    pub stdout: String,
    pub plain_metrics: String,
    pub store_hits: u64,
    pub store_misses: u64,
    pub keys: Vec<TraceKey>,
    pub ctx: ExperimentContext,
}

fn context(seed: u64, smoke: bool) -> (Arc<Engine>, ExperimentContext) {
    let engine = Arc::new(Engine::auto());
    let base = if smoke {
        ExperimentContext::smoke()
    } else {
        ExperimentContext::quick()
    };
    (
        Arc::clone(&engine),
        base.with_seed(seed).with_engine(engine),
    )
}

/// The header the `experiments` CLI prints before the reports.
fn header(seed: u64, smoke: bool) -> String {
    format!(
        "# FVC reproduction experiments (test inputs{}, seed {seed})\n\n",
        if smoke { ", smoke" } else { "" }
    )
}

fn finish(
    engine: &Engine,
    ctx: ExperimentContext,
    seed: u64,
    smoke: bool,
    wall: f64,
    reports: Vec<(&'static str, String)>,
) -> Pass {
    let mut stdout = header(seed, smoke);
    for (_, text) in &reports {
        stdout.push_str(text);
    }
    let run = RunInfo::new("test", seed, smoke);
    let mut plain_metrics =
        metrics::json_report_full(engine, &run, Some(ctx.store()), false).render_pretty();
    plain_metrics.push('\n');
    let store = ctx.store().stats();
    Pass {
        wall,
        references: engine.throughput().references,
        cell_nanos: engine.cell_records().iter().map(|r| r.wall_nanos).collect(),
        reports,
        stdout,
        plain_metrics,
        store_hits: store.iter().map(|s| s.hits).sum(),
        store_misses: store.iter().map(|s| s.misses).sum(),
        keys: store.into_iter().map(|s| s.key).collect(),
        ctx,
    }
}

/// One untraced pass: fresh engine, fresh store, every experiment.
pub fn run_pass(seed: u64, smoke: bool) -> Pass {
    let start = Instant::now();
    let (engine, ctx) = context(seed, smoke);
    experiments_pass(&engine, ctx, seed, smoke, start)
}

/// Every experiment in registry order on `ctx`; the pass's wall time
/// runs from `start` to the last report.
fn experiments_pass(
    engine: &Engine,
    ctx: ExperimentContext,
    seed: u64,
    smoke: bool,
    start: Instant,
) -> Pass {
    let reports: Vec<(&'static str, String)> = experiments::all()
        .into_iter()
        .map(|(name, runner)| (name, format!("{}\n", runner(&ctx))))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    finish(engine, ctx, seed, smoke, wall, reports)
}

/// The same pass with a span around each layer call: the captures
/// first (over the store keys an untraced pass used), then each
/// experiment with its report rendering as a child span, then the
/// plain metrics export.
pub fn run_traced_pass(
    seed: u64,
    smoke: bool,
    keys: &[TraceKey],
    tracer: &Tracer,
    parent: SpanId,
) -> (Pass, f64, u64) {
    let root = tracer.begin("paper-quick.pass", Some(parent), 0);
    let start = Instant::now();
    let (engine, ctx) = context(seed, smoke);
    let mut captured = 0u64;
    for key in keys {
        tracer.span("workloads.capture", Some(root), 0, |_| {
            captured += ctx
                .capture_with(&key.name, key.input, key.seed)
                .trace
                .accesses();
        });
    }
    let mut reports = Vec::new();
    for (name, runner) in experiments::all() {
        tracer.span(format!("bench.exp.{name}"), Some(root), 0, |exp| {
            let report = runner(&ctx);
            let text = tracer.span("bench.report_render", Some(exp), 0, |_| {
                format!("{report}\n")
            });
            reports.push((name, text));
        });
    }
    let wall = start.elapsed().as_secs_f64();
    let pass = tracer.span("bench.metrics_export", Some(root), 0, |_| {
        finish(&engine, ctx, seed, smoke, wall, reports)
    });
    tracer.end(root);
    let wall = tracer.seconds(root);
    (pass, wall, captured)
}

/// Checks one experiment report: it must equal the first pass's, and
/// the verification and ext6 reports must hold their claims.
fn check_report(out: &mut Outcome, config: &Config, name: &str, text: &str, first: &str) {
    out.check(text == first, || {
        format!("paper-quick: {name} report differs between passes")
    });
    if config.tiny {
        // Smoke-truncated traces make the claims statistically
        // degenerate; only determinism is checked at tiny size.
        return;
    }
    match name {
        "verify" => {
            let (pass, fails) = verify_verdicts(text);
            let failing: Vec<&str> = fails
                .iter()
                .filter_map(|line| line.split('|').nth(2).map(str::trim))
                .collect();
            let recorded = recorded_failures(config.seed);
            println!(
                "verify seed={} pass={pass} fail={} failing={failing:?} recorded={}",
                config.seed,
                fails.len(),
                recorded.is_some(),
            );
            out.check(pass + fails.len() == 10, || {
                format!(
                    "paper-quick: verify reported {} claims, not 10",
                    pass + fails.len()
                )
            });
            if let Some(recorded) = recorded {
                out.check(
                    failing.len() == recorded.len()
                        && failing.iter().zip(recorded).all(|(f, r)| f.starts_with(r)),
                    || {
                        format!(
                            "paper-quick: verify at seed {} fails {failing:?}, recorded {recorded:?}",
                            config.seed
                        )
                    },
                );
            }
        }
        "ext6" => {
            let exact = ext6_matches(text);
            out.check(matches!(exact, Some((m, t)) if m == t && t > 0), || {
                format!("paper-quick: ext6 cross-check not exact: {exact:?}")
            });
        }
        _ => {}
    }
}

/// The verification verdicts recorded at the two seeds the benchmark
/// names: every claim holds at the default seed (the seed the claims are
/// stated at), and at the held-out seed the Fig 14 claim reads 3/6 where
/// it needs 4/6 and fails. That failure stands: it is a finding about
/// how robust the claim is to the synthetic inputs, and a run at the
/// held-out seed must reproduce it exactly, as a run at the default
/// seed must pass every claim. Other seeds have no record; their
/// verdicts are printed, and only their determinism is checked.
fn recorded_failures(seed: u64) -> Option<&'static [&'static str]> {
    match seed {
        DEFAULT_SEED => Some(&[]),
        HELD_OUT_SEED => Some(&["Fig 14:"]),
        _ => None,
    }
}

/// `(PASS count, FAIL report lines)` of a verification report.
fn verify_verdicts(text: &str) -> (usize, Vec<String>) {
    let mut pass = 0;
    let mut fails = Vec::new();
    for line in text.lines() {
        if line.starts_with("| PASS") {
            pass += 1;
        } else if line.starts_with("| FAIL") {
            fails.push(line.to_string());
        }
    }
    (pass, fails)
}

/// `(matching, total)` from ext6's "exactly in M of T" note.
fn ext6_matches(text: &str) -> Option<(u64, u64)> {
    let rest = text.split("exactly in ").nth(1)?;
    let mut words = rest.split_whitespace();
    let matching = words.next()?.parse().ok()?;
    (words.next()? == "of").then_some(())?;
    let total = words.next()?.parse().ok()?;
    Some((matching, total))
}

/// Checks every pass against the first and prints the digest line.
pub fn check_passes(out: &mut Outcome, config: &Config, passes: &[&Pass]) {
    let first = passes[0];
    for pass in passes {
        for ((name, text), (_, reference)) in pass.reports.iter().zip(&first.reports) {
            check_report(out, config, name, text, reference);
        }
        out.check(pass.plain_metrics == first.plain_metrics, || {
            "paper-quick: plain schema-v1 export differs between passes".to_string()
        });
    }
    println!(
        "digest paper-quick seed={} stdout={:016x} metrics={:016x} references={}",
        config.seed,
        fnv64(first.stdout.as_bytes()),
        fnv64(first.plain_metrics.as_bytes()),
        first.references,
    );
}

/// Set-up of one round: a fresh engine and store, with every capture
/// in `keys` stored. Returns the context and the set-up seconds.
fn setup(seed: u64, tiny: bool, keys: &[TraceKey]) -> (Arc<Engine>, ExperimentContext, f64) {
    let start = Instant::now();
    let (engine, ctx) = context(seed, tiny);
    for key in keys {
        std::hint::black_box(ctx.capture_with(&key.name, key.input, key.seed));
    }
    (engine, ctx, start.elapsed().as_secs_f64())
}

pub fn run(config: &Config) -> Outcome {
    // The captures a round asks for, learned from a smoke pass (which
    // also warms lazy statics and the allocator).
    let keys = run_pass(config.seed, true).keys;
    let mut setups = Vec::new();
    let mut rounds: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    while rounds.len() < MAX_ROUNDS && (rounds.len() < MIN_ROUNDS || measured < config.seconds) {
        let (engine, ctx, secs) = setup(config.seed, config.tiny, &keys);
        setups.push(secs);
        let pass = experiments_pass(&engine, ctx, config.seed, config.tiny, Instant::now());
        measured += pass.wall;
        rounds.push(pass);
    }

    let mut out = Outcome::default();
    for pass in &rounds {
        out.check(pass.store_misses == keys.len() as u64, || {
            format!(
                "paper-quick: a round captured {} traces, its set-up {}",
                pass.store_misses,
                keys.len()
            )
        });
    }
    check_passes(&mut out, config, &rounds.iter().collect::<Vec<_>>());
    let walls: Vec<f64> = rounds.iter().map(|p| p.wall).collect();
    let references: u64 = rounds.iter().map(|p| p.references).sum();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|p| p.cell_nanos.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    println!(
        "samples paper-quick rounds={} jobs={} (p99 leaves {} beyond)",
        rounds.len(),
        latencies.len(),
        latencies.len() / 100
    );
    out.metric("wall_s", stats::median(&walls), "s");
    out.metric("mrefs_per_s", references as f64 / measured / 1e6, "Mref/s");
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("ok_frac", out.ok_frac(), "frac");
    out.metric("jobs_per_s", latencies.len() as f64 / measured, "1/s");
    out.metric("job_p50_ms", stats::percentile(&latencies, 50.0), "ms");
    out.metric("job_p99_ms", stats::percentile(&latencies, 99.0), "ms");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_verdicts() {
        let text = "| PASS   | a |\n| FAIL   | Fig 14: b |\n- counts exactly in 66 of 66 (workload x capacity) cells\n";
        let (pass, fails) = verify_verdicts(text);
        assert_eq!(pass, 1);
        assert_eq!(fails, ["| FAIL   | Fig 14: b |"]);
        assert_eq!(ext6_matches(text), Some((66, 66)));
        assert_eq!(ext6_matches("exactly in 65 of 66"), Some((65, 66)));
    }
}
