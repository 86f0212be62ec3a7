//! The repository benchmark: three end-to-end workloads over the public
//! API of the FVL crates, plus a traced per-layer ledger.
//!
//! ```text
//! perfbench --workload paper-quick|corpus-sweep|serve-mixed --seed N
//!           --seconds S --trace 0|1 [--tiny] [--corrupt-sim]
//! perfbench daemon --socket PATH        (the serve-mixed daemon process)
//! ```
//!
//! With `--trace 0` a run measures its workload for about `S` seconds,
//! setting up several times along the way (reporting the median), checks
//! every output outside the timed phase, and prints the end-to-end
//! metrics. With
//! `--trace 1` it instead runs the traced ledger of all three workloads
//! and prints the per-layer metrics. The last stdout line is the result
//! object; the lines before it record host and build facts and the
//! digest of the simulated statistics. A failed output check is counted
//! in `failed`, reported on stderr, and makes the exit code 1.
//!
//! The modelled caches always start empty (cold), as in the paper. The
//! model is unvalidated against real hardware, so no error figure is
//! given; the checks compare optimized paths against independent
//! in-repository oracles only. See `README.md` beside this file for why
//! each workload exists and which end-to-end metric each layer moves.

mod corpus_sweep;
mod layers;
mod paper_quick;
mod serve_mixed;
mod stats;
mod trace;

use fvl_mem::{SimdLevel, SimdPolicy};
use stats::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed the reproduction's claims are stated at (`experiments`'
/// own default).
pub const DEFAULT_SEED: u64 = 1;
/// A seed fixed before any tuning, used to show that every workload
/// passes its output checks on data it was not tuned on.
pub const HELD_OUT_SEED: u64 = 7919;
/// Set-ups per corpus-sweep or serve-mixed run, one at the start of
/// each equal segment of the run; `setup_s` is their median. A
/// paper-quick run sets up once per round instead.
pub const SETUPS: usize = 11;

/// Where runs keep their generated files, relative to the checkout root.
pub const OUT_DIR: &str = ".perfbench_out";

/// Parsed command line of a measuring run.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own self-test.
    pub tiny: bool,
    /// Flip one served simulation counter before the checks (self-test
    /// of the serve-mixed output check).
    pub corrupt_sim: bool,
}

impl Config {
    /// A fresh per-process scratch directory under [`OUT_DIR`].
    pub fn scratch(&self, tag: &str) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{tag}-{}", std::process::id()))
    }
}

const WORKLOADS: [&str; 3] = ["paper-quick", "corpus-sweep", "serve-mixed"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-sim]\n\
         \x20      perfbench daemon --socket PATH",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: Vec<String>) -> Option<Config> {
    let mut config = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_sim: false,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => config.workload = iter.next()?,
            "--seed" => config.seed = iter.next()?.parse().ok()?,
            "--seconds" => config.seconds = iter.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                config.trace = match iter.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--tiny" => config.tiny = true,
            "--corrupt-sim" => config.corrupt_sim = true,
            _ => return None,
        }
    }
    WORKLOADS
        .contains(&config.workload.as_str())
        .then_some(config)
}

/// The commit of the checkout, read from `.git` without spawning git;
/// `unknown` when the checkout is not a git repository.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|refs| {
                        refs.lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.to_string()
    }
}

fn print_facts(config: &Config, level: SimdLevel) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host nproc={nproc} simd_active={} simd_best={} rustc=\"{}\" commit={}",
        level.label(),
        SimdLevel::detect_best().label(),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
    );
    println!(
        "run workload={} seed={} seconds={} trace={} tiny={} default_seed={DEFAULT_SEED} \
         held_out_seed={HELD_OUT_SEED} caches=cold model=unvalidated",
        config.workload,
        config.seed,
        config.seconds,
        u8::from(config.trace),
        config.tiny,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return serve_mixed::daemon_main(&args[1..]);
    }
    let Some(config) = parse(args) else {
        return usage();
    };
    // Pin the replay kernel before the first replay, as the CLI does.
    let level = fvl_mem::simd::set_policy(SimdPolicy::from_env());
    if let Err(err) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("error: cannot create {OUT_DIR}: {err}");
        return ExitCode::FAILURE;
    }
    print_facts(&config, level);
    let result: std::io::Result<Outcome> = if config.trace {
        layers::traced_run(&config)
    } else {
        match config.workload.as_str() {
            "paper-quick" => Ok(paper_quick::run(&config)),
            "corpus-sweep" => corpus_sweep::run(&config),
            _ => serve_mixed::run(&config),
        }
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("error: {} run failed: {err}", config.workload);
            ExitCode::FAILURE
        }
    }
}
