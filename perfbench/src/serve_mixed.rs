//! `serve-mixed`: a closed loop of `nproc` client connections against
//! an `fvl-serve` daemon process on a Unix socket.
//!
//! Each session says hello, uploads a freshly seeded trace (a write),
//! runs one `simulate` per geometry/policy in the zoo below (reads),
//! one cheap smoke experiment job and one metrics export, then says
//! bye. A job is one request/response exchange after the handshake.
//! Set-up boots the daemon and warms its trace store, because users pay
//! captures once per daemon lifetime. A run is [`SETUPS`] segments, each
//! a set-up and then the load against that fresh daemon for its share of
//! the run, so the set-ups see the same host speed as the load. This is
//! the only workload that runs the service layers; it does no reuse or
//! decode work.

use crate::stats::{self, fnv64, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{Config, SETUPS};
use fvl_bench::corpus::synth_trace;
use fvl_bench::metrics::{self, RunInfo};
use fvl_bench::remote::{simulate_packed, RemoteClient, RemoteError, SessionSpec};
use fvl_bench::{experiments, ExperimentContext};
use fvl_cache::ReplacementKind;
use fvl_check::{OracleCache, OraclePolicy, OracleReplacement};
use fvl_mem::frame::{kv_get, parse_kv, ErrorCode};
use fvl_mem::PackedTrace;
use fvl_serve::{Daemon, ServeConfig};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cheap experiments the sessions rotate through (smoke size, captures
/// warm in the daemon's store).
pub const SMOKE_EXPERIMENTS: [&str; 3] = ["fig1", "fig10", "table1"];

/// The geometry/policy zoo every uploaded trace is simulated against.
pub const SIM_CONFIGS: [&str; 4] = [
    "size=8192\nline=32\nassoc=1\nwrite=back\npolicy=lru\n",
    "size=16384\nline=32\nassoc=2\nwrite=back\npolicy=rrip\n",
    "size=32768\nline=32\nassoc=4\nwrite=through\npolicy=random\n",
    "size=65536\nline=64\nassoc=8\nwrite=back\npolicy=pinned\n",
];

/// Distinct seeded traces the sessions upload in rotation. Fixed (not
/// derived from the host) so the digest is the same on every machine.
pub const UPLOADS: usize = 4;
const UPLOAD_ACCESSES: u64 = 256 * 1024;
const TINY_UPLOAD_ACCESSES: u64 = 4 * 1024;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Extra connection attempts after a `BUSY` refusal.
const CONNECT_RETRIES: u32 = 2;
/// Closed-loop seconds of the traced ledger.
const LEDGER_SECONDS: f64 = 5.0;

// ---- the daemon process --------------------------------------------------

/// `perfbench daemon --socket PATH`: serves until stdin closes, then
/// drains and exits.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let [flag, path] = args else {
        eprintln!("usage: perfbench daemon --socket PATH");
        return ExitCode::from(2);
    };
    if flag != "--socket" {
        eprintln!("usage: perfbench daemon --socket PATH");
        return ExitCode::from(2);
    }
    let config = ServeConfig {
        drain_grace: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let handle = match Daemon::builder(&format!("unix:{path}"))
        .config(config)
        .log(Box::new(io::sink()))
        .spawn()
    {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("error: daemon cannot bind {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = io::stdout();
    if writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    // The parent closes our stdin to stop us (or by exiting).
    let _ = io::stdin().read_to_end(&mut Vec::new());
    handle.shutdown();
    ExitCode::SUCCESS
}

/// A daemon child process; dropping it closes its stdin and waits.
struct DaemonProc {
    child: Child,
    addr: String,
}

impl DaemonProc {
    fn spawn(socket: &Path) -> io::Result<DaemonProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("daemon")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line)?;
        let proc = DaemonProc {
            child,
            addr: format!("unix:{}", socket.display()),
        };
        if line.trim() != "ready" {
            return Err(io::Error::other("daemon did not start"));
        }
        Ok(proc)
    }

    fn peak_rss_mib(&self) -> f64 {
        stats::peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        if let Err(err) = self.child.wait() {
            eprintln!("warning: cannot wait for the daemon: {err}");
        }
    }
}

fn spec(tenant: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        tenant: tenant.to_string(),
        input: "test".to_string(),
        seed,
        smoke: true,
    }
}

/// Set-up: boot a daemon and warm its store with every smoke
/// experiment the sessions will request.
fn setup(socket: &Path, seed: u64) -> io::Result<(DaemonProc, f64)> {
    let start = Instant::now();
    let daemon = DaemonProc::spawn(socket)?;
    let mut client = RemoteClient::connect(&daemon.addr, &spec("warm", seed), TIMEOUT)
        .map_err(io::Error::other)?;
    for name in SMOKE_EXPERIMENTS {
        client
            .run_experiment(name, io::sink())
            .map_err(io::Error::other)?;
    }
    client.bye().map_err(io::Error::other)?;
    Ok((daemon, start.elapsed().as_secs_f64()))
}

// ---- the load ------------------------------------------------------------

/// One uploadable trace: its file bytes and the resident form the
/// checks simulate in process.
pub struct Upload {
    bytes: Vec<u8>,
    packed: PackedTrace,
}

pub fn uploads(seed: u64, tiny: bool) -> Vec<Upload> {
    let accesses = if tiny {
        TINY_UPLOAD_ACCESSES
    } else {
        UPLOAD_ACCESSES
    };
    (0..UPLOADS as u64)
        .map(|i| {
            let packed = synth_trace(accesses, seed.wrapping_mul(1000).wrapping_add(i + 1));
            let mut bytes = Vec::new();
            packed
                .write_to(&mut bytes)
                .expect("writing into memory cannot fail");
            Upload { bytes, packed }
        })
        .collect()
}

#[derive(Copy, Clone, Debug)]
enum Kind {
    Upload,
    Sim,
    Experiment,
    Metrics,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Upload => "serve.upload",
            Kind::Sim => "serve.sim",
            Kind::Experiment => "serve.experiment",
            Kind::Metrics => "serve.metrics",
        }
    }
}

/// `key=value` counter lines of a sim result.
type Counters = Vec<(String, String)>;

/// What one load thread saw.
#[derive(Default)]
struct Log {
    session_secs: Vec<f64>,
    /// Latency of every completed job, in ms.
    jobs: Vec<f64>,
    /// `(upload, config, served counters)`.
    sims: Vec<(usize, usize, Counters)>,
    /// `(upload, accesses the daemon counted)`.
    uploads: Vec<(usize, u64)>,
    /// `(experiment, stdout bytes)`.
    experiments: Vec<(usize, Vec<u8>)>,
    /// `(experiment run in the session, metrics document)`.
    metrics: Vec<(usize, Vec<u8>)>,
    references: u64,
    attempted: u64,
    failed: u64,
    refused: u64,
    retries: u64,
}

struct Load<'a> {
    addr: &'a str,
    seed: u64,
    uploads: &'a [Upload],
    threads: usize,
    tracer: Option<(&'a Tracer, SpanId)>,
    sessions: AtomicU64,
}

impl Load<'_> {
    /// Times `f` as one job (and one span when tracing).
    fn job<R>(
        &self,
        log: &mut Log,
        kind: Kind,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> Result<R, RemoteError>,
    ) -> Option<R> {
        log.attempted += 1;
        let start = Instant::now();
        let result = match (self.tracer, parent) {
            (Some((tracer, _)), Some(parent)) => {
                tracer.span(kind.span(), Some(parent), request, |_| f())
            }
            _ => f(),
        };
        match result {
            Ok(value) => {
                log.jobs.push(start.elapsed().as_secs_f64() * 1e3);
                Some(value)
            }
            Err(err) => {
                log.failed += 1;
                eprintln!("serve-mixed: {kind:?} job failed: {err}");
                None
            }
        }
    }

    fn connect(
        &self,
        log: &mut Log,
        tenant: &str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<RemoteClient> {
        for attempt in 0..=CONNECT_RETRIES {
            log.attempted += 1;
            let connect = || RemoteClient::connect(self.addr, &spec(tenant, self.seed), TIMEOUT);
            let result = match (self.tracer, parent) {
                (Some((tracer, _)), Some(parent)) => {
                    tracer.span("serve.connect", Some(parent), request, |_| connect())
                }
                _ => connect(),
            };
            match result {
                Ok(client) => return Some(client),
                Err(RemoteError::Rejected(ErrorCode::Busy, _)) => {
                    log.failed += 1;
                    log.refused += 1;
                    if attempt < CONNECT_RETRIES {
                        log.retries += 1;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                Err(err) => {
                    log.failed += 1;
                    eprintln!("serve-mixed: connect failed: {err}");
                    return None;
                }
            }
        }
        None
    }

    /// One whole session: hello, upload, sims, experiment, metrics, bye.
    fn session(&self, log: &mut Log, thread: usize, k: usize) {
        let request = self.sessions.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let span = self
            .tracer
            .map(|(tracer, root)| tracer.begin("serve.session", Some(root), request));
        self.session_body(log, thread, k, span, request);
        if let (Some((tracer, _)), Some(span)) = (self.tracer, span) {
            tracer.end(span);
        }
        log.session_secs.push(start.elapsed().as_secs_f64());
    }

    fn session_body(
        &self,
        log: &mut Log,
        thread: usize,
        k: usize,
        span: Option<SpanId>,
        request: u64,
    ) {
        let tenant = format!("load-{thread}");
        let Some(mut client) = self.connect(log, &tenant, span, request) else {
            return;
        };
        let u = (thread + k * self.threads) % self.uploads.len();
        let Some(accesses) = self.job(log, Kind::Upload, span, request, || {
            client.upload_trace(&self.uploads[u].bytes)
        }) else {
            return;
        };
        log.uploads.push((u, accesses));
        for (c, config) in SIM_CONFIGS.iter().enumerate() {
            let Some(kv) = self.job(log, Kind::Sim, span, request, || client.simulate(config))
            else {
                return;
            };
            log.references += kv_get(&kv, "accesses")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            log.sims.push((u, c, kv));
        }
        let e = (thread + k) % SMOKE_EXPERIMENTS.len();
        let mut stdout = Vec::new();
        let Some(summary) = self.job(log, Kind::Experiment, span, request, || {
            client.run_experiment(SMOKE_EXPERIMENTS[e], &mut stdout)
        }) else {
            return;
        };
        log.references += summary.references;
        log.experiments.push((e, stdout));
        let Some(doc) = self.job(log, Kind::Metrics, span, request, || client.metrics("json"))
        else {
            return;
        };
        log.metrics.push((e, doc));
        log.attempted += 1;
        if let Err(err) = client.bye() {
            log.failed += 1;
            eprintln!("serve-mixed: bye failed: {err}");
        }
    }

    /// Runs the closed loop until `deadline`; returns the per-thread
    /// logs.
    fn run(&self, deadline: Instant) -> Vec<Log> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|thread| {
                    scope.spawn(move || {
                        let mut log = Log::default();
                        let mut k = 0;
                        while Instant::now() < deadline {
                            self.session(&mut log, thread, k);
                            k += 1;
                        }
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a load thread panicked"))
                .collect()
        })
    }
}

// ---- checks --------------------------------------------------------------

fn oracle_counts(packed: &PackedTrace, config: &str) -> (u64, u64, u64) {
    let kv = parse_kv(config.as_bytes());
    let num = |key: &str| -> u64 {
        kv_get(&kv, key)
            .and_then(|v| v.parse().ok())
            .expect("zoo configs are complete")
    };
    let policy = match kv_get(&kv, "write") {
        Some("through") => OraclePolicy::WriteThrough,
        _ => OraclePolicy::WriteBack,
    };
    let replacement = match ReplacementKind::parse(kv_get(&kv, "policy").unwrap_or("lru"))
        .expect("zoo policies parse")
    {
        ReplacementKind::Lru => OracleReplacement::Lru,
        ReplacementKind::Random(seed) => OracleReplacement::Random(seed),
        ReplacementKind::Rrip => OracleReplacement::Rrip,
        ReplacementKind::PinnedLru => OracleReplacement::PinnedLru,
    };
    let mut oracle = OracleCache::with_replacement(
        num("size"),
        num("line") as u32,
        num("assoc") as u32,
        policy,
        replacement,
    );
    packed.replay_into(&mut oracle);
    let st = oracle.stats();
    (st.hits() + st.misses(), st.hits(), st.misses())
}

/// The in-process smoke run of one experiment: its stdout and its plain
/// schema-v1 metrics document, as a fresh daemon session produces them.
fn local_experiment(name: &str, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let ctx = ExperimentContext::smoke().with_seed(seed);
    let (_, runner) = experiments::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("smoke experiments are registered");
    let stdout = format!("{}\n", runner(&ctx)).into_bytes();
    let run = RunInfo::new("test", seed, true);
    let mut doc =
        metrics::json_report_full(ctx.engine(), &run, Some(ctx.store()), false).render_pretty();
    doc.push('\n');
    (stdout, doc.into_bytes())
}

/// Checks every served output against the in-process simulator plus
/// the `OracleCache`, and every served experiment and export against
/// the in-process runner. Prints the digest of the simulated outputs.
fn check(out: &mut Outcome, config: &Config, uploads: &[Upload], logs: &mut [Log]) {
    let mut expected = Vec::new();
    let mut digest_input = String::new();
    for (u, upload) in uploads.iter().enumerate() {
        let mut row = Vec::new();
        for (c, sim_config) in SIM_CONFIGS.iter().enumerate() {
            let local = simulate_packed(&upload.packed, sim_config).expect("zoo configs are valid");
            let kv = parse_kv(local.as_bytes());
            let field = |key: &str| kv_get(&kv, key).and_then(|v| v.parse::<u64>().ok());
            let oracle = oracle_counts(&upload.packed, sim_config);
            out.check(
                (field("accesses"), field("hits"), field("misses"))
                    == (Some(oracle.0), Some(oracle.1), Some(oracle.2)),
                || format!("serve-mixed: upload {u} config {c}: simulate_packed {kv:?} vs oracle {oracle:?}"),
            );
            digest_input.push_str(&format!("sim {u} {c}\n{local}"));
            row.push(kv);
        }
        expected.push(row);
    }
    let local: Vec<(Vec<u8>, Vec<u8>)> = SMOKE_EXPERIMENTS
        .iter()
        .map(|name| local_experiment(name, config.seed))
        .collect();
    for (name, (stdout, doc)) in SMOKE_EXPERIMENTS.iter().zip(&local) {
        digest_input.push_str(&format!("experiment {name}\n"));
        digest_input.push_str(&String::from_utf8_lossy(stdout));
        digest_input.push_str(&String::from_utf8_lossy(doc));
    }
    if config.corrupt_sim {
        if let Some((_, _, kv)) = logs.iter_mut().flat_map(|l| l.sims.iter_mut()).next() {
            if let Some((_, hits)) = kv.iter_mut().find(|(k, _)| k == "hits") {
                let flipped = hits.parse::<u64>().map_or(1, |h| h ^ 1);
                *hits = flipped.to_string();
            }
        }
    }
    for log in logs.iter() {
        for (u, accesses) in &log.uploads {
            out.check(*accesses == uploads[*u].packed.accesses(), || {
                format!("serve-mixed: upload {u} counted {accesses} accesses")
            });
        }
        for (u, c, kv) in &log.sims {
            out.check(*kv == expected[*u][*c], || {
                format!(
                    "serve-mixed: served sim of upload {u} config {c} was {kv:?}, expected {:?}",
                    expected[*u][*c]
                )
            });
        }
        for (e, stdout) in &log.experiments {
            out.check(*stdout == local[*e].0, || {
                format!(
                    "serve-mixed: served {} stdout differs from the in-process runner",
                    SMOKE_EXPERIMENTS[*e]
                )
            });
        }
        for (e, doc) in &log.metrics {
            out.check(*doc == local[*e].1, || {
                format!(
                    "serve-mixed: served metrics after {} differ from the in-process export",
                    SMOKE_EXPERIMENTS[*e]
                )
            });
        }
    }
    println!(
        "digest serve-mixed seed={} sims_and_jobs={:016x}",
        config.seed,
        fnv64(digest_input.as_bytes())
    );
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn socket(config: &Config) -> PathBuf {
    config.scratch("serve").with_extension("sock")
}

pub fn run(config: &Config) -> io::Result<Outcome> {
    let uploads = uploads(config.seed, config.tiny);
    let slice = Duration::from_secs_f64(config.seconds / SETUPS as f64);
    let threads = threads();
    let (mut setups, mut logs) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    for _ in 0..SETUPS {
        let (daemon, secs) = setup(&socket(config), config.seed)?;
        setups.push(secs);
        let load = Load {
            addr: &daemon.addr,
            seed: config.seed,
            uploads: &uploads,
            threads,
            tracer: None,
            sessions: AtomicU64::new(0),
        };
        let start = Instant::now();
        logs.extend(load.run(start + slice));
        measured += start.elapsed().as_secs_f64();
        drop(daemon);
    }

    let mut out = Outcome::default();
    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
    check(&mut out, config, &uploads, &mut logs);
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.jobs.iter().copied()).collect();
    let sessions: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.session_secs.iter().copied())
        .collect();
    let references: u64 = logs.iter().map(|l| l.references).sum();
    if latencies.is_empty() {
        return Err(io::Error::other("no serve job completed"));
    }
    println!(
        "samples serve-mixed connections={threads} sessions={} jobs={} (p99 leaves {} beyond)",
        sessions.len(),
        latencies.len(),
        latencies.len() / 100,
    );
    out.metric("wall_s", stats::median(&sessions), "s");
    out.metric("mrefs_per_s", references as f64 / measured / 1e6, "Mref/s");
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("ok_frac", out.ok_frac(), "frac");
    out.metric("jobs_per_s", latencies.len() as f64 / measured, "1/s");
    out.metric("job_p50_ms", stats::percentile(&latencies, 50.0), "ms");
    out.metric("job_p99_ms", stats::percentile(&latencies, 99.0), "ms");
    Ok(out)
}

/// Traced serve ledger: a shorter closed loop with a span per session
/// and per job, plus the in-process `simulate_packed` baseline the
/// served sim latency is compared with.
pub fn ledger(
    config: &Config,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> io::Result<()> {
    let uploads = uploads(config.seed, config.tiny);
    let (daemon, _) = setup(&socket(config), config.seed)?;
    let addr = daemon.addr.clone();
    let load = Load {
        addr: &addr,
        seed: config.seed,
        uploads: &uploads,
        threads: threads(),
        tracer: Some((tracer, parent)),
        sessions: AtomicU64::new(0),
    };
    let seconds = LEDGER_SECONDS.min(config.seconds);
    let mut logs = load.run(Instant::now() + Duration::from_secs_f64(seconds));
    out.metric("serve.peak_rss_mib", daemon.peak_rss_mib(), "MiB");
    drop(daemon);
    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
    check(out, config, &uploads, &mut logs);

    let p50 = |name: &str| {
        let v = tracer.self_seconds_named(name);
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v) * 1e3
        }
    };
    let mut local = Vec::new();
    for upload in uploads.iter().cycle().take(3 * UPLOADS) {
        for sim_config in SIM_CONFIGS {
            let start = Instant::now();
            std::hint::black_box(simulate_packed(&upload.packed, sim_config).ok());
            local.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let served_sim = p50("serve.sim");
    out.metric("serve.connect_ms", p50("serve.connect"), "ms");
    out.metric("serve.upload_ms", p50("serve.upload"), "ms");
    out.metric("serve.sim_ms", served_sim, "ms");
    out.metric("serve.experiment_ms", p50("serve.experiment"), "ms");
    out.metric("serve.metrics_ms", p50("serve.metrics"), "ms");
    out.metric(
        "serve.overhead_ms",
        served_sim - stats::median(&local),
        "ms",
    );
    out.metric(
        "serve.refused",
        logs.iter().map(|l| l.refused).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "serve.retries",
        logs.iter().map(|l| l.retries).sum::<u64>() as f64,
        "count",
    );
    Ok(())
}
