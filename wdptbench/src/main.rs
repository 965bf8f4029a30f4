//! `wdptbench` — the serving benchmark for `wdpt-serve`.
//!
//! ```text
//! wdptbench --workload repeat|skew|mix --seed N --seconds S --trace 0|1
//!           --server PATH/wdpt-serve --work-dir DIR
//! ```
//!
//! Generates the workload's seeded inputs, starts the release server on a
//! v2 snapshot with its shipped defaults, and drives it with a closed loop
//! of two loopback clients, checking every response against the oracle.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` adds the traced
//! in-process replay and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` beside this crate.

mod net;
mod oracle;
mod replay;
mod stats;
mod windows;
mod workload;

use net::{closed_loop, prepare, Conn, LoopSpec, Server};
use oracle::{Oracle, Response};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wdpt_obs::{HistogramSnapshot, Json, MetricsSnapshot};
use wdpt_serve::ServeConfig;
use workload::{Expect, Op, Workload};

/// Server starts `setup_s` is the median of: the least-stolen ones.
const SETUP_SPAWNS: usize = 15;
/// Server starts tried before settling for stolen ones; the last start
/// serves the run.
const SETUP_ATTEMPTS: usize = 30;
/// Wait after a start before reading its steal.
const STEAL_PAD: Duration = Duration::from_millis(20);
/// Closed-loop warm-up before timing starts.
const WARMUP: Duration = Duration::from_millis(1500);
/// Timed queries a run needs so that ten samples lie beyond p99.
const MIN_TIMED_OPS: usize = 1000;
/// One measurement window of the timed phase.
const WINDOW: Duration = Duration::from_millis(500);
/// The timed phase stops by `--seconds` times this (or
/// [`MIN_TIMED_CAP_S`]) even when it has fewer than [`MIN_TIMED_OPS`]
/// queries.
const MAX_TIMED_FACTOR: f64 = 2.0;
const MIN_TIMED_CAP_S: f64 = 20.0;
/// Reloads sent to an idle server after the loop on workloads whose
/// stream has none.
const RELOAD_PROBES: usize = 9;
/// Mismatches printed in full; the rest are only counted.
const MISMATCHES_SHOWN: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work_dir: PathBuf,
}

const USAGE: &str = "usage: wdptbench --workload repeat|skew|mix --seed N --seconds S \
                     --trace 0|1 --server PATH --work-dir DIR";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server, mut work_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        server: server.ok_or_else(|| missing("--server"))?,
        work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wdptbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wdptbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload;
    if !a.server.is_file() {
        return Err(format!("no server binary at {}", a.server.display()));
    }
    let max_rows = ServeConfig::default().max_rows;
    let shown = AtomicUsize::new(0);
    let log = |msg: &str| {
        if shown.fetch_add(1, Ordering::Relaxed) < MISMATCHES_SHOWN {
            eprintln!("wdptbench: {msg}");
        }
    };

    // Inputs.
    let dir = a
        .work_dir
        .join(format!("{}-{}-{}", w.name(), a.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
    let result = measure(a, &dir, max_rows, &log);
    let _ = std::fs::remove_dir_all(&dir);
    let (e2e, layers, attempted, failed, record) = result?;

    let metrics = if a.trace { layers } else { e2e };
    println!("{record}");
    let correct = failed == 0;
    if !correct {
        println!(
            "DEFECT: {failed} of {attempted} ops failed their check (error rate {:.6})",
            failed as f64 / attempted.max(1) as f64
        );
    }
    let out = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(attempted as u64)),
        ("failed", Json::int(failed as u64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ]);
    println!("{out}");
    Ok(())
}

/// Everything one run measures: end-to-end metrics, per-layer metrics,
/// ops attempted and failed, and the result record.
type Measured = (Metrics, Metrics, usize, usize, Json);

fn measure(
    a: &Args,
    dir: &Path,
    max_rows: usize,
    log: &(dyn Fn(&str) + Sync),
) -> Result<Measured, String> {
    let w = a.workload;
    let t_inputs = Instant::now();
    let snaps = workload::snapshots(w);
    let base_path = dir.join("base.snap");
    let delta_path = dir.join("base.delta");
    std::fs::write(&base_path, &snaps.base).map_err(|e| e.to_string())?;
    std::fs::write(&delta_path, &snaps.delta).map_err(|e| e.to_string())?;
    let streams = workload::streams(w, a.seed);
    let oracles = compute_oracles(&snaps, &streams)?;
    let prepared: Vec<_> = streams
        .iter()
        .map(|s| prepare(s, &oracles, &base_path, &delta_path))
        .collect();
    let first = prepared[0]
        .iter()
        .find(|p| matches!(p.expected, oracle::Expected::Answers(_)))
        .ok_or("the stream has no valid query")?;
    let inputs_s = t_inputs.elapsed().as_secs_f64();

    let db_name = if w == Workload::Skew {
        "synth"
    } else {
        "music"
    };
    let server_args: Vec<String> = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--snapshot".into(),
        format!("{db_name}={}", base_path.display()),
    ];
    let (mut attempted, mut failed) = (0, 0);
    let mut resp = Response::default();

    // Set-up: spawn to the first correct answer, repeated until
    // SETUP_SPAWNS starts saw no steal, or SETUP_ATTEMPTS ran out. The
    // reference kernel is timed after each start, to scale set-up time
    // like the loop's figures.
    let mut setups: Vec<(u64, f64, f64)> = Vec::new();
    let mut served = None;
    for k in 0..SETUP_ATTEMPTS {
        let (steal0, _) = net::steal_and_total();
        let t0 = Instant::now();
        let server = Server::spawn(&a.server, &server_args).map_err(|e| e.to_string())?;
        let mut c = Conn::open(&server.addr).map_err(|e| e.to_string())?;
        attempted += 1;
        let outcome = c
            .round_trip(&first.line, first.expected, &mut resp, max_rows)
            .map_err(|e| format!("first query: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        if let Err(e) = outcome {
            failed += 1;
            log(&format!("first query mismatch: {e}"));
        }
        drop(c);
        // Steal is counted in 10 ms ticks; let a pending one land.
        std::thread::sleep(STEAL_PAD);
        let steal = net::steal_and_total().0 - steal0;
        setups.push((steal, secs, windows::reference_ns() as f64));
        let clean = setups.iter().filter(|&&(steal, ..)| steal == 0).count();
        if clean >= SETUP_SPAWNS || k + 1 == SETUP_ATTEMPTS {
            served = Some(server);
            break;
        }
        server.shutdown().map_err(|e| e.to_string())?;
    }
    let setup_attempts = setups.len();
    setups.sort_by_key(|&(steal, ..)| steal);
    setups.truncate(SETUP_SPAWNS);
    let setup_raw_s = stats::median(&setups.iter().map(|s| s.1).collect::<Vec<_>>())
        .expect("at least one server was started");
    let setup_slowdown = stats::median(&setups.iter().map(|s| s.2).collect::<Vec<_>>())
        .expect("at least one server was started")
        / windows::REFERENCE_NOMINAL_NS;
    let server = served.expect("at least one server was started");

    // The closed loop, timed in windows for `--seconds`.
    let admin = RefCell::new(Conn::open(&server.addr).map_err(|e| e.to_string())?);
    let metrics_start: RefCell<Option<Result<Json, String>>> = RefCell::new(None);
    let on_start = || {
        let m = admin.borrow_mut().metrics().map_err(|e| e.to_string());
        *metrics_start.borrow_mut() = Some(m);
    };
    let seconds = a.seconds as f64;
    let enough = |ticks: &[net::Tick]| {
        let last = ticks.last().expect("the phase starts with a tick");
        last.at_ns as f64 / 1e9 >= seconds && last.done >= MIN_TIMED_OPS
    };
    let spec = LoopSpec {
        addr: &server.addr,
        warmup: WARMUP,
        window: WINDOW,
        enough: &enough,
        max_seconds: (seconds * MAX_TIMED_FACTOR).max(MIN_TIMED_CAP_S),
        max_rows,
    };
    let server_cpu = || server.cpu_ms().unwrap_or(f64::NAN);
    let (tallies, ticks) = closed_loop(&spec, &prepared, &on_start, &server_cpu, log);
    let peak_rss_mb = server.peak_rss_mb().map_err(|e| e.to_string())?;
    let metrics_end = admin.borrow_mut().metrics().map_err(|e| e.to_string())?;
    let metrics_start = metrics_start
        .into_inner()
        .ok_or("the timed phase never started")??;

    let samples: Vec<net::Sample> = tallies.iter().flat_map(|t| t.queries.clone()).collect();
    let mut reloads: Vec<f64> = tallies.iter().flat_map(|t| t.reloads_ms.clone()).collect();
    attempted += tallies.iter().map(|t| t.attempted).sum::<usize>();
    failed += tallies.iter().map(|t| t.failed).sum::<usize>();
    let timed = windows::summarize(&ticks, &samples, MIN_TIMED_OPS);
    let latencies = &timed.latencies;
    let queries = samples.len();
    if latencies.is_empty() || timed.cpu_ms_per_op.is_nan() {
        return Err("no timed query completed in a measured window".into());
    }

    // Reload latency on an idle server, for workloads that never reload.
    if a.trace && reloads.is_empty() {
        let mut admin = admin.borrow_mut();
        for k in 0..RELOAD_PROBES {
            let op = Op::Reload {
                with_delta: k % 2 == 0,
            };
            let p = &prepare(std::slice::from_ref(&op), &oracles, &base_path, &delta_path)[0];
            attempted += 1;
            let t0 = Instant::now();
            match admin.round_trip(&p.line, p.expected, &mut resp, max_rows) {
                Ok(Ok(())) => reloads.push(t0.elapsed().as_secs_f64() * 1e3),
                Ok(Err(e)) => {
                    failed += 1;
                    log(&format!("reload mismatch: {e}"));
                }
                Err(e) => return Err(format!("reload: {e}")),
            }
        }
    }
    drop(admin);
    server.shutdown().map_err(|e| e.to_string())?;

    let p50 = stats::percentile(latencies, 50.0).expect("latencies are nonempty");
    let p99 = stats::percentile(latencies, 99.0).expect("latencies are nonempty");
    let slow = timed.slowdown;
    let e2e: Metrics = vec![
        ("rps", timed.rps * slow, "1/s"),
        ("latency_p50_ms", p50 / slow, "ms"),
        ("latency_p99_ms", p99 / slow, "ms"),
        ("setup_s", setup_raw_s / setup_slowdown, "s"),
        ("cpu_ms_per_op", timed.cpu_ms_per_op / slow, "ms"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        (
            "bytes_per_triple",
            snaps.base.len() as f64 / snaps.triples as f64,
            "bytes",
        ),
    ];

    // Server counters over the timed phase.
    let delta = counters_since(&metrics_start, &metrics_end)?;
    let c = |name: &str| delta.counter(name) as f64;
    let lookups =
        c("serve.plan_cache.hit") + c("serve.plan_cache.miss") + c("serve.plan_cache.coalesced");
    let mut layers: Metrics = vec![
        (
            "serve.plan_cache.hit_ratio",
            (c("serve.plan_cache.hit") + c("serve.plan_cache.coalesced")) / lookups.max(1.0),
            "ratio",
        ),
        (
            "serve.plan_cache.evictions_per_1k",
            c("serve.plan_cache.evicted") * 1e3 / queries as f64,
            "per_1k",
        ),
        (
            "serve.plan.replans_per_1k",
            c("serve.plan.replans") * 1e3 / queries as f64,
            "per_1k",
        ),
        (
            "serve.queue_wait_us_p50",
            delta
                .histogram("serve.request.queue_us")
                .map_or(0.0, |h| hist_quantile(h, 0.5)),
            "us",
        ),
        (
            "serve.reload_p50_ms",
            stats::median(&reloads).unwrap_or(0.0),
            "ms",
        ),
    ];

    let mut lines = vec![format!(
        "wdptbench {} seed={} seconds={} trace={} triples={} snapshot={}B inputs={inputs_s:.2}s",
        w.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        snaps.triples,
        snaps.base.len()
    )];
    let n = latencies.len();
    let tail = stats::tail(latencies);
    lines.push(format!(
        "latency samples={n} raw p50={p50:.4}ms p99={p99:.4}ms ({} beyond p99); highest supported tail: {}",
        stats::beyond(n, 99.0),
        tail.map_or("none".to_string(), |(p, v)| format!("p{p}={v:.4}ms"))
    ));
    lines.push(format!(
        "host slowdown (reference kernel median / {:.0} ns): loop {slow:.4}, set-up {setup_slowdown:.4}; \
         raw rps={:.4} cpu_ms_per_op={:.4} setup_s={setup_raw_s:.6}",
        windows::REFERENCE_NOMINAL_NS,
        timed.rps,
        timed.cpu_ms_per_op
    ));
    lines.push(format!(
        "windows used={} of {} (clean: steal <= {:.0}%; worst used {:.1}%); \
         steal over the timed phase {:.1}%; timed queries={queries} reloads={} setup starts used={} of {setup_attempts}",
        timed.used,
        timed.total,
        windows::STEAL_CLEAN * 100.0,
        timed.worst_used_steal * 100.0,
        timed.steal_share * 100.0,
        reloads.len(),
        setups.len()
    ));

    let mut replay_info = Json::Null;
    if a.trace {
        let ops = workload::interleave(&streams);
        let budget = Duration::from_secs_f64((a.seconds as f64 * 0.2).max(1.0));
        let r = replay::run(&ops, &snaps, &oracles, budget, log);
        attempted += r.attempted;
        failed += r.failed;
        layers.extend(r.metrics.iter().copied());
        layers.push(("serve.unaccounted_us", p50 * 1e3 - r.path_us, "us"));
        let spans_path = a.work_dir.join(format!("spans-{}.jsonl", w.name()));
        std::fs::write(&spans_path, r.tracer.dump()).map_err(|e| e.to_string())?;
        lines.push(format!(
            "replay ops={} spans={} -> {}",
            r.ops,
            r.tracer.spans.len(),
            spans_path.display()
        ));
        for (name, (us, n)) in r.tracer.self_summary() {
            lines.push(format!(
                "  self time {name}: median {us:.2} us over {n} spans"
            ));
        }
        replay_info = Json::obj([
            ("ops", Json::int(r.ops as u64)),
            ("spans", Json::str(spans_path.display().to_string())),
        ]);
    }

    let shown = if a.trace { &layers } else { &e2e };
    for (name, value, unit) in shown {
        lines.push(format!("{name} = {value:.6} {unit}"));
    }
    lines.push(format!(
        "error_rate = {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    ));
    for l in &lines {
        println!("{l}");
    }

    let cfg = ServeConfig::default();
    let record = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::int(a.seed)),
        ("seconds", Json::int(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("environment", environment()),
        (
            "server",
            Json::obj([
                (
                    "args",
                    Json::Arr(server_args.iter().map(Json::str).collect()),
                ),
                ("workers", Json::int(cfg.workers as u64)),
                ("eval_threads", Json::int(cfg.eval_threads as u64)),
                ("cache_capacity", Json::int(cfg.cache_capacity as u64)),
                ("slowlog_threshold_ms", Json::int(cfg.slowlog_threshold_ms)),
                ("max_rows", Json::int(cfg.max_rows as u64)),
            ]),
        ),
        ("clients", Json::int(workload::CLIENTS as u64)),
        ("latency_samples", Json::int(latencies.len() as u64)),
        (
            "host",
            Json::obj([
                (
                    "reference_nominal_ns",
                    Json::num(windows::REFERENCE_NOMINAL_NS),
                ),
                ("slowdown", Json::num(slow)),
                ("setup_slowdown", Json::num(setup_slowdown)),
                (
                    "raw",
                    Json::obj([
                        ("rps", Json::num(timed.rps)),
                        ("latency_p50_ms", Json::num(p50)),
                        ("latency_p99_ms", Json::num(p99)),
                        ("cpu_ms_per_op", Json::num(timed.cpu_ms_per_op)),
                        ("setup_s", Json::num(setup_raw_s)),
                    ]),
                ),
            ]),
        ),
        (
            "windows",
            Json::obj([
                ("seconds", Json::num(WINDOW.as_secs_f64())),
                ("used", Json::int(timed.used as u64)),
                ("total", Json::int(timed.total as u64)),
                ("steal_share", Json::num(timed.steal_share)),
                ("worst_used_steal", Json::num(timed.worst_used_steal)),
                (
                    "ops_steal_reference_ns",
                    Json::Arr(
                        windows::windows(&ticks)
                            .iter()
                            .map(|w| {
                                Json::Arr(vec![
                                    Json::int(w.ops as u64),
                                    Json::num((w.steal_share * 1e3).round() / 1e3),
                                    Json::int(w.reference_ns),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("replay", replay_info),
    ]);
    Ok((e2e, layers, attempted, failed, record))
}

/// The oracle of every distinct valid query in the streams.
fn compute_oracles(
    snaps: &workload::Snapshots,
    streams: &[Vec<Op>],
) -> Result<HashMap<String, Oracle>, String> {
    let (mut i, db) = wdpt_store::decode_snapshot_shared(&snaps.base).map_err(|e| e.to_string())?;
    let mut oracles = HashMap::new();
    for op in streams.iter().flatten() {
        if let Op::Query {
            text,
            expect: Expect::Answers,
        } = op
        {
            if !oracles.contains_key(text) {
                oracles.insert(text.clone(), Oracle::compute(&mut i, &db, text)?);
            }
        }
    }
    Ok(oracles)
}

/// Counter and histogram changes between two `metrics` responses.
fn counters_since(start: &Json, end: &Json) -> Result<MetricsSnapshot, String> {
    let parse = |j: &Json| {
        j.get("metrics")
            .ok_or("metrics response has no \"metrics\"".to_string())
            .and_then(wdpt_obs::snapshot_from_json)
    };
    Ok(parse(end)?.since(&parse(start)?))
}

/// Quantile `q` of a log₂-bucketed histogram, interpolated linearly
/// inside the bucket that holds it.
fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &b) in h.buckets.iter().enumerate() {
        let b = b as f64;
        if b > 0.0 && seen + b >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1).min(62)) as f64;
            return lo + lo * (target - seen) / b;
        }
        seen += b;
    }
    h.max as f64
}

/// nproc, commit (in a git checkout), rustc, and a hash of the sources
/// the benchmark built.
fn environment() -> Json {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = Path::new(".git")
        .exists()
        .then(|| cmd("git", &["rev-parse", "HEAD"]))
        .flatten();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::int(nproc as u64)),
        ("commit", commit.map_or(Json::Null, Json::str)),
        (
            "rustc",
            cmd("rustc", &["--version"]).map_or(Json::Null, Json::str),
        ),
        (
            "source_fnv64",
            source_hash(Path::new(".")).map_or(Json::Null, |h| Json::str(format!("{h:016x}"))),
        ),
    ])
}

/// FNV-1a over the paths and contents of `crates/`, `Cargo.toml` and
/// `Cargo.lock` under `root`, in sorted path order.
fn source_hash(root: &Path) -> Option<u64> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut any = false;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        any = true;
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    any.then_some(h)
}
