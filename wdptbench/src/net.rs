//! The served side: the `wdpt-serve` process, its loopback connections,
//! and the closed-loop clients.

use crate::oracle::{Expected, Oracle, Response};
use crate::workload::Op;
use std::collections::HashMap;
use std::ffi::{c_int, c_ulong};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};
use wdpt_obs::Json;

const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_ulong = 9;

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// A running `wdpt-serve` process. Dropping it kills the process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `bin` with `args` and waits for its "listening on" line.
    /// The server is killed when this process ends, even by a signal that
    /// skips [`Drop`].
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: the hook only calls prctl(2), which is async-signal-safe
        // and touches no memory of the forked copy.
        unsafe {
            cmd.pre_exec(|| match prctl(PR_SET_PDEATHSIG, SIGKILL) {
                0 => Ok(()),
                _ => Err(io::Error::last_os_error()),
            });
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Server {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "wdpt-serve did not start: {line:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time of the process so far, from
    /// `/proc/<pid>/stat` (clock ticks of 10 ms).
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        // utime and stime are fields 14 and 15; `fields[0]` is field 3.
        let tick = |k: usize| fields.get(k - 3).and_then(|f| f.parse::<f64>().ok());
        match (tick(14), tick(15)) {
            (Some(u), Some(s)) => Ok((u + s) * 10.0),
            _ => Err(io::Error::other("malformed /proc stat")),
        }
    }

    /// Peak resident set size (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the server to drain and exit, and waits for it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut c = Conn::open(&self.addr)?;
        c.send(r#"{"op":"shutdown"}"#)?;
        c.read_line()?;
        drop(c);
        // Drain the exit message so the process never blocks on the pipe.
        let _ = io::copy(&mut self.stdout, &mut io::sink());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("wdpt-serve exited with {status}")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            w: BufWriter::new(s.try_clone()?),
            r: BufReader::new(s),
            line: String::new(),
        })
    }

    pub fn send(&mut self, request: &str) -> io::Result<()> {
        self.w.write_all(request.as_bytes())?;
        self.w.write_all(b"\n")?;
        self.w.flush()
    }

    /// The next response line, newline stripped.
    pub fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.r.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\n', '\r']))
    }

    /// Sends `request` and reads one whole response into `resp`, checking
    /// it against `expected`.
    pub fn round_trip(
        &mut self,
        request: &str,
        expected: Expected,
        resp: &mut Response,
        max_rows: usize,
    ) -> io::Result<Result<(), String>> {
        resp.clear();
        self.send(request)?;
        loop {
            let line = self.read_line()?;
            match resp.feed(line, expected.oracle()) {
                Ok(None) => continue,
                Ok(Some(terminal)) => return Ok(resp.judge(expected, &terminal, max_rows)),
                Err(e) => return Ok(Err(e)),
            }
        }
    }

    /// The server's `metrics` op as JSON.
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.send(r#"{"op":"metrics"}"#)?;
        let line = self.read_line()?;
        Json::parse(line).map_err(io::Error::other)
    }
}

/// A request line and what its response must be.
pub struct Prepared<'a> {
    pub line: String,
    pub expected: Expected<'a>,
    pub reload: bool,
}

/// Wire lines for a stream, with each query's oracle attached.
pub fn prepare<'a>(
    ops: &[Op],
    oracles: &'a HashMap<String, Oracle>,
    base: &Path,
    delta: &Path,
) -> Vec<Prepared<'a>> {
    ops.iter()
        .map(|op| match op {
            Op::Query { text, .. } => Prepared {
                line: Json::obj([("op", Json::str("query")), ("query", Json::str(text))])
                    .to_string(),
                expected: Expected::of(op, oracles),
                reload: false,
            },
            Op::Reload { with_delta } => {
                let mut pairs = vec![
                    ("op", Json::str("reload")),
                    ("snapshot", Json::str(base.display().to_string())),
                ];
                if *with_delta {
                    pairs.push((
                        "deltas",
                        Json::Arr(vec![Json::str(delta.display().to_string())]),
                    ));
                }
                Prepared {
                    line: Json::obj(pairs).to_string(),
                    expected: Expected::Reload,
                    reload: true,
                }
            }
        })
        .collect()
}

/// One timed query: when it completed (ns after the timed phase opened)
/// and its latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    pub ms: f64,
}

/// What one closed-loop client saw.
#[derive(Debug, Default)]
pub struct ClientTally {
    /// Queries of the timed phase.
    pub queries: Vec<Sample>,
    /// Reload latencies of the timed phase, in ms.
    pub reloads_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
}

/// Settings of one closed-loop run.
pub struct LoopSpec<'a> {
    pub addr: &'a str,
    pub warmup: Duration,
    /// Length of one measurement window.
    pub window: Duration,
    /// When the timed phase may stop: it gets the readings so far.
    pub enough: &'a (dyn Fn(&[Tick]) -> bool + Sync),
    /// Hard stop, whatever `enough` says.
    pub max_seconds: f64,
    pub max_rows: usize,
}

/// A reading taken at each window boundary of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub at_ns: u64,
    /// Timed queries completed so far.
    pub done: usize,
    /// Machine-wide `(steal, total)` CPU time from `/proc/stat`.
    pub steal: u64,
    pub total: u64,
    /// The server's CPU time so far, in ms.
    pub server_cpu_ms: f64,
    /// [`windows::reference_ns`](crate::windows::reference_ns) taken at
    /// this tick.
    pub reference_ns: u64,
}

/// Machine-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`: the time the hypervisor ran other guests on this
/// machine's CPUs, and all accounted time.
pub fn steal_and_total() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Runs the closed loop: one thread per stream, each a connection that
/// sends its next request only after the previous response completed.
/// Once every client has finished its warm-up, `on_start` runs and the
/// timed phase opens; the calling thread then takes a [`Tick`] (reading
/// the server's CPU time through `server_cpu_ms`, and timing the reference
/// kernel) at every window
/// boundary until `spec.enough` holds. Returns the tallies and the ticks.
pub fn closed_loop(
    spec: &LoopSpec,
    streams: &[Vec<Prepared>],
    on_start: &dyn Fn(),
    server_cpu_ms: &dyn Fn() -> f64,
    log: &(dyn Fn(&str) + Sync),
) -> (Vec<ClientTally>, Vec<Tick>) {
    let warm = Barrier::new(streams.len() + 1);
    let go = Barrier::new(streams.len() + 1);
    let done = AtomicUsize::new(0);
    let exited = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start_cell = OnceLock::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|ops| {
                let shared = Shared {
                    warm: &warm,
                    go: &go,
                    done: &done,
                    exited: &exited,
                    stop: &stop,
                    start: &start_cell,
                };
                s.spawn(move || run_client(spec, ops, shared, log))
            })
            .collect();
        warm.wait();
        on_start();
        let start = *start_cell.get_or_init(Instant::now);
        let tick = |at: Instant| {
            let (steal, total) = steal_and_total();
            Tick {
                at_ns: (at - start).as_nanos() as u64,
                done: done.load(Ordering::SeqCst),
                steal,
                total,
                server_cpu_ms: server_cpu_ms(),
                reference_ns: crate::windows::reference_ns(),
            }
        };
        let mut ticks = vec![tick(start)];
        go.wait();
        let hard_stop = start + Duration::from_secs_f64(spec.max_seconds);
        let mut next = start;
        loop {
            next += spec.window;
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            ticks.push(tick(Instant::now()));
            let all_exited = exited.load(Ordering::SeqCst) == streams.len();
            if all_exited || next >= hard_stop || (spec.enough)(&ticks) {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        let tallies = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (tallies, ticks)
    })
}

/// What the clients share with each other and the timing thread.
#[derive(Clone, Copy)]
struct Shared<'a> {
    warm: &'a Barrier,
    go: &'a Barrier,
    /// Timed queries completed by all clients.
    done: &'a AtomicUsize,
    /// Clients whose loop has ended.
    exited: &'a AtomicUsize,
    stop: &'a AtomicBool,
    start: &'a OnceLock<Instant>,
}

fn run_client(
    spec: &LoopSpec,
    ops: &[Prepared],
    sh: Shared,
    log: &(dyn Fn(&str) + Sync),
) -> ClientTally {
    let mut t = ClientTally::default();
    let mut resp = Response::default();
    let mut conn = Conn::open(spec.addr);
    if let Err(e) = &conn {
        t.attempted += 1;
        t.failed += 1;
        log(&format!("cannot connect: {e}"));
    }
    let mut k = 0;
    let warm_until = Instant::now() + spec.warmup;
    if let Ok(c) = conn.as_mut() {
        while Instant::now() < warm_until {
            let op = &ops[k % ops.len()];
            k += 1;
            if request(c, op, &mut resp, &mut t, spec.max_rows, log).is_none() {
                break;
            }
        }
    }
    sh.warm.wait();
    sh.go.wait();
    let start = *sh.start.get().expect("the start is set before go");
    if let Ok(c) = conn.as_mut() {
        while !sh.stop.load(Ordering::SeqCst) {
            let op = &ops[k % ops.len()];
            k += 1;
            let Some(ms) = request(c, op, &mut resp, &mut t, spec.max_rows, log) else {
                break;
            };
            if op.reload {
                t.reloads_ms.push(ms);
            } else {
                let done_ns = start.elapsed().as_nanos() as u64;
                t.queries.push(Sample { done_ns, ms });
                sh.done.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    sh.exited.fetch_add(1, Ordering::SeqCst);
    t
}

/// One checked round trip; its latency in ms, or `None` when the
/// connection is unusable.
fn request(
    c: &mut Conn,
    op: &Prepared,
    resp: &mut Response,
    t: &mut ClientTally,
    max_rows: usize,
    log: &(dyn Fn(&str) + Sync),
) -> Option<f64> {
    let t0 = Instant::now();
    t.attempted += 1;
    let outcome = c.round_trip(&op.line, op.expected, resp, max_rows);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(Ok(())) => Some(ms),
        Ok(Err(e)) => {
            t.failed += 1;
            log(&format!("mismatch on {}: {e}", op.line));
            Some(ms)
        }
        Err(e) => {
            t.failed += 1;
            log(&format!("i/o error on {}: {e}", op.line));
            None
        }
    }
}
