//! Measurement windows of the timed phase, and the choice of the windows
//! the end-to-end figures come from.
//!
//! The benchmark runs on virtual machines whose hypervisor sometimes runs
//! other guests on this guest's CPUs ("steal" time in `/proc/stat`). In a
//! closed loop on two CPUs, a window with 20 % steal halves throughput and
//! stretches the latency tail, so figures from such windows measure the
//! neighbours, not the program. The timed phase is therefore cut into
//! windows. The figures come from the clean windows (at most
//! [`STEAL_CLEAN`] steal) when those are at least half of all windows, and
//! otherwise from the least-stolen half. Throughput is counted against the
//! CPU time the hypervisor left the machine in those windows, so the steal
//! that remains in them does not lower it. The run reports how many
//! windows it used and their worst steal.
//!
//! Between steal episodes the host's own speed drifts as well: a fixed
//! CPU-bound loop takes up to twice as long from one half-minute to the
//! next, and the program's time per query follows it. So at each window
//! boundary the benchmark also times a fixed reference kernel of its own
//! ([`reference_ns`]), and the time figures are scaled to a host on which
//! the kernel takes [`REFERENCE_NOMINAL_NS`] ([`Timed::slowdown`]). The
//! kernel follows only part of the slower shifts (the server's time per
//! query has risen 35 % while the kernel's rose 9 %), so those still show.
//! The raw figures go into the run's record beside the scaled ones.

use crate::net::{Sample, Tick};
use crate::stats;
use std::time::Instant;

/// Largest machine-wide steal share of a window the figures use.
pub const STEAL_CLEAN: f64 = 0.02;

/// [`reference_ns`] on the host the scaled figures describe.
pub const REFERENCE_NOMINAL_NS: f64 = 100_000.0;

/// The best of three timings, in ns, of a fixed kernel owned by the
/// benchmark: 40 000 xorshift-indexed read-modify-writes in a 64 KiB
/// table, about 0.1 ms. The best of three drops a timing that the
/// scheduler interrupted.
pub fn reference_ns() -> u64 {
    const TABLE: usize = 16 * 1024;
    let mut table = vec![0u32; TABLE];
    let mut best = u64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u32;
        for _ in 0..40_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x as usize & (TABLE - 1);
            table[k] = table[k].wrapping_add(acc);
            acc = acc.wrapping_add(table[(k * 7) & (TABLE - 1)]);
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

/// One window between two ticks.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed queries completed in the window.
    pub ops: usize,
    pub steal_share: f64,
    /// Server CPU time spent in the window.
    pub server_cpu_ms: f64,
    /// The reference kernel's time at the window's end.
    pub reference_ns: u64,
}

impl Window {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn clean(&self) -> bool {
        self.steal_share <= STEAL_CLEAN
    }
}

/// The windows between consecutive ticks.
pub fn windows(ticks: &[Tick]) -> Vec<Window> {
    ticks
        .windows(2)
        .map(|p| {
            let (a, b) = (p[0], p[1]);
            let total = b.total.saturating_sub(a.total);
            Window {
                start_ns: a.at_ns,
                end_ns: b.at_ns,
                ops: b.done.saturating_sub(a.done),
                steal_share: b.steal.saturating_sub(a.steal) as f64 / total.max(1) as f64,
                server_cpu_ms: b.server_cpu_ms - a.server_cpu_ms,
                reference_ns: b.reference_ns,
            }
        })
        .collect()
}

/// The timed phase's figures.
#[derive(Debug)]
pub struct Timed {
    /// Throughput over the used windows: queries per second of the time
    /// the hypervisor did not steal.
    pub rps: f64,
    /// Latencies (ms) of the queries completed in the used windows,
    /// ascending.
    pub latencies: Vec<f64>,
    /// Server CPU per query over the used windows.
    pub cpu_ms_per_op: f64,
    /// The median reference time of the used windows over
    /// [`REFERENCE_NOMINAL_NS`]: how much slower than the nominal host
    /// the host ran. The reported figures are the raw ones above with
    /// times divided, and rates multiplied, by it.
    pub slowdown: f64,
    /// Windows used, of all windows.
    pub used: usize,
    pub total: usize,
    /// Highest steal share among the used windows.
    pub worst_used_steal: f64,
    /// Steal share over the whole timed phase.
    pub steal_share: f64,
}

/// The figures from the clean windows when they are at least half of all
/// windows, else from the least-stolen half; further least-stolen windows
/// are added while the used ones hold fewer than `min_samples` queries.
pub fn summarize(ticks: &[Tick], samples: &[Sample], min_samples: usize) -> Timed {
    let ws = windows(ticks);
    let mut by_steal: Vec<&Window> = ws.iter().collect();
    by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let clean = ws.iter().filter(|w| w.clean()).count();
    let base = clean.max(ws.len().div_ceil(2));
    let mut ops = 0;
    let used: Vec<&Window> = by_steal
        .into_iter()
        .enumerate()
        .take_while(|&(k, w)| {
            let take = k < base || ops < min_samples;
            ops += w.ops;
            take
        })
        .map(|(_, w)| w)
        .collect();
    let mut latencies: Vec<f64> = samples
        .iter()
        .filter(|s| {
            used.iter()
                .any(|w| w.start_ns < s.done_ns && s.done_ns <= w.end_ns)
        })
        .map(|s| s.ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let ops: usize = used.iter().map(|w| w.ops).sum();
    let unstolen_secs: f64 = used.iter().map(|w| w.secs() * (1.0 - w.steal_share)).sum();
    let cpu: f64 = used.iter().map(|w| w.server_cpu_ms).sum();
    let steal_share = match (ticks.first(), ticks.last()) {
        (Some(a), Some(b)) => {
            b.steal.saturating_sub(a.steal) as f64 / b.total.saturating_sub(a.total).max(1) as f64
        }
        _ => 0.0,
    };
    Timed {
        rps: ops as f64 / unstolen_secs.max(f64::MIN_POSITIVE),
        latencies,
        cpu_ms_per_op: cpu / ops.max(1) as f64,
        slowdown: stats::median(
            &used
                .iter()
                .map(|w| w.reference_ns as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(REFERENCE_NOMINAL_NS)
            / REFERENCE_NOMINAL_NS,
        used: used.len(),
        total: ws.len(),
        worst_used_steal: used.iter().map(|w| w.steal_share).fold(0.0, f64::max),
        steal_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(s: u64, done: usize, steal: u64, cpu: f64) -> Tick {
        Tick {
            reference_ns: 100_000 + 10_000 * s,
            at_ns: s * 1_000_000_000,
            done,
            steal,
            total: s * 200,
            server_cpu_ms: cpu,
        }
    }

    #[test]
    fn figures_come_from_windows_without_steal() {
        // Four 1 s windows: 100 ops clean, 40 ops under 30 % steal,
        // 110 ops clean, 90 ops under 10 % steal.
        let ticks = [
            tick(0, 0, 0, 0.0),
            tick(1, 100, 0, 1000.0),
            tick(2, 140, 60, 1800.0),
            tick(3, 250, 60, 2900.0),
            tick(4, 340, 80, 3800.0),
        ];
        let samples: Vec<Sample> = [(0.5, 1.0), (1.5, 9.0), (2.5, 2.0), (3.5, 3.0)]
            .iter()
            .map(|&(s, ms)| Sample {
                done_ns: (s * 1e9) as u64,
                ms,
            })
            .collect();
        let t = summarize(&ticks, &samples, 200);
        assert_eq!((t.used, t.total), (2, 4));
        assert_eq!(t.worst_used_steal, 0.0);
        assert_eq!(t.rps, 105.0);
        assert_eq!(t.latencies, vec![1.0, 2.0]);
        assert_eq!(t.cpu_ms_per_op, 2100.0 / 210.0);
        assert!((t.steal_share - 0.1).abs() < 1e-12);
        // The used windows end at ticks 1 and 3: 110 and 130 µs.
        assert!((t.slowdown - 1.2).abs() < 1e-12);
        // Too few samples in the clean windows: the least-stolen other
        // window is added, and its steal does not count as run time.
        let more = summarize(&ticks, &samples, 220);
        assert_eq!(more.used, 3);
        assert_eq!(more.latencies, vec![1.0, 2.0, 3.0]);
        assert!((more.worst_used_steal - 0.1).abs() < 1e-12);
        assert!((more.rps - 300.0 / 2.9).abs() < 1e-9);
    }

    #[test]
    fn the_reference_kernel_is_timed() {
        let ns = reference_ns();
        assert!(ns > 0 && ns < 1_000_000_000, "{ns} ns");
    }

    #[test]
    fn a_mostly_stolen_run_uses_its_least_stolen_half() {
        // Four 1 s windows of 100 ops under 0 %, 30 %, 10 % and 20 % steal.
        let ticks = [
            tick(0, 0, 0, 0.0),
            tick(1, 100, 0, 0.0),
            tick(2, 200, 60, 0.0),
            tick(3, 300, 80, 0.0),
            tick(4, 400, 120, 0.0),
        ];
        let t = summarize(&ticks, &[], 0);
        assert_eq!(t.used, 2);
        assert!((t.worst_used_steal - 0.1).abs() < 1e-12);
        assert!((t.rps - 200.0 / 1.9).abs() < 1e-9);
    }
}
