//! Hierarchical scoped timers.
//!
//! A [`span!`] guard times a lexical scope under a static name (dotted
//! names form the hierarchy: `"yannakakis.semijoin"` renders nested under
//! `"yannakakis"`). Each thread keeps a span *stack* so a span knows how
//! much of its wall time was spent inside nested spans (`child_ns`), which
//! lets reports show exclusive (self) time. Aggregation is per-site into
//! process-wide relaxed atomics, so spans recorded on the scoped worker
//! threads of the wdPT evaluator merge into the same aggregates and a
//! snapshot taken around joined work is exact.
//!
//! Tracing is **off by default**: a disabled [`span!`] reads one relaxed
//! atomic and returns an inert guard — no `OnceLock`, no `Instant::now`,
//! no thread-local traffic. `wdpt_core::profile` holds it on for the
//! duration of a profiled evaluation.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The tracing state in one word, so the hot-path check stays one relaxed
/// load: bit 0 is the explicit [`set_tracing`] flag, the bits above it
/// count the active [`TracingGuard`]s. Tracing is on while any bit is set.
static ENABLED: AtomicU64 = AtomicU64::new(0);
const EXPLICIT: u64 = 1;
const ONE_GUARD: u64 = 2;

/// Globally enables or disables span timing. Returns the previous value of
/// the explicit flag. Running [`ProfileRecorder`](crate::ProfileRecorder)s
/// and [`with_tracing`] sections keep tracing on regardless.
pub fn set_tracing(on: bool) -> bool {
    let prev = if on {
        ENABLED.fetch_or(EXPLICIT, Relaxed)
    } else {
        ENABLED.fetch_and(!EXPLICIT, Relaxed)
    };
    prev & EXPLICIT != 0
}

/// True iff span timing is currently enabled.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Relaxed) != 0
}

/// Keeps tracing on while it lives. Guards are counted rather than
/// swapping the flag, so overlapping holders (profiled queries on several
/// workers) cannot switch tracing off under each other or leave it stuck on.
#[derive(Debug)]
pub(crate) struct TracingGuard(());

impl TracingGuard {
    /// Turns tracing on until the guard drops.
    pub(crate) fn new() -> TracingGuard {
        ENABLED.fetch_add(ONE_GUARD, Relaxed);
        TracingGuard(())
    }
}

impl Drop for TracingGuard {
    fn drop(&mut self) {
        ENABLED.fetch_sub(ONE_GUARD, Relaxed);
    }
}

/// One instrumented scope: a static name plus its process-wide aggregates.
#[derive(Debug)]
pub struct SpanSite {
    name: &'static str,
    calls: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
}

fn registry() -> &'static Mutex<Vec<&'static SpanSite>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static SpanSite>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Returns the span site named `name`, creating it on first use. Call
/// sites should go through [`span!`], which caches the result.
pub fn register_span(name: &'static str) -> &'static SpanSite {
    let mut reg = registry().lock().expect("span registry poisoned");
    if let Some(s) = reg.iter().find(|s| s.name == name) {
        return s;
    }
    let s: &'static SpanSite = Box::leak(Box::new(SpanSite {
        name,
        calls: AtomicU64::new(0),
        total_ns: AtomicU64::new(0),
        child_ns: AtomicU64::new(0),
    }));
    reg.push(s);
    s
}

thread_local! {
    /// Stack of child-time accumulators, one per live span on this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard created by [`span!`]. Records on drop. Intentionally `!Send`:
/// the guard must be dropped on the thread that created it, because the
/// nesting bookkeeping lives in a thread-local stack.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(&'static SpanSite, Instant)>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Enters `site` if tracing is enabled; otherwise returns an inert
    /// guard whose drop is free.
    #[inline]
    pub fn enter(site: &'static SpanSite) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard::inactive();
        }
        STACK.with(|s| s.borrow_mut().push(0));
        SpanGuard {
            active: Some((site, Instant::now())),
            _not_send: PhantomData,
        }
    }

    /// An inert guard: records nothing, drop is free. The [`span!`] macro
    /// returns this on the disabled fast path so a disabled call site costs
    /// one relaxed load and never touches its `OnceLock`.
    #[inline]
    pub fn inactive() -> SpanGuard {
        SpanGuard {
            active: None,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((site, start)) = self.active.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        let nested = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let nested = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += elapsed;
            }
            nested
        });
        site.calls.fetch_add(1, Relaxed);
        site.total_ns.fetch_add(elapsed, Relaxed);
        site.child_ns.fetch_add(nested, Relaxed);
    }
}

/// Opens a [`SpanGuard`] for the enclosing scope:
/// `let _g = span!("yannakakis.semijoin");`
///
/// The enabled check comes first so a disabled call site pays exactly one
/// relaxed atomic load; the per-site `OnceLock` is only consulted (and the
/// site only registered) once tracing is actually on.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        if $crate::span::tracing_enabled() {
            static SITE: std::sync::OnceLock<&'static $crate::span::SpanSite> =
                std::sync::OnceLock::new();
            $crate::span::SpanGuard::enter(*SITE.get_or_init(|| $crate::span::register_span($name)))
        } else {
            $crate::span::SpanGuard::inactive()
        }
    }};
}

/// Aggregates of one span site at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    pub name: String,
    pub calls: u64,
    /// Total wall time inside the span, nested spans included.
    pub total_ns: u64,
    /// Wall time spent inside nested spans (on the same thread).
    pub child_ns: u64,
}

impl SpanEntry {
    /// Exclusive time: total minus nested-span time (saturating — nested
    /// spans on *other* threads can exceed the parent's wall time).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A point-in-time copy of every span site, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    pub entries: Vec<SpanEntry>,
}

impl SpanSnapshot {
    /// Span-wise saturating difference since `earlier`.
    pub fn since(&self, earlier: &SpanSnapshot) -> SpanSnapshot {
        let base: std::collections::HashMap<&str, &SpanEntry> = earlier
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e))
            .collect();
        SpanSnapshot {
            entries: self
                .entries
                .iter()
                .map(|e| match base.get(e.name.as_str()) {
                    None => e.clone(),
                    Some(b) => SpanEntry {
                        name: e.name.clone(),
                        calls: e.calls.saturating_sub(b.calls),
                        total_ns: e.total_ns.saturating_sub(b.total_ns),
                        child_ns: e.child_ns.saturating_sub(b.child_ns),
                    },
                })
                .collect(),
        }
    }

    /// The entry named `name`, if it has been registered.
    pub fn entry(&self, name: &str) -> Option<&SpanEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// Copies every registered span site.
pub fn span_snapshot() -> SpanSnapshot {
    let reg = registry().lock().expect("span registry poisoned");
    let mut entries: Vec<SpanEntry> = reg
        .iter()
        .map(|s| SpanEntry {
            name: s.name.to_owned(),
            calls: s.calls.load(Relaxed),
            total_ns: s.total_ns.load(Relaxed),
            child_ns: s.child_ns.load(Relaxed),
        })
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    SpanSnapshot { entries }
}

/// Runs `f` with tracing held on. Holds nest and overlap across threads:
/// tracing stays on until the last one ends.
pub fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
    let _on = TracingGuard::new();
    f()
}

/// Serializes the unit tests that flip or depend on the process-global
/// tracing flag; tests in one binary run concurrently and would otherwise
/// observe each other's flag changes.
#[cfg(test)]
pub(crate) fn tracing_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _flag = tracing_flag_lock();
        let prev = set_tracing(false);
        register_span("test.span.disabled");
        let before = span_snapshot();
        {
            let _g = span!("test.span.disabled");
        }
        let delta = span_snapshot().since(&before);
        assert_eq!(delta.entry("test.span.disabled").unwrap().calls, 0);
        set_tracing(prev);
    }

    #[test]
    fn nested_spans_attribute_child_time() {
        let _flag = tracing_flag_lock();
        with_tracing(|| {
            let before = span_snapshot();
            {
                let _outer = span!("test.span.outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span!("test.span.outer.inner");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            let d = span_snapshot().since(&before);
            let outer = d.entry("test.span.outer").unwrap();
            let inner = d.entry("test.span.outer.inner").unwrap();
            assert_eq!(outer.calls, 1);
            assert_eq!(inner.calls, 1);
            assert!(outer.total_ns >= inner.total_ns);
            // Outer's child time is inner's total (recorded on this thread).
            assert!(outer.child_ns >= inner.total_ns);
            assert!(outer.self_ns() <= outer.total_ns - inner.total_ns + 1_000_000);
        });
    }

    #[test]
    fn spans_aggregate_across_scoped_threads() {
        let _flag = tracing_flag_lock();
        with_tracing(|| {
            register_span("test.span.worker");
            let before = span_snapshot();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..8 {
                            let _g = span!("test.span.worker");
                        }
                    });
                }
            });
            let d = span_snapshot().since(&before);
            assert_eq!(d.entry("test.span.worker").unwrap().calls, 32);
        });
    }
}
