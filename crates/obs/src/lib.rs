//! # wdpt-obs — tracing, metrics, and per-query evaluation profiles
//!
//! A std-only (zero-dependency, offline-buildable) observability layer for
//! the WDPT evaluation stack. The paper's claims are *where-does-the-time-go*
//! claims — tractability hinges on which phase dominates (decomposition
//! search, bag materialization, semijoin passes, per-node homomorphism
//! enumeration) — so every perf change should be able to show *which* phase
//! it moved, not just a wall-clock delta. Three pieces:
//!
//! * [`span`] — hierarchical scoped timers ([`span!`] guards) with
//!   thread-local span stacks. Aggregation is per-site into process-wide
//!   relaxed atomics, so the worker threads of the wdPT evaluator
//!   contribute to the same aggregates and a snapshot taken around joined
//!   work is exact. Tracing is off by default; a disabled [`span!`] costs
//!   one relaxed atomic load (measured < 2% on the `wdpt_eval` bench, see
//!   `EXPERIMENTS.md`).
//! * [`metrics`] — a registry of named counters ([`counter!`]) and
//!   log₂-bucketed histograms ([`histogram!`]) generalizing the five
//!   hard-coded atomics that used to live in `wdpt_model::stats` (that
//!   module remains as a compatibility facade over this registry).
//! * [`profile`] — [`QueryProfile`], a per-query report attached to
//!   WDPT/CQ evaluation results: per-tree-node homomorphism counts,
//!   semijoin reduction factors, decomposition width found and search nodes
//!   visited, and time per phase. Renderable as an indented plain-text
//!   `EXPLAIN ANALYZE` and serializable to JSON via the in-tree [`json`]
//!   writer.
//!
//! Two serving-oriented pieces sit on top: [`expo`] renders a metrics
//! snapshot as Prometheus-style text exposition or JSON (with derived
//! p50/p90/p99), and [`trace`] provides [`RequestTrace`], the stage-timed
//! per-request trace that feeds the `serve.request.*` histograms.

pub mod expo;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use expo::{render_prometheus, sanitize_name, snapshot_from_json, snapshot_to_json};
pub use json::{read_json_line, write_json_line, Json};
pub use metrics::{
    delta_scope, metrics_snapshot, Counter, CounterDelta, Gauge, HistogramDelta, HistogramSnapshot,
    LocalHistogram, MetricsSnapshot, RawHistogram,
};
pub use profile::{DecompInfo, NodeEntry, PhaseEntry, ProfileRecorder, QueryProfile};
pub use span::{
    set_tracing, span_snapshot, tracing_enabled, with_tracing, SpanGuard, SpanSnapshot,
};
pub use trace::{GaugeGuard, RequestTrace, Stage};
