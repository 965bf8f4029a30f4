//! The traced replay: the request stream run in-process on one thread,
//! calling each layer's public function in the server's order, with spans
//! recorded around the calls from this file only.

use crate::oracle::{check_lines, Expected, Oracle};
use crate::stats::median;
use crate::workload::{Expect, Op};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wdpt_core::Wdpt;
use wdpt_model::{stats::StatsSnapshot, CancelToken, Database, Interner, Mapping};
use wdpt_obs::{write_json_line, Json};
use wdpt_plan::{ExecPlan, StatsCatalog};
use wdpt_serve::protocol::{error_line, ok_line, row_line};
use wdpt_serve::{CanonicalQuery, PlanCache, ServeConfig};
use wdpt_sparql::algebra::SparqlError;

/// One recorded span. Times are ns since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Switched off, it records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now();
        let k = self.stack.pop().expect("exit matches an enter");
        self.spans[k].end_ns = end;
        self.spans[k].ns()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.ns());
            }
        }
        out
    }

    /// Durations (ns) of the spans named `name` of ops `..=max_op`.
    fn durations(&self, name: &str, max_op: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op <= max_op)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// The spans as JSON lines, with self time.
    pub fn dump(&self) -> String {
        let selves = self.self_ns();
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(selves) {
            let line = Json::obj([
                ("name", Json::str(s.name)),
                ("op", Json::int(s.op)),
                ("start_ns", Json::int(s.start_ns)),
                ("end_ns", Json::int(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                ),
                ("self_ns", Json::int(self_ns)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// Median self time (µs) and count per span name.
    pub fn self_summary(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            by.entry(s.name).or_default().push(ns as f64 / 1e3);
        }
        by.into_iter()
            .map(|(k, v)| (k, (median(&v).unwrap_or(0.0), v.len())))
            .collect()
    }
}

/// The served state the replay mirrors: interner, database version with
/// its statistics, and the plan cache, as in `ServeState`.
struct Served {
    cfg: ServeConfig,
    interner: Mutex<Interner>,
    db: Arc<Database>,
    stats: Arc<StatsCatalog>,
    cache: PlanCache,
}

impl Served {
    fn new(base: &Arc<[u8]>) -> Served {
        let cfg = ServeConfig::default();
        let (interner, db) = wdpt_store::decode_snapshot_shared(base).expect("decode snapshot");
        let stats = Arc::new(StatsCatalog::build(&db));
        let cache = PlanCache::new(cfg.plan_cache, cfg.cache_capacity);
        Served {
            cfg,
            interner: Mutex::new(interner),
            db: Arc::new(db),
            stats,
            cache,
        }
    }
}

/// What the probes need from a query the chain evaluated.
struct Evaluated {
    canon: CanonicalQuery,
    wdpt: Wdpt,
    plan: Arc<wdpt_serve::Plan>,
    exec: Arc<ExecPlan>,
    captured_ns: u64,
    observed_nodes: u64,
}

/// The request's front and back halves in the server's order, with
/// spans: parse, canonicalize, plan cache, captured evaluation, the
/// re-plan check, and the response lines written to `out`.
fn chain(
    st: &mut Served,
    op: &Op,
    tr: &mut Tracer,
    id: u64,
    snapshots: &crate::workload::Snapshots,
    out: &mut Vec<u8>,
) -> Option<Evaluated> {
    let never = CancelToken::never();
    out.clear();
    tr.enter("op", id);
    let text = match op {
        Op::Query { text, .. } => text,
        Op::Reload { with_delta } => {
            let deltas = if *with_delta {
                vec![snapshots.delta.clone()]
            } else {
                Vec::new()
            };
            tr.enter(
                if *with_delta {
                    "store.delta_decode"
                } else {
                    "store.decode"
                },
                id,
            );
            let pair =
                wdpt_store::decode_with_deltas(&snapshots.base, &deltas).expect("decode chain");
            tr.exit();
            tr.enter("serve.merge", id);
            let db =
                wdpt_serve::merge_snapshot(&mut st.interner.lock().expect("interner lock"), pair);
            tr.exit();
            tr.enter("plan.stats_build", id);
            let stats = Arc::new(StatsCatalog::build(&db));
            tr.exit();
            st.db = Arc::new(db);
            st.stats = stats;
            let line = Json::obj([("status", Json::str("ok")), ("kind", Json::str("reload"))]);
            write_json_line(out, &line).expect("write to memory");
            tr.exit();
            return None;
        }
    };

    tr.enter("sparql.parse", id);
    let mut i = st.interner.lock().expect("interner lock");
    let len0 = i.len();
    let parsed = wdpt_sparql::parse_query(&mut i, text);
    tr.exit();
    let q = match parsed {
        Ok(q) => q,
        Err(e) => {
            i.truncate(len0);
            let line = error_line(None, "parse_error", &e.message, Some(e.at));
            write_json_line(out, &line).expect("write to memory");
            tr.exit();
            return None;
        }
    };
    tr.enter("serve.canonicalize", id);
    let canon = wdpt_serve::canonicalize(&q, &mut i);
    let wdpt = canon.canon.to_wdpt(&mut i);
    tr.exit();
    let wdpt = match wdpt {
        Ok(w) => w,
        Err(e) => {
            i.truncate(len0);
            let kind = match e {
                SparqlError::NotWellDesigned(_) => "not_well_designed",
                SparqlError::UnknownSelectVar(_) => "unknown_select_var",
                SparqlError::NotAnRdfTree => "internal",
            };
            write_json_line(out, &error_line(None, kind, &e.to_string(), None))
                .expect("write to memory");
            tr.exit();
            return None;
        }
    };
    drop(i);

    tr.enter("serve.plan_cache", id);
    let (plan, cache_status) = st
        .cache
        .get_or_build(
            &canon,
            &wdpt,
            &st.interner,
            &st.stats,
            st.cfg.plan_strategy,
            never,
        )
        .expect("the never token cannot cancel");
    tr.exit();

    let exec = plan.exec_plan();
    let t0 = Instant::now();
    tr.enter("obs.captured_eval", id);
    let (result, prof) = wdpt_core::try_evaluate_parallel_captured_planned(
        &plan.wdpt,
        &st.db,
        st.cfg.eval_threads,
        never,
        "serve.query",
        Some(&exec),
    );
    tr.exit();
    let captured_ns = t0.elapsed().as_nanos() as u64;
    let answers = result.expect("the never token cannot cancel");

    tr.enter("serve.replan", id);
    let observed_nodes = prof.counter("cq.nodes_expanded");
    plan.stats
        .record_execution(captured_ns / 1_000, Some(observed_nodes));
    let _ = wdpt_serve::maybe_replan(
        &plan,
        &st.stats,
        st.cfg.replan_factor,
        st.cfg.replan_runs,
        never,
    );
    tr.exit();

    tr.enter("serve.respond", id);
    {
        let i = st.interner.lock().expect("interner lock");
        let mut rows = 0;
        for m in answers.iter().take(st.cfg.max_rows) {
            let line = row_line(None, render(m, &plan, &canon.request_vars, &i));
            write_json_line(out, &line).expect("write to memory");
            rows += 1;
        }
        let ok = ok_line(
            None,
            answers.len(),
            rows,
            cache_status,
            captured_ns / 1_000,
            None,
            None,
        );
        write_json_line(out, &ok).expect("write to memory");
    }
    tr.exit();
    tr.exit();
    Some(Evaluated {
        canon,
        wdpt,
        plan,
        exec,
        captured_ns,
        observed_nodes,
    })
}

/// An answer in the request's variable names, as the server renders it.
fn render(
    m: &Mapping,
    plan: &wdpt_serve::Plan,
    request_vars: &[String],
    i: &Interner,
) -> Vec<(String, String)> {
    plan.canon_vars
        .iter()
        .zip(request_vars)
        .filter_map(|(&cv, name)| {
            m.get(cv)
                .map(|c| (name.clone(), i.const_name(c).to_string()))
        })
        .collect()
}

/// Per-op measurements of the probe calls made after a query's chain.
#[derive(Debug, Default, Clone)]
struct Probe {
    par_ns: f64,
    seq_ns: f64,
    search_ns: f64,
    search_nodes: u64,
    par: StatsSnapshot,
    seq: StatsSnapshot,
    captured_ns: f64,
    est_nodes: f64,
    observed_nodes: u64,
}

/// Sub-layer calls for a query the chain evaluated: the plan build's
/// interner clone and enumeration, the uncaptured evaluator at the
/// server's thread count and at one thread, and the CQ search alone.
fn probes(st: &Served, e: &Evaluated, tr: &mut Tracer, id: u64) -> Probe {
    let never = CancelToken::never();
    let db = &*st.db;
    tr.enter("probe", id);
    tr.enter("model.interner_clone", id);
    let mut scratch = st.interner.lock().expect("interner lock").clone();
    tr.exit();
    tr.enter("serve.plan_build", id);
    let built = wdpt_serve::build_plan(
        &e.canon,
        &e.wdpt,
        &mut scratch,
        &st.stats,
        st.cfg.plan_strategy,
        never,
    );
    tr.exit();
    drop((built, scratch));
    tr.enter("plan.enumerate", id);
    let enumerated = wdpt_core::plan_wdpt(&e.wdpt, &st.stats, st.cfg.plan_strategy, never);
    tr.exit();
    drop(enumerated);

    let mut eval = |name, threads| {
        let before = wdpt_model::stats::snapshot();
        tr.enter(name, id);
        let answers = wdpt_core::try_evaluate_parallel_planned(
            &e.plan.wdpt,
            db,
            threads,
            never,
            Some(&e.exec),
        );
        let ns = tr.exit();
        drop(answers);
        (ns as f64, wdpt_model::stats::snapshot().since(&before))
    };
    let (par_ns, par) = eval("core.eval", st.cfg.eval_threads);
    let (seq_ns, seq) = eval("core.eval_seq", 1);

    let before = wdpt_model::stats::snapshot();
    tr.enter("cq.search", id);
    let mut search = Duration::ZERO;
    search_replay(
        &e.plan.wdpt,
        db,
        &e.exec,
        e.plan.wdpt.root(),
        &Mapping::empty(),
        &mut search,
    );
    tr.exit();
    let search_nodes = wdpt_model::stats::snapshot().since(&before).nodes_expanded;
    tr.exit();
    Probe {
        par_ns,
        seq_ns,
        search_ns: search.as_nanos() as f64,
        search_nodes,
        par,
        seq,
        captured_ns: e.captured_ns as f64,
        est_nodes: e.exec.est_nodes(),
        observed_nodes: e.observed_nodes,
    }
}

/// Replays the wdPT recursion's searches in the plan's orders, summing
/// the time of the `try_extend_all_ordered` calls alone: the root runs
/// once, each child once per parent context.
fn search_replay(
    p: &Wdpt,
    db: &Database,
    exec: &ExecPlan,
    t: usize,
    inherited: &Mapping,
    total: &mut Duration,
) {
    let never = CancelToken::never();
    let t0 = Instant::now();
    let local = match exec.nodes.get(t) {
        Some(n) => {
            wdpt_cq::backtrack::try_extend_all_ordered(db, p.atoms(t), &n.order, inherited, never)
        }
        None => wdpt_cq::backtrack::try_extend_all(db, p.atoms(t), inherited, never),
    }
    .expect("the never token cannot cancel");
    *total += t0.elapsed();
    for g in &local {
        let ctx = inherited
            .union(g)
            .expect("local homomorphism agrees with inherited bindings");
        for &c in p.children(t) {
            search_replay(p, db, exec, c, &ctx, total);
        }
    }
}

/// What the replay reports.
pub struct ReplayResult {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Layer medians summed along the request path, in µs.
    pub path_us: f64,
    pub ops: usize,
    pub attempted: usize,
    pub failed: usize,
    pub tracer: Tracer,
}

/// Set-up layers, measured `reps` times each on fresh decodes.
fn setup_layers(
    snapshots: &crate::workload::Snapshots,
    first_query: &str,
    reps: usize,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let never = CancelToken::never();
    let (mut decode, mut stats_build, mut first_touch, mut delta) =
        (vec![], vec![], vec![], vec![]);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for _ in 0..reps {
        tr.enter("setup", 0);
        let t = Instant::now();
        tr.enter("store.decode", 0);
        let (mut i, db) = wdpt_store::decode_snapshot_shared(&snapshots.base).expect("decode");
        tr.exit();
        decode.push(ms(t.elapsed()));
        let t = Instant::now();
        tr.enter("plan.stats_build", 0);
        let stats = StatsCatalog::build(&db);
        tr.exit();
        stats_build.push(ms(t.elapsed()));
        let q = wdpt_sparql::parse_query(&mut i, first_query).expect("first query parses");
        let wdpt = q.to_wdpt(&mut i).expect("first query is well-designed");
        let exec =
            wdpt_core::plan_wdpt(&wdpt, &stats, wdpt_plan::Strategy::Auto, never).expect("plan");
        let threads = ServeConfig::default().eval_threads;
        let eval = || {
            let t = Instant::now();
            let r =
                wdpt_core::try_evaluate_parallel_planned(&wdpt, &db, threads, never, Some(&exec));
            drop(r);
            ms(t.elapsed())
        };
        tr.enter("model.first_touch", 0);
        let cold = eval();
        tr.exit();
        let warm = eval();
        first_touch.push(cold - warm);
        let t = Instant::now();
        tr.enter("store.delta_decode", 0);
        let pair =
            wdpt_store::decode_with_deltas(&snapshots.base, std::slice::from_ref(&snapshots.delta))
                .expect("decode with delta");
        tr.exit();
        delta.push(ms(t.elapsed()));
        drop(pair);
        tr.exit();
    }
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    vec![
        ("store.decode_ms", m(&decode), "ms"),
        ("store.delta_decode_ms", m(&delta), "ms"),
        ("model.first_touch_ms", m(&first_touch), "ms"),
        ("plan.stats_build_ms", m(&stats_build), "ms"),
    ]
}

/// Checks the response lines in `out` against the op's expectation.
fn check(
    out: &[u8],
    op: &Op,
    oracles: &HashMap<String, Oracle>,
    max_rows: usize,
) -> Result<(), String> {
    let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
    check_lines(text.lines(), Expected::of(op, oracles), max_rows)
}

/// Evaluated queries the probe pass measures.
const PROBED_OPS: usize = 120;

/// Runs the replay over `ops`: an untraced pass for `budget` (which fixes
/// the op count), a traced pass over the same ops, and a probe pass. The
/// tracing overhead compares the two passes' median op times.
pub fn run(
    ops: &[&Op],
    snapshots: &crate::workload::Snapshots,
    oracles: &HashMap<String, Oracle>,
    budget: Duration,
    log: &dyn Fn(&str),
) -> ReplayResult {
    let max_rows = ServeConfig::default().max_rows;
    let mut out = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut tally = |out: &[u8], op: &Op| {
        attempted += 1;
        if let Err(e) = check(out, op, oracles, max_rows) {
            failed += 1;
            log(&format!("replay mismatch: {e}"));
        }
    };

    // Untraced pass; its length fixes the op count. Each op is timed
    // whole, for the tracing overhead.
    let mut off = Tracer::new(false);
    let mut st = Served::new(&snapshots.base);
    let t0 = Instant::now();
    let mut off_ns = Vec::new();
    while off_ns.len() < ops.len() && (off_ns.is_empty() || t0.elapsed() < budget) {
        let op = ops[off_ns.len()];
        let t = Instant::now();
        chain(&mut st, op, &mut off, 0, snapshots, &mut out);
        off_ns.push(t.elapsed().as_nanos() as f64);
        tally(&out, op);
    }
    let n = off_ns.len();

    // Traced pass over the same ops: the request path's spans.
    let mut tr = Tracer::new(true);
    let first_query = ops
        .iter()
        .find_map(|op| match op {
            Op::Query {
                text,
                expect: Expect::Answers,
            } => Some(text.as_str()),
            _ => None,
        })
        .expect("every stream has a valid query");
    let mut metrics = setup_layers(snapshots, first_query, 5, &mut tr);
    let mut st = Served::new(&snapshots.base);
    let mut respond_bytes = Vec::new();
    let mut on_ns = Vec::with_capacity(n);
    for (k, op) in ops[..n].iter().enumerate() {
        let op_span = tr.spans.len();
        let evaluated = chain(&mut st, op, &mut tr, k as u64 + 1, snapshots, &mut out);
        on_ns.push(tr.spans[op_span].ns() as f64);
        tally(&out, op);
        if evaluated.is_some() {
            respond_bytes.push(out.len() as f64);
        }
    }

    // Probe pass: the path again on fresh state, each evaluated query
    // followed by its sub-layer probes (kept out of the path's timings,
    // which their cache effects would disturb), for up to PROBED_OPS
    // evaluated queries.
    let mut st = Served::new(&snapshots.base);
    let mut probes_seen: Vec<Probe> = Vec::new();
    for (k, op) in ops[..n].iter().enumerate() {
        if probes_seen.len() == PROBED_OPS {
            break;
        }
        let id = (n + k) as u64 + 1;
        let evaluated = chain(&mut st, op, &mut tr, id, snapshots, &mut out);
        tally(&out, op);
        if let Some(e) = evaluated {
            probes_seen.push(probes(&st, &e, &mut tr, id));
        }
    }

    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    // Path spans come from the traced pass (ops 1..=n), probe spans from
    // the probe pass.
    let span_us = |name| med(tr.durations(name, n as u64)) / 1e3;
    let probe_us = |name| med(tr.durations(name, u64::MAX)) / 1e3;
    let per = |f: &dyn Fn(&Probe) -> Option<f64>| med(probes_seen.iter().filter_map(f).collect());
    let path_us: f64 = [
        "sparql.parse",
        "serve.canonicalize",
        "serve.plan_cache",
        "obs.captured_eval",
        "serve.replan",
        "serve.respond",
    ]
    .iter()
    .map(|name| span_us(name))
    .sum();
    metrics.extend([
        (
            "model.interner_clone_us",
            probe_us("model.interner_clone"),
            "us",
        ),
        ("plan.enumerate_us", probe_us("plan.enumerate"), "us"),
        (
            "plan.est_over_observed",
            per(&|p| (p.observed_nodes > 0).then(|| p.est_nodes / p.observed_nodes as f64)),
            "ratio",
        ),
        ("sparql.parse_us", span_us("sparql.parse"), "us"),
        ("serve.canonicalize_us", span_us("serve.canonicalize"), "us"),
        ("serve.plan_build_us", probe_us("serve.plan_build"), "us"),
        ("serve.respond_us", span_us("serve.respond"), "us"),
        ("serve.respond_bytes", med(respond_bytes), "bytes"),
        ("core.eval_ms", per(&|p| Some(p.par_ns / 1e6)), "ms"),
        ("core.eval_seq_ms", per(&|p| Some(p.seq_ns / 1e6)), "ms"),
        (
            "core.parallel_speedup",
            per(&|p| (p.par_ns > 0.0).then(|| p.seq_ns / p.par_ns)),
            "ratio",
        ),
        (
            "core.assemble_ms",
            per(&|p| Some((p.seq_ns - p.search_ns) / 1e6)),
            "ms",
        ),
        (
            "obs.capture_overhead",
            per(&|p| (p.par_ns > 0.0).then(|| p.captured_ns / p.par_ns - 1.0)),
            "ratio",
        ),
        ("cq.search_ms", per(&|p| Some(p.search_ns / 1e6)), "ms"),
        (
            "cq.nodes_expanded",
            per(&|p| Some(p.seq.nodes_expanded as f64)),
            "count",
        ),
        (
            "cq.nodes_expanded_par",
            per(&|p| Some(p.par.nodes_expanded as f64)),
            "count",
        ),
        (
            "db.tuples_scanned",
            per(&|p| Some(p.seq.tuples_scanned as f64)),
            "count",
        ),
        (
            "db.tuples_scanned_par",
            per(&|p| Some(p.par.tuples_scanned as f64)),
            "count",
        ),
        (
            "db.index_probes",
            per(&|p| Some(p.seq.index_probes as f64)),
            "count",
        ),
        (
            "db.index_probes_par",
            per(&|p| Some(p.par.index_probes as f64)),
            "count",
        ),
        (
            "cq.ns_per_node",
            per(&|p| (p.search_nodes > 0).then(|| p.search_ns / p.search_nodes as f64)),
            "ns",
        ),
        (
            "trace.overhead",
            med(on_ns) / med(off_ns).max(1.0) - 1.0,
            "ratio",
        ),
    ]);
    ReplayResult {
        metrics,
        path_us,
        ops: n,
        attempted,
        failed,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.enter("op", 1);
        tr.enter("a", 1);
        std::thread::sleep(Duration::from_millis(2));
        tr.exit();
        tr.enter("b", 1);
        tr.exit();
        std::thread::sleep(Duration::from_millis(1));
        tr.exit();
        let selves = tr.self_ns();
        let op = tr.spans[0].ns();
        assert_eq!(selves[0], op - tr.spans[1].ns() - tr.spans[2].ns());
        assert_eq!(selves[1], tr.spans[1].ns());
        assert!(selves[0] >= 1_000_000);
        assert_eq!(tr.spans[1].parent, Some(0));
        let mut off = Tracer::new(false);
        off.enter("op", 1);
        assert_eq!(off.exit(), 0);
        assert!(off.spans.is_empty());
    }
}
