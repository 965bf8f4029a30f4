//! Micro-benchmarks for the CQ engines (Theorems 2 and 3): generic
//! backtracking vs tree-decomposition-guided vs hypertree-guided Boolean
//! evaluation, over growing databases and query sizes — plus the
//! backtracking kernel's cost per search node with one and two searches
//! running at once, which exposes any per-node writes to shared state.
//!
//! Plain `fn main` driven by the std-only [`wdpt_bench::bench_case`]
//! runner (`harness = false`); set `BENCH_MIN_RUNTIME` to control the
//! per-case measurement window.

use std::time::Instant;
use wdpt_bench::{bench_case, bench_min_runtime, section};
use wdpt_cq::structured::{boolean_eval_structured, StructuredPlan};
use wdpt_cq::{backtrack, ConjunctiveQuery};
use wdpt_gen::db::random_graph_db;
use wdpt_model::{Atom, Database, Interner, Mapping, Var};

/// A path CQ `e(v0,v1), …, e(v{n-1},v{n})`.
fn path_cq(i: &mut Interner, n: usize) -> ConjunctiveQuery {
    let e = i.pred("e");
    let vs: Vec<Var> = (0..=n).map(|j| i.var(&format!("v{j}"))).collect();
    ConjunctiveQuery::boolean(
        vs.windows(2)
            .map(|w| Atom::new(e, vec![w[0].into(), w[1].into()]))
            .collect(),
    )
}

/// A cycle CQ of length `n`.
fn cycle_cq(i: &mut Interner, n: usize) -> ConjunctiveQuery {
    let e = i.pred("e");
    let vs: Vec<Var> = (0..n).map(|j| i.var(&format!("v{j}"))).collect();
    ConjunctiveQuery::boolean(
        (0..n)
            .map(|j| Atom::new(e, vec![vs[j].into(), vs[(j + 1) % n].into()]))
            .collect(),
    )
}

fn bench_path_queries() {
    section("cq/path_query_over_db_size");
    for db_edges in [200usize, 800, 3200] {
        let mut i = Interner::new();
        let (db, _) = random_graph_db(&mut i, db_edges / 4, db_edges, 42);
        let q = path_cq(&mut i, 6);
        let tw_plan = StructuredPlan::for_query_tw(&q, 1).unwrap();
        let hw_plan = StructuredPlan::for_query_hw(&q, 1).unwrap();
        bench_case(&format!("backtrack/{db_edges}"), || {
            backtrack::extend_exists(&db, q.body(), &Mapping::empty());
        });
        bench_case(&format!("tw1/{db_edges}"), || {
            boolean_eval_structured(&q, &db, &tw_plan, &Mapping::empty());
        });
        bench_case(&format!("hw1/{db_edges}"), || {
            boolean_eval_structured(&q, &db, &hw_plan, &Mapping::empty());
        });
    }
}

fn bench_cycle_queries() {
    section("cq/cycle_query_over_cycle_length");
    let mut i = Interner::new();
    let (db, _) = random_graph_db(&mut i, 40, 400, 7);
    for n in [4usize, 6, 8] {
        let q = cycle_cq(&mut i, n);
        let tw_plan = StructuredPlan::for_query_tw(&q, 2).unwrap();
        let hw_plan = StructuredPlan::for_query_hw(&q, 2).unwrap();
        bench_case(&format!("backtrack/{n}"), || {
            backtrack::extend_exists(&db, q.body(), &Mapping::empty());
        });
        bench_case(&format!("tw2/{n}"), || {
            boolean_eval_structured(&q, &db, &tw_plan, &Mapping::empty());
        });
        bench_case(&format!("hw2/{n}"), || {
            boolean_eval_structured(&q, &db, &hw_plan, &Mapping::empty());
        });
    }
}

fn bench_plan_construction() {
    section("cq/decomposition_construction");
    let mut i = Interner::new();
    for n in [6usize, 10, 14] {
        let q = cycle_cq(&mut i, n);
        bench_case(&format!("tw_plan/{n}"), || {
            StructuredPlan::for_query_tw(&q, 2).unwrap();
        });
        bench_case(&format!("hw_plan/{n}"), || {
            StructuredPlan::for_query_hw(&q, 2).unwrap();
        });
    }
}

/// A skewed edge relation: `edges` edges from distinct sources into
/// `hubs` hub vertices, none of which has an out-edge. The self-join
/// `e(?x,?y), e(?y,?z)` then expands one search node per edge and finds
/// nothing — pure kernel and index-probe work, the shape of the serving
/// benchmark's `skew` workload.
fn skewed_self_join(i: &mut Interner, edges: usize, hubs: usize) -> (Database, Vec<Atom>) {
    let e = i.pred("e");
    let mut db = Database::new();
    for j in 0..edges {
        let src = i.constant(&format!("s{j}"));
        let hub = i.constant(&format!("h{}", j % hubs));
        db.insert(e, vec![src, hub]);
    }
    let (x, y, z) = (i.var("x"), i.var("y"), i.var("z"));
    let atoms = vec![
        Atom::new(e, vec![x.into(), y.into()]),
        Atom::new(e, vec![y.into(), z.into()]),
    ];
    (db, atoms)
}

/// `backtrack_concurrent/{1,2}`: the skewed self-join searched on one
/// thread, then on two at once, reported as wall time per search node of
/// one thread (from the `cq.nodes_expanded` counter). Without contention
/// the two figures match on a machine with two free cores.
fn bench_concurrent_kernel() {
    section("cq/backtrack_concurrent (ns per search node per thread)");
    let mut i = Interner::new();
    let (db, atoms) = skewed_self_join(&mut i, 4000, 8);
    let search = || backtrack::extend_all(&db, &atoms, &Mapping::empty());
    assert!(search().is_empty()); // warm-up: builds the column indexes
    for threads in [1u32, 2] {
        let before = wdpt_model::stats::snapshot();
        let start = Instant::now();
        let searches: u32 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut n = 0u32;
                        while n == 0 || start.elapsed().as_secs_f64() < bench_min_runtime() {
                            search();
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let elapsed_ns = start.elapsed().as_nanos() as f64;
        let nodes = wdpt_model::stats::snapshot().since(&before).nodes_expanded;
        let ns_per_node = elapsed_ns * f64::from(threads) / nodes.max(1) as f64;
        let name = format!("backtrack_concurrent/{threads}");
        println!("  {name:<48} {ns_per_node:>8.1} ns/node ({searches} searches, {nodes} nodes)");
    }
}

fn main() {
    bench_path_queries();
    bench_cycle_queries();
    bench_plan_construction();
    bench_concurrent_kernel();
}
