//! Ablation benchmarks for the engine design choices called out in
//! `DESIGN.md` §2: the structured engines versus raw backtracking on
//! instances inside the tractable classes, and the thread-parallel WDPT
//! evaluator versus the sequential one. (Input order versus planned atom
//! order is measured by `plan_bench`.)
//!
//! Plain `fn main` driven by the std-only runner (`harness = false`).
//! Every case prints the per-iteration engine-counter deltas
//! (`wdpt_model::stats`) so the configurations are compared on *work done*
//! (index builds, tuples scanned, nodes expanded), not just wall-clock.

use wdpt_bench::{bench_case_with_stats, section};
use wdpt_core::try_evaluate_parallel_planned;
use wdpt_cq::backtrack::extend_exists;
use wdpt_cq::structured::{boolean_eval_structured, StructuredPlan};
use wdpt_cq::ConjunctiveQuery;
use wdpt_gen::db::random_graph_db;
use wdpt_gen::music::{figure1_wdpt, music_catalog, MusicParams};
use wdpt_model::{Atom, CancelToken, Interner, Mapping, Var};

fn path_cq(i: &mut Interner, n: usize) -> ConjunctiveQuery {
    let e = i.pred("e");
    let vs: Vec<Var> = (0..=n).map(|j| i.var(&format!("v{j}"))).collect();
    ConjunctiveQuery::boolean(
        vs.windows(2)
            .map(|w| Atom::new(e, vec![w[0].into(), w[1].into()]))
            .collect(),
    )
}

fn bench_structured_vs_backtracking_in_class() {
    // On TW(1) queries both engines are polynomial; this quantifies the
    // constant-factor cost of bag materialization vs raw search.
    section("ablation/structured_overhead_on_tw1");
    for n in [4usize, 8, 12] {
        let mut i = Interner::new();
        let (db, _) = random_graph_db(&mut i, 50, 400, 5);
        let q = path_cq(&mut i, n);
        let plan = StructuredPlan::for_query_tw(&q, 1).unwrap();
        bench_case_with_stats(&format!("backtrack/{n}"), || {
            extend_exists(&db, q.body(), &Mapping::empty());
        });
        bench_case_with_stats(&format!("tw1_structured/{n}"), || {
            boolean_eval_structured(&q, &db, &plan, &Mapping::empty());
        });
        bench_case_with_stats(&format!("tw1_with_planning/{n}"), || {
            let plan = StructuredPlan::for_query_tw(&q, 1).unwrap();
            boolean_eval_structured(&q, &db, &plan, &Mapping::empty());
        });
    }
}

fn bench_parallel_evaluation() {
    // Sequential vs scoped-thread evaluation of the Figure 1 query on a
    // growing music catalog: `parallel_tasks` shows the fan-out.
    section("ablation/parallel_wdpt_evaluation");
    for bands in [100usize, 400] {
        let mut i = Interner::new();
        let db = music_catalog(
            &mut i,
            MusicParams {
                bands,
                ..MusicParams::default()
            },
        );
        let p = figure1_wdpt(&mut i);
        bench_case_with_stats(&format!("sequential/{bands}"), || {
            wdpt_core::evaluate(&p, &db);
        });
        for threads in [2usize, 4, 8] {
            bench_case_with_stats(&format!("parallel{threads}/{bands}"), || {
                try_evaluate_parallel_planned(&p, &db, threads, CancelToken::never(), None)
                    .unwrap();
            });
        }
    }
}

fn main() {
    bench_structured_vs_backtracking_in_class();
    bench_parallel_evaluation();
}
