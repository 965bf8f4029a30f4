//! Micro-benchmarks for the WDPT evaluation variants (Table 1 cells):
//! EVAL via the general Σ₂ᵖ procedure vs the Theorem 6 algorithm,
//! PARTIAL-EVAL and MAX-EVAL with the structured engines, and the
//! sequential vs thread-parallel enumeration of `p(D)`.
//!
//! Plain `fn main` driven by the std-only [`wdpt_bench::bench_case`]
//! runner (`harness = false`).

use wdpt_bench::{bench_case, section};
use wdpt_core::{
    eval_bounded_interface, eval_decide, max_eval_decide, partial_eval_decide,
    try_evaluate_parallel_planned, Engine,
};
use wdpt_gen::music::{figure1_wdpt, music_catalog, MusicParams};
use wdpt_gen::reductions::three_col_instance;
use wdpt_gen::trees::chain_wdpt;
use wdpt_model::{CancelToken, Interner, Mapping};

fn bench_eval_on_figure1() {
    section("wdpt/eval_figure1_catalog");
    for bands in [50usize, 200, 800] {
        let mut i = Interner::new();
        let db = music_catalog(
            &mut i,
            MusicParams {
                bands,
                ..MusicParams::default()
            },
        );
        let p = figure1_wdpt(&mut i);
        let answers = wdpt_core::evaluate(&p, &db);
        let h = answers.iter().max_by_key(|m| m.len()).unwrap().clone();
        bench_case(&format!("thm6_tw1/{bands}"), || {
            eval_bounded_interface(&p, &db, &h, Engine::Tw(1));
        });
        bench_case(&format!("thm6_backtrack/{bands}"), || {
            eval_bounded_interface(&p, &db, &h, Engine::Backtrack);
        });
        bench_case(&format!("general/{bands}"), || {
            eval_decide(&p, &db, &h);
        });
    }
}

fn bench_enumeration_parallel() {
    section("wdpt/enumerate_figure1_catalog");
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
        bench_case(&format!("sequential/{bands}"), || {
            wdpt_core::evaluate(&p, &db);
        });
        for threads in [2usize, 4] {
            bench_case(&format!("parallel{threads}/{bands}"), || {
                try_evaluate_parallel_planned(&p, &db, threads, CancelToken::never(), None)
                    .unwrap();
            });
        }
    }
}

fn bench_eval_hard_instances() {
    section("wdpt/eval_3col_reduction");
    for n in [4usize, 6, 8] {
        let mut i = Interner::new();
        let edges = wdpt_gen::db::random_undirected_graph(n, (5.0 / n as f64).min(0.9), n as u64);
        let inst = three_col_instance(&mut i, n, &edges);
        bench_case(&format!("general/{n}"), || {
            eval_decide(&inst.wdpt, &inst.db, &inst.candidate);
        });
    }
}

fn bench_partial_and_max() {
    section("wdpt/partial_and_max_eval");
    for depth in [5usize, 15, 30] {
        let mut i = Interner::new();
        let p = chain_wdpt(&mut i, depth, Some(2));
        let (db, _) = wdpt_gen::db::random_graph_db(&mut i, 30, 120, 3);
        let y0 = i.var("y0");
        let h = Mapping::from_pairs(vec![(y0, i.constant("c0"))]);
        bench_case(&format!("partial_tw1/{depth}"), || {
            partial_eval_decide(&p, &db, &h, Engine::Tw(1));
        });
        bench_case(&format!("partial_backtrack/{depth}"), || {
            partial_eval_decide(&p, &db, &h, Engine::Backtrack);
        });
        bench_case(&format!("max_tw1/{depth}"), || {
            max_eval_decide(&p, &db, &h, Engine::Tw(1));
        });
    }
}

fn main() {
    bench_eval_on_figure1();
    bench_enumeration_parallel();
    bench_eval_hard_instances();
    bench_partial_and_max();
}
