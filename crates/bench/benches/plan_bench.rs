//! Planner ablation: cost-based static orders vs the seed engine's
//! orderings, on a skewed synthetic catalog.
//!
//! The seed engine had two orderings: the query's own atom order executed
//! one-shot (here: `try_extend_all_ordered` with the identity permutation),
//! and the per-step most-constrained heuristic (`try_extend_all`). The planner replaces both with a static permutation chosen
//! up front from the statistics catalog. This bench measures what that
//! buys on data where the input order is maximally wrong — a heavy fan-out
//! relation listed first, the 1-row filter last — by comparing *actual*
//! backtracking `nodes_expanded` (the engine counter, not the estimate)
//! across seed input-order, seed dynamic, and the three enumeration
//! strategies, plus the planning latency each strategy pays.
//!
//! Plain `fn main` driven by the std-only runner (`harness = false`).

use std::collections::BTreeSet;
use std::time::Instant;
use wdpt_bench::{bench_case, section};
use wdpt_cq::{try_extend_all, try_extend_all_ordered};
use wdpt_model::parse::{parse_atoms, parse_database};
use wdpt_model::{stats, Atom, CancelToken, Database, Interner, Mapping};
use wdpt_plan::{plan_node, NodeOrder, StatsCatalog, Strategy};

/// A skewed catalog: `small` holds `subjects` rows, `fan` fans each of
/// them out `fanout` ways, and `filter` matches exactly one fan target.
/// The cheap execution starts at `filter`; the query lists `fan` first.
fn skewed_db(i: &mut Interner, subjects: usize, fanout: usize) -> Database {
    let mut spec = String::new();
    for j in 0..subjects {
        spec.push_str(&format!("small(s{j}) "));
    }
    for j in 0..subjects {
        for k in 0..fanout {
            spec.push_str(&format!("fan(s{j},y{k}) "));
        }
    }
    spec.push_str("filter(y0) ");
    parse_database(i, &spec).expect("fixture parses")
}

/// Runs one configuration and returns the `nodes_expanded` delta (the
/// answers are asserted identical across configurations by the caller).
fn measure<F: FnOnce() -> Vec<Mapping>>(f: F) -> (Vec<Mapping>, u64) {
    let before = stats::snapshot();
    let answers = f();
    (answers, stats::snapshot().since(&before).nodes_expanded)
}

fn run_scale(subjects: usize, fanout: usize) {
    let mut i = Interner::new();
    let db = skewed_db(&mut i, subjects, fanout);
    let stats_catalog = StatsCatalog::build(&db);
    // Deliberately worst-first: the fan-out atom leads the input order.
    let atoms: Vec<Atom> = parse_atoms(&mut i, "fan(?x,?y), small(?x), filter(?y)").unwrap();
    let bound0 = BTreeSet::new();
    let seed = Mapping::default();
    let token = CancelToken::new();
    let identity: Vec<usize> = (0..atoms.len()).collect();

    section(&format!(
        "plan/skewed {subjects}x{fanout} ({} facts)",
        db.size()
    ));

    let (baseline, one_shot_nodes) =
        measure(|| try_extend_all_ordered(&db, &atoms, &identity, &seed, &token).unwrap());
    let (dynamic, dynamic_nodes) = measure(|| try_extend_all(&db, &atoms, &seed, &token).unwrap());
    assert_eq!(baseline.len(), dynamic.len());
    println!("  seed input-order        nodes_expanded {one_shot_nodes}");
    println!("  seed dynamic            nodes_expanded {dynamic_nodes}");

    for strategy in [Strategy::Greedy, Strategy::Dp, Strategy::Bushy] {
        let t0 = Instant::now();
        let plan: NodeOrder = plan_node(&stats_catalog, &atoms, &bound0, strategy, &token)
            .expect("planning is not cancelled");
        let plan_us = t0.elapsed().as_secs_f64() * 1e6;
        let (answers, nodes) =
            measure(|| try_extend_all_ordered(&db, &atoms, &plan.order, &seed, &token).unwrap());
        assert_eq!(answers.len(), baseline.len(), "{strategy}: answers differ");
        let speedup = one_shot_nodes as f64 / nodes.max(1) as f64;
        println!(
            "  {strategy:<8} order {:?}  nodes_expanded {nodes} ({speedup:.1}x vs input order, \
             est {:.0}, planned in {plan_us:.0}us)",
            plan.order, plan.est_nodes,
        );
        // The acceptance bar: a DP-family plan must beat the seed
        // one-shot ordering at least 2x on expanded nodes.
        if matches!(strategy, Strategy::Dp | Strategy::Bushy) {
            assert!(
                speedup >= 2.0,
                "{strategy} speedup {speedup:.2}x < 2x on the skewed catalog"
            );
        }
    }

    // Planning latency per strategy (the overhead side of the ledger).
    for strategy in [
        Strategy::Greedy,
        Strategy::Dp,
        Strategy::Bushy,
        Strategy::Auto,
    ] {
        bench_case(&format!("plan_{strategy}"), || {
            let no = plan_node(&stats_catalog, &atoms, &bound0, strategy, &token).unwrap();
            assert_eq!(no.order.len(), atoms.len());
        });
    }
}

fn main() {
    for (subjects, fanout) in [(4usize, 64usize), (8, 512)] {
        run_scale(subjects, fanout);
    }
}
