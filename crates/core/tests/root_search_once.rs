//! Regression: one evaluation searches the root exactly once, whatever the
//! thread count and whether or not the root's work fans out. The evaluator
//! must do the same searches a direct replay of the recursion does — the
//! root once, each child once per root context — so its `nodes_expanded`
//! equals the replay's.
//!
//! Kept to a single `#[test]` on purpose: the engine counters are
//! process-wide, so a second concurrently-running test in this binary
//! would corrupt the counts.

use wdpt_core::{evaluate, try_evaluate_parallel_planned, Wdpt, WdptBuilder};
use wdpt_cq::try_extend_all;
use wdpt_model::parse::{parse_atoms, parse_database};
use wdpt_model::{stats, CancelToken, Database, Interner, Mapping};

/// Runs `f` and returns its result with the `nodes_expanded` it caused.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = stats::snapshot();
    let out = f();
    (out, stats::snapshot().since(&before).nodes_expanded)
}

/// `nodes_expanded` of the searches the recursion is defined by: node `t`
/// once under `inherited`, then each child once per local homomorphism.
fn replay_nodes(p: &Wdpt, db: &Database, t: usize, inherited: &Mapping) -> u64 {
    let never = CancelToken::never();
    let (local, mut total) = counted(|| try_extend_all(db, p.atoms(t), inherited, never).unwrap());
    for g in &local {
        let ctx = inherited.union(g).unwrap();
        for &c in p.children(t) {
            total += replay_nodes(p, db, c, &ctx);
        }
    }
    total
}

#[test]
fn the_root_is_searched_once_at_every_thread_count() {
    let mut i = Interner::new();
    let db = parse_database(
        &mut i,
        "a(1,5) a(2,5) a(3,6) s(5) s(6) r(1) b(1,10) b(1,11) b(2,12)",
    )
    .unwrap();
    let (x, y, u) = (i.var("x"), i.var("y"), i.var("u"));

    // A single-node tree: no OPT children, so no work items to fan out.
    let single = WdptBuilder::new(parse_atoms(&mut i, "a(?x,?u), s(?u)").unwrap())
        .build(vec![x, u])
        .unwrap();
    // A root with exactly one match and one OPT child: one work item,
    // below the fan-out threshold.
    let mut b = WdptBuilder::new(parse_atoms(&mut i, "r(?x)").unwrap());
    b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
    let one_child = b.build(vec![x, y]).unwrap();

    for (name, p) in [
        ("single node", &single),
        ("one match, one child", &one_child),
    ] {
        let expected = replay_nodes(p, &db, p.root(), &Mapping::empty());
        assert!(expected > 0, "{name}: the fixture must do some search");
        for threads in [1, 2, 8] {
            let (answers, nodes) = counted(|| {
                try_evaluate_parallel_planned(p, &db, threads, CancelToken::never(), None).unwrap()
            });
            assert_eq!(
                nodes, expected,
                "{name}, {threads} threads: nodes_expanded differs from one search per node"
            );
            assert_eq!(answers, evaluate(p, &db), "{name}, {threads} threads");
        }
    }
}
