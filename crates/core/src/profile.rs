//! Profiled WDPT evaluation: the `EXPLAIN ANALYZE` entry point.
//!
//! [`try_evaluate_parallel_captured_planned`] runs the same evaluator as
//! [`crate::semantics`] but brackets it with a
//! [`wdpt_obs::ProfileRecorder`] (enabling span tracing for the duration)
//! and collects exact per-tree-node homomorphism tallies via a query-local
//! [`NodeTally`](crate::semantics). Because the tally is query-local — not
//! a process-wide counter — the per-node numbers are deterministic: a
//! parallel profile's node data equals the sequential one's exactly, which
//! the observability-parity test relies on.

use crate::semantics::{maximal_homs, project_free, NodeTally};
use crate::tree::Wdpt;
use wdpt_model::{CancelToken, Cancelled, Database, Mapping};
use wdpt_obs::{NodeEntry, ProfileRecorder, QueryProfile};
use wdpt_plan::ExecPlan;

/// Builds the per-node profile entries from a finished tally: preorder ids,
/// parent/depth for indentation, a label summarizing the node's pattern,
/// and the homomorphism count.
fn node_entries(p: &Wdpt, tally: &NodeTally) -> Vec<NodeEntry> {
    let counts = tally.hom_counts();
    (0..p.node_count())
        .map(|t| NodeEntry {
            id: t,
            parent: p.parent(t),
            depth: p.depth(t),
            label: format!(
                "{} atom(s), {} var(s)",
                p.atoms(t).len(),
                p.node_vars(t).len()
            ),
            metrics: vec![("homomorphisms", counts[t])],
        })
        .collect()
}

/// [`crate::try_evaluate_parallel_planned`] plus a [`QueryProfile`] of the
/// run. The profile *survives* cancellation: whatever phases, counters,
/// and per-node tallies accumulated up to the deadline come back alongside
/// the `Err`. This is what a serving layer's slow-query log needs — the
/// queries most worth explaining are exactly the ones that blew their
/// deadline, and a discarded profile would leave their EXPLAIN empty.
///
/// The per-node homomorphism counts are identical for every thread count;
/// a fanned-out run additionally shows `wdpt.parallel.worker` spans and
/// the `wdpt.parallel_tasks` counter. Nodes with a planned atom order run
/// it statically; a `None` plan (or a plan built for a different tree
/// shape) falls back to the dynamic most-constrained heuristic per node.
/// Answers are identical either way — a plan only changes the order work
/// is discovered in.
pub fn try_evaluate_parallel_captured_planned(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    label: &str,
    plan: Option<&ExecPlan>,
) -> (Result<Vec<Mapping>, Cancelled>, QueryProfile) {
    let mut rec = ProfileRecorder::start(label);
    let tally = NodeTally::new(p.node_count());
    let result =
        maximal_homs(p, db, threads, token, plan, Some(&tally)).map(|homs| project_free(p, homs));
    rec.set_nodes(node_entries(p, &tally));
    let answers = result.as_ref().map_or(0, |a| a.len() as u64);
    (result, rec.finish(answers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{evaluate, try_evaluate_parallel_planned};
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database};
    use wdpt_model::Interner;

    fn fixture() -> (Interner, Wdpt, Database) {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        let c1 = b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?x,?z)").unwrap());
        b.child(c1, parse_atoms(&mut i, "d(?y,?w)").unwrap());
        let free = ["x", "y", "z", "w"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            &mut i,
            "a(1) a(2) a(3) b(1,10) b(2,20) b(2,21) c(2,30) c(3,31) d(20,40)",
        )
        .unwrap();
        (i, p, db)
    }

    fn profiled(
        p: &Wdpt,
        db: &Database,
        threads: usize,
        label: &str,
    ) -> (Vec<Mapping>, QueryProfile) {
        let never = CancelToken::never();
        let (answers, profile) =
            try_evaluate_parallel_captured_planned(p, db, threads, never, label, None);
        (answers.unwrap(), profile)
    }

    #[test]
    fn profiled_answers_match_unprofiled() {
        let (_i, p, db) = fixture();
        let (answers, profile) = profiled(&p, &db, 1, "test seq");
        assert_eq!(answers, evaluate(&p, &db));
        assert_eq!(profile.answers, answers.len() as u64);
        assert_eq!(profile.nodes.len(), p.node_count());
        // The root saw its 3 local homomorphisms.
        assert_eq!(profile.nodes[0].metrics[0], ("homomorphisms", 3));
        // Spans fired: the evaluator and the backtrack engine.
        assert!(profile.phase("wdpt.eval").is_some());
        assert!(profile.phase("cq.backtrack.extend_all").is_some());
    }

    #[test]
    fn parallel_profile_has_exact_node_parity_with_sequential() {
        let (_i, p, db) = fixture();
        let (seq_answers, seq_profile) = profiled(&p, &db, 1, "seq");
        for threads in [2, 4, 8] {
            let (par_answers, par_profile) = profiled(&p, &db, threads, "par");
            assert_eq!(par_answers, seq_answers);
            assert_eq!(
                Ok(par_answers),
                try_evaluate_parallel_planned(&p, &db, threads, CancelToken::never(), None)
            );
            // Observability parity: identical per-node homomorphism tallies,
            // merged across the scoped workers.
            assert_eq!(par_profile.nodes, seq_profile.nodes);
            // And the parallel run is visibly parallel.
            assert!(par_profile.counter("wdpt.parallel_tasks") >= 6);
            let worker = par_profile.phase("wdpt.parallel.worker").unwrap();
            assert!(worker.calls >= 2, "expected ≥2 worker spans");
        }
    }

    #[test]
    fn profile_serializes_and_renders() {
        let (_i, p, db) = fixture();
        let (_, profile) = profiled(&p, &db, 4, "render");
        let text = profile.render();
        assert!(text.contains("wdpt.eval"));
        assert!(text.contains("homomorphisms="));
        let json = profile.to_json().to_string();
        let parsed = wdpt_obs::Json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("nodes").unwrap().as_arr().unwrap().len(),
            p.node_count()
        );
    }

    #[test]
    fn cancelled_run_keeps_its_profile() {
        let (_i, p, db) = fixture();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let (result, profile) =
                try_evaluate_parallel_captured_planned(&p, &db, threads, &token, "cut", None);
            assert_eq!(result, Err(Cancelled));
            assert_eq!(profile.answers, 0);
            assert_eq!(profile.nodes.len(), p.node_count());
        }
    }
}
