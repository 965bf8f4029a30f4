//! WDPT semantics: maximal homomorphisms, `p(D)`, and `p_m(D)`.
//!
//! Definition 2 of the paper: a homomorphism from `p = (T, λ, x̄)` to `D` is
//! a partial mapping that is a full homomorphism of `q_{T'}` for some rooted
//! subtree `T'`; it is *maximal* if no proper extension is again a
//! homomorphism; `p(D)` is the set of projections `h_x̄` of maximal
//! homomorphisms; `p_m(D)` (Section 3.4) keeps only the ⊑-maximal ones.
//!
//! The evaluator exploits well-designedness: two sibling subtrees can share
//! a variable only through their common ancestors, so once the ancestor
//! valuation is fixed the children are independent. A maximal homomorphism
//! is therefore a local homomorphism of the root joined, for every child
//! that is extendable at all, with some maximal extension into that child —
//! a recursive product that never enumerates the `2^{|T|}` subtrees
//! explicitly. The same independence lets the root's `(local
//! homomorphism × OPT child)` pairs run on scoped worker threads.

use crate::tree::Wdpt;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use wdpt_cq::backtrack::{extend_all, extend_exists, try_extend_all, try_extend_all_ordered};
use wdpt_model::{mapping::maximal_mappings, CancelToken, Cancelled, Database, Mapping};
use wdpt_obs::span;
use wdpt_plan::ExecPlan;

/// Per-query, per-tree-node tallies collected while evaluating. One slot
/// per WDPT node (preorder id); atomics so the parallel workers can share
/// one tally. Unlike the process-wide metrics registry, a `NodeTally` is
/// local to a single evaluation, so its counts are exact and deterministic
/// even when other queries run concurrently — which is what lets the
/// observability-parity test assert sequential == parallel exactly.
#[derive(Debug)]
pub(crate) struct NodeTally {
    /// Local homomorphisms found at node `t`, summed over all ancestor
    /// contexts the node was evaluated under.
    homs: Vec<AtomicU64>,
}

impl NodeTally {
    pub(crate) fn new(nodes: usize) -> Self {
        NodeTally {
            homs: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn add_homs(&self, t: usize, n: u64) {
        self.homs[t].fetch_add(n, Relaxed);
    }

    /// Final per-node counts, indexed by preorder node id.
    pub(crate) fn hom_counts(&self) -> Vec<u64> {
        self.homs.iter().map(|a| a.load(Relaxed)).collect()
    }
}

/// Fewest (root local homomorphism × OPT child) work items for which
/// spawning threads can pay off; below this the items run inline.
const MIN_PARALLEL_JOBS: usize = 2;

const NEVER: &str = "the never token cannot cancel";

/// One evaluation's fixed inputs, shared by reference with every recursion
/// level and every scoped worker (`Database` is `Sync` — the column indexes
/// live in `OnceLock`s — and the tally is atomic).
struct Run<'a> {
    p: &'a Wdpt,
    db: &'a Database,
    plan: Option<&'a ExecPlan>,
    tally: Option<&'a NodeTally>,
    token: &'a CancelToken,
}

impl Run<'_> {
    /// Maximal extensions into the subtree rooted at `t`, given the
    /// bindings of the ancestors. Empty result means "`t` is not
    /// extendable" (the OPT branch fails and is dropped).
    ///
    /// The node's local homomorphisms are searched once; the `(local hom ×
    /// child)` parts are then computed on up to `threads` scoped workers
    /// when there are at least [`MIN_PARALLEL_JOBS`] of them, inline
    /// otherwise. Everything below this node runs inline.
    fn extensions(
        &self,
        t: usize,
        inherited: &Mapping,
        threads: usize,
    ) -> Result<Vec<Mapping>, Cancelled> {
        let local = match self.plan.and_then(|pl| pl.nodes.get(t)) {
            Some(no) => {
                try_extend_all_ordered(self.db, self.p.atoms(t), &no.order, inherited, self.token)
            }
            None => try_extend_all(self.db, self.p.atoms(t), inherited, self.token),
        }?;
        if let Some(tally) = self.tally {
            tally.add_homs(t, local.len() as u64);
        }
        let ctxs: Vec<Mapping> = local
            .into_iter()
            .map(|g| {
                inherited
                    .union(&g)
                    .expect("local homomorphism agrees with inherited bindings")
            })
            .collect();
        let children = self.p.children(t);
        let jobs = ctxs.len() * children.len();
        let parts = if threads > 1 && jobs >= MIN_PARALLEL_JOBS {
            self.fan_out(&ctxs, children, threads)?
        } else {
            let mut parts = Vec::with_capacity(jobs);
            for ctx in &ctxs {
                for &c in children {
                    parts.push(self.extensions(c, ctx, 1)?);
                }
            }
            parts
        };
        let _assemble = (t == self.p.root()).then(|| span!("wdpt.eval.assemble"));
        let mut out = Vec::new();
        for (ci, ctx) in ctxs.into_iter().enumerate() {
            let row = &parts[ci * children.len()..(ci + 1) * children.len()];
            self.product(ctx, row, &mut out)?;
        }
        Ok(out)
    }

    /// Computes `extensions(child, ctx)` for every `(ctx, child)` pair on
    /// `threads` scoped workers, strided over the pairs; the result is
    /// indexed `ci * children.len() + j`. The workers share the cancel
    /// token, so one hitting the deadline stops the rest within one poll
    /// interval; the scope joins everything before the error propagates.
    fn fan_out(
        &self,
        ctxs: &[Mapping],
        children: &[usize],
        threads: usize,
    ) -> Result<Vec<Vec<Mapping>>, Cancelled> {
        let jobs = ctxs.len() * children.len();
        let workers = threads.min(jobs);
        let mut parts = vec![Vec::new(); jobs];
        let mut cancelled = false;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let _span = span!("wdpt.parallel.worker");
                        (w..jobs)
                            .step_by(workers)
                            .map(|idx| {
                                wdpt_model::stats::record_parallel_task();
                                let (ci, j) = (idx / children.len(), idx % children.len());
                                (idx, self.extensions(children[j], &ctxs[ci], 1))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (idx, exts) in handle.join().expect("worker thread panicked") {
                    match exts {
                        Ok(exts) => parts[idx] = exts,
                        Err(Cancelled) => cancelled = true,
                    }
                }
            }
        });
        if cancelled {
            return Err(Cancelled);
        }
        Ok(parts)
    }

    /// Appends to `out` the cartesian product of `ctx` with its children's
    /// maximal extensions `parts`. An empty part is a child that is not
    /// extendable: it contributes nothing, and maximality w.r.t. it holds
    /// vacuously. The token is polled between product rounds.
    fn product(
        &self,
        ctx: Mapping,
        parts: &[Vec<Mapping>],
        out: &mut Vec<Mapping>,
    ) -> Result<(), Cancelled> {
        let mut acc = vec![ctx];
        for part in parts.iter().filter(|part| !part.is_empty()) {
            if self.token.is_cancelled() {
                return Err(Cancelled);
            }
            let mut next = Vec::with_capacity(acc.len() * part.len());
            for base in &acc {
                for ext in part {
                    next.push(
                        base.union(ext)
                            .expect("sibling subtrees only share ancestor variables"),
                    );
                }
            }
            acc = next;
        }
        out.extend(acc);
        Ok(())
    }
}

/// The evaluator behind every entry point: all maximal homomorphisms from
/// `p` to `db`, in no particular order. Fans out over up to `threads`
/// worker threads (`0` means [`std::thread::available_parallelism`]);
/// the answers never depend on `threads`.
///
/// `plan` supplies a static atom order per node; nodes it does not cover
/// (or a plan built for a different tree shape) fall back to the dynamic
/// most-constrained heuristic. `tally`, when given, receives the per-node
/// homomorphism counts.
pub(crate) fn maximal_homs(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    plan: Option<&ExecPlan>,
    tally: Option<&NodeTally>,
) -> Result<Vec<Mapping>, Cancelled> {
    let _span = span!("wdpt.eval");
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let run = Run {
        p,
        db,
        plan,
        tally,
        token,
    };
    run.extensions(p.root(), &Mapping::empty(), threads)
}

/// Deduplicates `homs` in canonical (sorted) order.
fn canonical(homs: impl IntoIterator<Item = Mapping>) -> Vec<Mapping> {
    let set: BTreeSet<Mapping> = homs.into_iter().collect();
    set.into_iter().collect()
}

/// Projects maximal homomorphisms onto the free variables: `p(D)` in
/// canonical order.
pub(crate) fn project_free(p: &Wdpt, homs: Vec<Mapping>) -> Vec<Mapping> {
    let free = p.free_set();
    canonical(homs.into_iter().map(|h| h.restrict(&free)))
}

/// All maximal homomorphisms from `p` to `db` (on their various domains),
/// in canonical order. Exponential in the size of the output; intended for
/// exact small-scale semantics, tests, and the intractable baselines of
/// the benchmarks.
pub fn maximal_homomorphisms(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    canonical(maximal_homs(p, db, 1, CancelToken::never(), None, None).expect(NEVER))
}

/// The evaluation `p(D)`: projections of the maximal homomorphisms onto the
/// free variables, deduplicated (Definition 2).
pub fn evaluate(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    try_evaluate_parallel_planned(p, db, 1, CancelToken::never(), None).expect(NEVER)
}

/// The maximal-mapping semantics `p_m(D)` (Section 3.4): the ⊑-maximal
/// elements of `p(D)`.
pub fn evaluate_max(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    maximal_mappings(evaluate(p, db))
}

/// [`evaluate`] on up to `threads` worker threads (`0` auto-detects),
/// under a cancel token, executing an optional cost-based [`ExecPlan`] —
/// the entry point the query service uses. `Err(Cancelled)` if the token
/// fires (or its deadline passes) mid-evaluation. Answers are identical
/// for every thread count and with or without a plan; see
/// [`try_evaluate_parallel_captured_planned`](crate::profile::try_evaluate_parallel_captured_planned)
/// for the profiled variant.
pub fn try_evaluate_parallel_planned(
    p: &Wdpt,
    db: &Database,
    threads: usize,
    token: &CancelToken,
    plan: Option<&ExecPlan>,
) -> Result<Vec<Mapping>, Cancelled> {
    Ok(project_free(
        p,
        maximal_homs(p, db, threads, token, plan, None)?,
    ))
}

/// All homomorphisms from `p` to `db` (not only maximal ones): full
/// homomorphisms of `q_{T'}` over every rooted subtree `T'`. Exponential;
/// used by tests and as the reference implementation for the decision
/// procedures.
pub fn all_homomorphisms(p: &Wdpt, db: &Database) -> Vec<Mapping> {
    let mut out: BTreeSet<Mapping> = BTreeSet::new();
    p.for_each_rooted_subtree(&mut |subtree| {
        let q = p.cq_of_subtree(subtree);
        for h in extend_all(db, q.body(), &Mapping::empty()) {
            out.insert(h);
        }
    });
    out.into_iter().collect()
}

/// Reference check that a mapping is a homomorphism from `p` to `db`
/// witnessed by some rooted subtree whose variables are exactly `dom(h)`.
pub fn is_homomorphism(p: &Wdpt, db: &Database, h: &Mapping) -> bool {
    let dom = h.domain();
    let mut found = false;
    p.for_each_rooted_subtree(&mut |subtree| {
        if found {
            return;
        }
        if p.subtree_vars(subtree) != dom {
            return;
        }
        let q = p.cq_of_subtree(subtree);
        if q.body().iter().all(|a| db.contains_atom(&a.apply(h))) {
            found = true;
        }
    });
    found
}

/// Reference maximality check: `h` is a homomorphism and no proper
/// extension is one. Exponential; testing only.
pub fn is_maximal_homomorphism(p: &Wdpt, db: &Database, h: &Mapping) -> bool {
    if !is_homomorphism(p, db, h) {
        return false;
    }
    all_homomorphisms(p, db)
        .iter()
        .all(|other| !h.strictly_subsumed_by(other))
}

/// Convenience used by tests: is the tree satisfiable at all (i.e. is
/// `p(D)` non-empty)? Equivalent to the root label having a homomorphism.
pub fn satisfiable(p: &Wdpt, db: &Database) -> bool {
    extend_exists(db, p.atoms(p.root()), &Mapping::empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::WdptBuilder;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    /// `p(D)` on `threads` workers through the general entry point.
    fn evaluate_on(p: &Wdpt, db: &Database, threads: usize) -> Vec<Mapping> {
        try_evaluate_parallel_planned(p, db, threads, CancelToken::never(), None).unwrap()
    }

    /// Maximal homomorphisms on `threads` workers, in canonical order.
    fn maximal_homs_on(p: &Wdpt, db: &Database, threads: usize) -> Vec<Mapping> {
        canonical(maximal_homs(p, db, threads, CancelToken::never(), None, None).unwrap())
    }

    /// Figure 1 WDPT over the Example 2 database.
    fn example2(i: &mut Interner) -> (Wdpt, Database) {
        let root = parse_atoms(i, r#"rec_by(?x,?y) publ(?x,"after_2010")"#).unwrap();
        let left = parse_atoms(i, "nme_rating(?x,?z)").unwrap();
        let right = parse_atoms(i, "formed_in(?y,?z2)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, left);
        b.child(0, right);
        let free = ["x", "y", "z", "z2"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(
            i,
            r#"rec_by("Our_love","Caribou") publ("Our_love","after_2010")
               rec_by("Swim","Caribou") publ("Swim","after_2010")
               nme_rating("Swim","2")"#,
        )
        .unwrap();
        (p, db)
    }

    #[test]
    fn example2_answers() {
        // Example 2 of the paper: μ1 = {x ↦ Our_love, y ↦ Caribou} and
        // μ2 = {x ↦ Swim, y ↦ Caribou, z ↦ 2}.
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let mut answers = evaluate(&p, &db);
        answers.sort();
        let mu1 = parse_mapping(&mut i, r#"?x -> "Our_love", ?y -> "Caribou""#).unwrap();
        let mu2 = parse_mapping(&mut i, r#"?x -> "Swim", ?y -> "Caribou", ?z -> "2""#).unwrap();
        let mut expected = vec![mu1, mu2];
        expected.sort();
        assert_eq!(answers, expected);
    }

    #[test]
    fn example3_projection() {
        // Example 3: projecting out x yields μ'1 = {y ↦ Caribou} and
        // μ'2 = {y ↦ Caribou, z ↦ 2}.
        let mut i = Interner::new();
        let (p0, db) = example2(&mut i);
        let free = ["y", "z", "z2"]
            .iter()
            .map(|n| i.var(n))
            .collect::<Vec<_>>();
        let p = rebuild_with_free(&p0, free);
        let mut answers = evaluate(&p, &db);
        answers.sort();
        let m1 = parse_mapping(&mut i, r#"?y -> "Caribou""#).unwrap();
        let m2 = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        let mut expected = vec![m1, m2];
        expected.sort();
        assert_eq!(answers, expected);
    }

    #[test]
    fn example7_max_semantics() {
        // Example 7: with x̄ = {y, z}, p(D) = {μ1, μ2} but p_m(D) = {μ2}.
        let mut i = Interner::new();
        let (p0, db) = example2(&mut i);
        let free = ["y", "z"].iter().map(|n| i.var(n)).collect::<Vec<_>>();
        let p = rebuild_with_free(&p0, free);
        let answers = evaluate(&p, &db);
        assert_eq!(answers.len(), 2);
        let max = evaluate_max(&p, &db);
        assert_eq!(max.len(), 1);
        let m2 = parse_mapping(&mut i, r#"?y -> "Caribou", ?z -> "2""#).unwrap();
        assert_eq!(max[0], m2);
    }

    /// Rebuilds a WDPT with a different free-variable tuple.
    fn rebuild_with_free(p: &Wdpt, free: Vec<wdpt_model::Var>) -> Wdpt {
        let mut b = WdptBuilder::new(p.atoms(0).to_vec());
        let mut map = vec![0usize; p.node_count()];
        for t in 1..p.node_count() {
            let parent = map[p.parent(t).unwrap()];
            map[t] = b.child(parent, p.atoms(t).to_vec());
        }
        b.build(free).unwrap()
    }

    #[test]
    fn optional_branch_failure_does_not_kill_answer() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let child = parse_atoms(&mut i, "b(?x,?y)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, child);
        let p = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        let db = parse_database(&mut i, "a(1)").unwrap();
        let ans = evaluate(&p, &db);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].len(), 1); // only x bound
    }

    #[test]
    fn mandatory_root_failure_yields_empty() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let p = WdptBuilder::new(root).build(vec![i.var("x")]).unwrap();
        let db = parse_database(&mut i, "b(1)").unwrap();
        assert!(evaluate(&p, &db).is_empty());
        assert!(!satisfiable(&p, &db));
    }

    #[test]
    fn extension_is_forced_when_available() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let child = parse_atoms(&mut i, "b(?x,?y)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, child);
        let p = b.build(vec![i.var("x"), i.var("y")]).unwrap();
        let db = parse_database(&mut i, "a(1) b(1,2)").unwrap();
        let ans = evaluate(&p, &db);
        // {x↦1} alone is NOT maximal because it extends to {x↦1, y↦2}.
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].len(), 2);
    }

    #[test]
    fn nested_optional_chain() {
        let mut i = Interner::new();
        let mut b = WdptBuilder::new(parse_atoms(&mut i, "a(?x)").unwrap());
        let c1 = b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(c1, parse_atoms(&mut i, "c(?y,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1) a(2) b(2,5) b(2,6) c(6,9)").unwrap();
        let mut ans = evaluate(&p, &db);
        ans.sort();
        // x=1: no b — answer {x↦1}. x=2,y=5: no c — {x↦2,y↦5}.
        // x=2,y=6: c(6,9) — {x↦2,y↦6,z↦9}.
        assert_eq!(ans.len(), 3);
        assert_eq!(
            ans.iter().map(Mapping::len).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn maximal_homs_agree_with_reference() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        for h in maximal_homomorphisms(&p, &db) {
            assert!(is_maximal_homomorphism(&p, &db, &h));
        }
        // And every reference-maximal hom is produced.
        for h in all_homomorphisms(&p, &db) {
            if is_maximal_homomorphism(&p, &db, &h) {
                assert!(maximal_homomorphisms(&p, &db).contains(&h));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_paper_examples() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        for threads in [0, 1, 2, 4, 16] {
            assert_eq!(evaluate_on(&p, &db, threads), evaluate(&p, &db));
            assert_eq!(
                maximal_homs_on(&p, &db, threads),
                maximal_homomorphisms(&p, &db)
            );
            assert_eq!(
                maximal_mappings(evaluate_on(&p, &db, threads)),
                evaluate_max(&p, &db)
            );
        }
    }

    #[test]
    fn parallel_falls_back_on_single_node_trees() {
        let mut i = Interner::new();
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let p = WdptBuilder::new(root).build(vec![i.var("x")]).unwrap();
        let db = parse_database(&mut i, "a(1) a(2)").unwrap();
        let before = wdpt_model::stats::snapshot();
        let ans = evaluate_on(&p, &db, 8);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(ans, evaluate(&p, &db));
        // No children means no work items, so nothing is fanned out.
        assert_eq!(delta.parallel_tasks, 0);
    }

    #[test]
    fn parallel_fans_out_one_task_per_context_child_pair() {
        let mut i = Interner::new();
        // 3 root homomorphisms × 2 children = 6 work items.
        let root = parse_atoms(&mut i, "a(?x)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?x,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?x,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1) a(2) a(3) b(1,10) b(2,20) c(2,30) c(3,31)").unwrap();
        let before = wdpt_model::stats::snapshot();
        let ans = evaluate_on(&p, &db, 4);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(ans, evaluate(&p, &db));
        assert_eq!(ans.len(), 3);
        assert!(delta.parallel_tasks >= 6);
    }

    #[test]
    fn parallel_agrees_with_sequential_on_random_trees() {
        // Deterministic LCG in place of an external RNG (same pattern as
        // `eval::tests::agrees_with_enumeration_on_random_trees`).
        let mut state = 0x5eed_cafe_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _case in 0..30 {
            let mut i = Interner::new();
            let e = i.pred("e");
            let f = i.pred("f");
            let g = i.pred("g");
            let mut db = Database::new();
            for _ in 0..(4 + next() % 10) {
                let a = i.constant(&format!("c{}", next() % 4));
                let b = i.constant(&format!("c{}", next() % 4));
                db.insert(e, vec![a, b]);
                if next() % 2 == 0 {
                    db.insert(f, vec![b, a]);
                }
                if next() % 3 == 0 {
                    db.insert(g, vec![a, a]);
                }
            }
            let x = i.var("x");
            let y = i.var("y");
            let z = i.var("z");
            let w = i.var("w");
            let mut b = WdptBuilder::new(vec![wdpt_model::Atom::new(e, vec![x.into(), y.into()])]);
            let c1 = b.child(
                0,
                vec![wdpt_model::Atom::new(
                    if next() % 2 == 0 { e } else { f },
                    vec![y.into(), z.into()],
                )],
            );
            b.child(0, vec![wdpt_model::Atom::new(g, vec![x.into(), w.into()])]);
            if next() % 2 == 0 {
                // ?v is existential; reusing ?x here would break
                // well-designedness (x occurs at the root but not at c1).
                let v = i.var("v");
                b.child(c1, vec![wdpt_model::Atom::new(f, vec![z.into(), v.into()])]);
            }
            let p = b.build(vec![x, y, z, w]).unwrap();
            let threads = 1 + next() % 5;
            assert_eq!(
                evaluate_on(&p, &db, threads),
                evaluate(&p, &db),
                "threads={threads}"
            );
            assert_eq!(
                maximal_mappings(evaluate_on(&p, &db, threads)),
                evaluate_max(&p, &db),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cancelled_evaluation_returns_typed_error() {
        let mut i = Interner::new();
        let (p, db) = example2(&mut i);
        let token = wdpt_model::CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            assert_eq!(
                try_evaluate_parallel_planned(&p, &db, threads, &token, None),
                Err(wdpt_model::Cancelled)
            );
        }
        // A live token changes nothing about the answers.
        let live = wdpt_model::CancelToken::new();
        for threads in [1, 4] {
            assert_eq!(
                try_evaluate_parallel_planned(&p, &db, threads, &live, None).unwrap(),
                evaluate(&p, &db)
            );
        }
    }

    #[test]
    fn shared_existential_variable_constrains_branches() {
        let mut i = Interner::new();
        // Root binds ?u existentially; both children use ?u.
        let root = parse_atoms(&mut i, "a(?x,?u)").unwrap();
        let mut b = WdptBuilder::new(root);
        b.child(0, parse_atoms(&mut i, "b(?u,?y)").unwrap());
        b.child(0, parse_atoms(&mut i, "c(?u,?z)").unwrap());
        let free = ["x", "y", "z"].iter().map(|n| i.var(n)).collect();
        let p = b.build(free).unwrap();
        let db = parse_database(&mut i, "a(1,7) a(1,8) b(7,10) c(8,20)").unwrap();
        let mut ans = evaluate(&p, &db);
        ans.sort();
        // u=7: b extends (y=10), c fails → {x↦1, y↦10}.
        // u=8: b fails, c extends (z=20) → {x↦1, z↦20}.
        assert_eq!(ans.len(), 2);
    }
}
