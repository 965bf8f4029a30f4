//! Generic backtracking evaluation — the baseline engine for arbitrary CQs.
//!
//! This is the textbook index-nested-loop search: repeatedly pick the most
//! constrained unprocessed atom (most bound positions, then smallest
//! matching-tuple estimate), scan its matching tuples through the relation's
//! column indexes, extend the current partial mapping, and recurse. Its
//! worst case is exponential in the query size — exactly the `NP`-hardness
//! the paper's tractable classes are designed to avoid — but it serves as
//! (a) the general-purpose fallback and (b) the baseline the benchmark
//! harness compares the structured engines against.
//!
//! Each search compiles its atoms into slot programs over a dense binding
//! array, reuses one pattern buffer per depth, builds a [`Mapping`] only at
//! answers, and tallies its engine counters locally, adding them to the
//! registry once when it returns (DESIGN.md §14).

use crate::query::ConjunctiveQuery;
use std::cmp::Reverse;
use wdpt_model::stats::Tally;
use wdpt_model::{Atom, CancelToken, Cancelled, Const, Database, Mapping, Relation, Term, Var};

/// How a search should proceed after each discovered homomorphism.
enum Found {
    Continue,
    Stop,
    /// The cancel token fired: unwind immediately, discarding progress.
    Cancelled,
}

/// Per-search control state: the shared cancel token, the step counter
/// that amortizes its deadline clock checks, and the search's engine
/// counters in plain integers, added to the registry once when the search
/// ends ([`run`]).
struct Ctl<'a> {
    token: &'a CancelToken,
    steps: u32,
    tally: Tally,
}

impl Ctl<'_> {
    /// One relaxed load per call — the same fast-path budget as the obs
    /// enabled-flag — with the clock consulted only every ~1k steps.
    #[inline]
    fn cancelled(&mut self) -> bool {
        self.token.should_stop(&mut self.steps)
    }
}

/// One atom argument, compiled against the search's variable slots.
#[derive(Debug, Clone, Copy)]
enum Arg {
    Const(Const),
    Slot(usize),
}

/// One atom compiled for a search: its relation and its arguments.
struct AtomProgram<'a> {
    /// `None` when the database holds no tuple of the atom's predicate and
    /// arity: the atom matches nothing.
    rel: Option<&'a Relation>,
    args: Vec<Arg>,
}

impl AtomProgram<'_> {
    /// Writes the atom's match pattern under `slots` into `pat` (the
    /// atom's arity long): bound positions carry `Some(c)`. Returns the
    /// number of bound positions.
    fn fill_pattern(&self, slots: &[Option<Const>], pat: &mut [Option<Const>]) -> usize {
        let mut bound = 0;
        for (p, arg) in pat.iter_mut().zip(&self.args) {
            *p = match *arg {
                Arg::Const(c) => Some(c),
                Arg::Slot(s) => slots[s],
            };
            bound += usize::from(p.is_some());
        }
        bound
    }

    /// Extends `slots` by `tuple`, a candidate for pattern `pat`. Checks
    /// every position, so the candidate filter and the equality of
    /// repeated variables are one pass. On a mismatch nothing stays bound.
    #[inline]
    fn bind(&self, tuple: &[Const], pat: &[Option<Const>], slots: &mut [Option<Const>]) -> bool {
        for (arg, &v) in self.args.iter().zip(tuple) {
            let ok = match *arg {
                Arg::Const(c) => c == v,
                Arg::Slot(s) => *slots[s].get_or_insert(v) == v,
            };
            if !ok {
                self.unbind(pat, slots);
                return false;
            }
        }
        true
    }

    /// Undoes [`AtomProgram::bind`]: the slots it bound are exactly those
    /// at the positions `pat` leaves unbound, the same for every candidate.
    #[inline]
    fn unbind(&self, pat: &[Option<Const>], slots: &mut [Option<Const>]) {
        for (arg, p) in self.args.iter().zip(pat) {
            if let (Arg::Slot(s), None) = (arg, p) {
                slots[*s] = None;
            }
        }
    }
}

/// The atoms of one search compiled into slot programs: variable
/// `vars[s]` lives in slot `s`, so bindings are a dense array rather than
/// a sorted map, and a homomorphism is read off the slots in variable
/// order.
struct Program<'a> {
    vars: Vec<Var>,
    atoms: Vec<AtomProgram<'a>>,
    /// The largest atom arity: the length of one depth's pattern buffer.
    width: usize,
}

impl<'a> Program<'a> {
    fn compile(db: &'a Database, atoms: &[Atom]) -> Program<'a> {
        let mut vars: Vec<Var> = atoms.iter().flat_map(Atom::vars).collect();
        vars.sort_unstable();
        vars.dedup();
        let atoms: Vec<AtomProgram<'a>> = atoms
            .iter()
            .map(|atom| AtomProgram {
                rel: db
                    .relation(atom.pred)
                    .filter(|rel| rel.arity() == atom.args.len()),
                args: atom
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Const(c) => Arg::Const(c),
                        Term::Var(v) => Arg::Slot(vars.binary_search(&v).expect("collected above")),
                    })
                    .collect(),
            })
            .collect();
        let width = atoms.iter().map(|a| a.args.len()).max().unwrap_or(0);
        Program { vars, atoms, width }
    }

    /// The initial slots: `seed`'s bindings of the atoms' variables.
    fn seed_slots(&self, seed: &Mapping) -> Vec<Option<Const>> {
        self.vars.iter().map(|&v| seed.get(v)).collect()
    }

    /// The homomorphism in `slots` once every atom is matched.
    fn answer(&self, slots: &[Option<Const>]) -> Mapping {
        Mapping::from_sorted(
            self.vars
                .iter()
                .zip(slots)
                .map(|(&v, c)| (v, c.expect("every slot is bound at an answer"))),
        )
    }
}

/// One backtracking search over a compiled program: the fixed inputs
/// shared by every recursion level. With an `order`, the atom processed at
/// depth `d` is `atoms[order[d]]`; without one, each step re-selects the
/// most constrained unprocessed atom.
struct Search<'p, F> {
    prog: &'p Program<'p>,
    order: Option<&'p [usize]>,
    ctl: Ctl<'p>,
    on_hom: F,
}

impl<F: FnMut(Mapping) -> Found> Search<'_, F> {
    /// The atom to match at `depth`. The dynamic order takes the atom with
    /// the most bound positions, then the fewest estimated matches, and the
    /// last such atom on ties; `pat` is the depth's scratch buffer.
    fn next_atom(
        &mut self,
        depth: usize,
        done: &[bool],
        slots: &[Option<Const>],
        pat: &mut [Option<Const>],
    ) -> Option<usize> {
        if let Some(order) = self.order {
            return order.get(depth).copied();
        }
        let mut best: Option<(usize, (usize, Reverse<usize>))> = None;
        for (i, atom) in self.prog.atoms.iter().enumerate() {
            if done[i] {
                continue;
            }
            let pat = &mut pat[..atom.args.len()];
            let bound = atom.fill_pattern(slots, pat);
            let estimate = atom
                .rel
                .map_or(0, |rel| rel.estimate_with(pat, &mut self.ctl.tally));
            let key = (bound, Reverse(estimate));
            if best.is_none_or(|(_, k)| key >= k) {
                best = Some((i, key));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Matches the atoms from `depth` on. `scratch` holds one pattern
    /// buffer of `prog.width` per remaining depth.
    fn search(
        &mut self,
        depth: usize,
        done: &mut [bool],
        slots: &mut [Option<Const>],
        scratch: &mut [Option<Const>],
    ) -> Found {
        if self.ctl.cancelled() {
            return Found::Cancelled;
        }
        let (pat, deeper) = scratch.split_at_mut(self.prog.width);
        let Some(i) = self.next_atom(depth, done, slots, pat) else {
            return (self.on_hom)(self.prog.answer(slots));
        };
        self.ctl.tally.nodes_expanded += 1;
        let prog = self.prog;
        let atom = &prog.atoms[i];
        let Some(rel) = atom.rel else {
            return Found::Continue; // empty relation: no match, backtrack
        };
        let pat = &mut pat[..atom.args.len()];
        atom.fill_pattern(slots, pat);
        done[i] = true;
        let mut found = Found::Continue;
        for tuple in rel.candidates(pat, &mut self.ctl.tally) {
            self.ctl.tally.tuples_scanned += 1;
            if !atom.bind(tuple, pat, slots) {
                continue;
            }
            found = self.search(depth + 1, done, slots, deeper);
            atom.unbind(pat, slots);
            if !matches!(found, Found::Continue) {
                break;
            }
        }
        done[i] = false;
        found
    }
}

/// The single setup entry of every search: compiles the atoms, seeds the
/// slots with `seed`'s bindings of the atoms' variables (so reported
/// homomorphisms have exactly those as domain) and runs the backtracking
/// search, calling `on_hom` on each homomorphism. The search's counters
/// reach the registry once, whatever the outcome. `order`, when given,
/// must be a permutation of `0..atoms.len()`.
fn run<F: FnMut(Mapping) -> Found>(
    db: &Database,
    atoms: &[Atom],
    order: Option<&[usize]>,
    seed: &Mapping,
    token: &CancelToken,
    on_hom: F,
) -> Found {
    let prog = Program::compile(db, atoms);
    let mut slots = prog.seed_slots(seed);
    let mut done = vec![false; atoms.len()];
    let mut scratch = vec![None; (atoms.len() + 1) * prog.width];
    let mut s = Search {
        prog: &prog,
        order,
        ctl: Ctl {
            token,
            steps: 0,
            tally: Tally::new(),
        },
        on_hom,
    };
    let found = s.search(0, &mut done, &mut slots, &mut scratch);
    s.ctl.tally.flush();
    found
}

/// Collects every homomorphism of one search.
fn collect_all(
    db: &Database,
    atoms: &[Atom],
    order: Option<&[usize]>,
    seed: &Mapping,
    token: &CancelToken,
) -> Result<Vec<Mapping>, Cancelled> {
    let _span = wdpt_obs::span!("cq.backtrack.extend_all");
    let mut out = Vec::new();
    match run(db, atoms, order, seed, token, |hom| {
        out.push(hom);
        Found::Continue
    }) {
        Found::Cancelled => Err(Cancelled),
        _ => Ok(out),
    }
}

/// All homomorphisms from the atom set into `db` that extend `seed`,
/// i.e. total assignments of the atoms' variables consistent with `seed`
/// under which every atom is in `db`. The returned mappings include the
/// seed bindings for variables that occur in the atoms.
pub fn extend_all(db: &Database, atoms: &[Atom], seed: &Mapping) -> Vec<Mapping> {
    try_extend_all(db, atoms, seed, CancelToken::never()).expect("the never token cannot cancel")
}

/// [`extend_all`] under a cancel token: `Err(Cancelled)` if the token
/// fires mid-search, discarding partial results.
pub fn try_extend_all(
    db: &Database,
    atoms: &[Atom],
    seed: &Mapping,
    token: &CancelToken,
) -> Result<Vec<Mapping>, Cancelled> {
    collect_all(db, atoms, None, seed, token)
}

/// True iff `order` is a permutation of `0..n` — the precondition for
/// executing it as a static atom order.
fn valid_order(order: &[usize], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    order
        .iter()
        .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// [`try_extend_all`] executing a *planned* static atom order instead of
/// the dynamic most-constrained heuristic: atoms are processed exactly in
/// the sequence `atoms[order[0]], atoms[order[1]], …`. This is the hook
/// the cost-based planner drives — the plan layer picks the permutation
/// from its cardinality estimates, and this function executes it verbatim
/// (indexes stay on; only the ordering heuristic is replaced).
///
/// If `order` is not a permutation of `0..atoms.len()` (a plan built for a
/// different query shape), the call degrades to the dynamic default rather
/// than failing — a stale plan must never change answers.
pub fn try_extend_all_ordered(
    db: &Database,
    atoms: &[Atom],
    order: &[usize],
    seed: &Mapping,
    token: &CancelToken,
) -> Result<Vec<Mapping>, Cancelled> {
    let order = valid_order(order, atoms.len()).then_some(order);
    collect_all(db, atoms, order, seed, token)
}

/// True iff at least one homomorphism extending `seed` exists.
pub fn extend_exists(db: &Database, atoms: &[Atom], seed: &Mapping) -> bool {
    let _span = wdpt_obs::span!("cq.backtrack.extend_exists");
    matches!(
        run(db, atoms, None, seed, CancelToken::never(), |_| Found::Stop),
        Found::Stop
    )
}

/// The paper's `q(D)`: the set of restrictions `h_x̄` of homomorphisms from
/// `q` to `db`, as deduplicated mappings on the head variables.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Vec<Mapping> {
    let _span = wdpt_obs::span!("cq.backtrack.evaluate");
    let head = q.head_set();
    let mut out: std::collections::BTreeSet<Mapping> = Default::default();
    run(
        db,
        q.body(),
        None,
        &Mapping::empty(),
        CancelToken::never(),
        |hom| {
            out.insert(hom.restrict(&head));
            Found::Continue
        },
    );
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    fn setup() -> (Interner, Database) {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,b) e(b,c) e(c,d) e(a,c)").unwrap();
        (i, db)
    }

    #[test]
    fn path_query_has_expected_answers() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        // Paths of length 2: a-b-c, b-c-d, a-c-d.
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn seed_constrains_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let seed = parse_mapping(&mut i, "?x -> a").unwrap();
        let homs = extend_all(&db, &atoms, &seed);
        assert_eq!(homs.len(), 2); // a-b-c and a-c-d
        assert!(homs
            .iter()
            .all(|h| h.get(i.var("x")) == Some(i.constant("a"))));
    }

    #[test]
    fn exists_short_circuits() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?x)").unwrap();
        assert!(!extend_exists(&db, &atoms, &Mapping::empty()));
        let atoms2 = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        assert!(extend_exists(&db, &atoms2, &Mapping::empty()));
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "r(a,a) r(a,b)").unwrap();
        let atoms = parse_atoms(&mut i, "r(?x,?x)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn constants_in_atoms_restrict_matches() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(a,?y)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 2); // b and c
    }

    #[test]
    fn evaluate_projects_and_dedups() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let q = ConjunctiveQuery::new(vec![i.var("x")], atoms);
        let ans = evaluate(&q, &db);
        // Sources: a (twice, deduped), b, c.
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn empty_body_yields_empty_mapping() {
        let (_, db) = setup();
        let homs = extend_all(&db, &[], &Mapping::empty());
        assert_eq!(homs, vec![Mapping::empty()]);
    }

    #[test]
    fn missing_relation_yields_no_homs() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "unknown(?x)").unwrap();
        assert!(extend_all(&db, &atoms, &Mapping::empty()).is_empty());
        assert!(!extend_exists(&db, &atoms, &Mapping::empty()));
    }

    #[test]
    fn seed_outside_atom_vars_is_ignored() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let seed = parse_mapping(&mut i, "?unrelated -> a").unwrap();
        let homs = extend_all(&db, &atoms, &seed);
        assert_eq!(homs.len(), 4);
        assert!(homs.iter().all(|h| h.len() == 2));
    }

    #[test]
    fn estimate_ranks_partially_bound_atoms_by_posting_list() {
        let mut i = Interner::new();
        // big/2 has 60 tuples but at most one per ?y value; small/2 has 10.
        let mut spec = String::new();
        for j in 0..60 {
            spec.push_str(&format!("big(s{j},t{j}) "));
        }
        for j in 0..10 {
            spec.push_str(&format!("small(a{j},b{j}) "));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "big(?x,?y), small(?z,?w)").unwrap();
        let seed = parse_mapping(&mut i, "?y -> t7").unwrap();
        let prog = Program::compile(&db, &atoms);
        let estimate = |atom: usize, seed: &Mapping| {
            let atom = &prog.atoms[atom];
            let mut pat = vec![None; atom.args.len()];
            atom.fill_pattern(&prog.seed_slots(seed), &mut pat);
            atom.rel.unwrap().estimate_with(&pat, &mut Tally::default())
        };
        // Bound on ?y, the big atom has a 1-element posting list; the seed
        // implementation returned rel.len() = 60 and ranked it *behind* the
        // unbound small atom (10).
        assert_eq!(estimate(0, &seed), 1);
        assert_eq!(estimate(1, &seed), 10);
        // Unbound, the big atom estimates its full size.
        assert_eq!(estimate(0, &Mapping::empty()), 60);
    }

    #[test]
    fn dynamic_order_picks_the_selective_atom_first() {
        let mut i = Interner::new();
        // Both atoms have one bound position under the seed, so only the
        // match estimate decides the order. a/2 is the larger relation but
        // its x=c0 posting list has a single entry; every b/2 tuple has
        // x=c0. The seed estimate (relation size) ranked b first and
        // expanded 1 + |b| nodes; the posting-list estimate expands a
        // first, for 2 nodes total.
        let mut spec = String::from("a(c0,u0) ");
        for j in 0..1100 {
            spec.push_str(&format!("a(g{j},h{j}) "));
        }
        for j in 0..1000 {
            spec.push_str(&format!("b(c0,v{j}) "));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "a(?x,?u), b(?x,?v)").unwrap();
        let seed = parse_mapping(&mut i, "?x -> c0").unwrap();
        let before = wdpt_model::stats::snapshot();
        let homs = extend_all(&db, &atoms, &seed);
        let delta = wdpt_model::stats::snapshot().since(&before);
        assert_eq!(homs.len(), 1000);
        // The mis-ranked order expands 1001 nodes; the fixed one expands 2.
        // The slack absorbs other tests running concurrently (the counters
        // are process-wide).
        assert!(
            delta.nodes_expanded <= 500,
            "selective atom was not processed first: {} nodes",
            delta.nodes_expanded
        );
    }

    #[test]
    fn cancelled_token_aborts_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            try_extend_all(&db, &atoms, &Mapping::empty(), &token),
            Err(Cancelled)
        );
        // A live token behaves exactly like the plain entry points.
        let live = CancelToken::new();
        let homs = try_extend_all(&db, &atoms, &Mapping::empty(), &live).unwrap();
        assert_eq!(homs, extend_all(&db, &atoms, &Mapping::empty()));
    }

    #[test]
    fn expired_deadline_aborts_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        token.poll_deadline(); // latch the expiry
        assert_eq!(
            try_extend_all(&db, &atoms, &Mapping::empty(), &token),
            Err(Cancelled)
        );
    }

    #[test]
    fn ordered_execution_follows_the_given_permutation() {
        let mut i = Interner::new();
        // small: 2 rows; fan: fan-out 100 from each small value; filter: 1.
        let mut spec = String::from("small(a) small(b) filter(y0) ");
        for s in ["a", "b"] {
            for j in 0..100 {
                spec.push_str(&format!("fan({s},y{j}) "));
            }
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "small(?x), fan(?x,?y), filter(?y)").unwrap();
        let token = CancelToken::new();
        // Bad order: small → fan explodes the frontier before filter prunes.
        let before = wdpt_model::stats::snapshot();
        let bad =
            try_extend_all_ordered(&db, &atoms, &[0, 1, 2], &Mapping::empty(), &token).unwrap();
        let bad_nodes = wdpt_model::stats::snapshot().since(&before).nodes_expanded;
        // Good order: filter first keeps the frontier at 1.
        let before = wdpt_model::stats::snapshot();
        let good =
            try_extend_all_ordered(&db, &atoms, &[2, 1, 0], &Mapping::empty(), &token).unwrap();
        let good_nodes = wdpt_model::stats::snapshot().since(&before).nodes_expanded;
        // Same answers either way; radically different work.
        let mut b = bad.clone();
        let mut g = good.clone();
        b.sort();
        g.sort();
        assert_eq!(b, g);
        assert_eq!(good.len(), 2);
        assert!(
            good_nodes * 10 <= bad_nodes,
            "expected ≥10× gap, got {good_nodes} vs {bad_nodes}"
        );
    }

    #[test]
    fn invalid_order_degrades_to_dynamic() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::new();
        // Wrong length and duplicate entries both fall back cleanly.
        for order in [&[0usize][..], &[0, 0][..], &[1, 2][..]] {
            let homs =
                try_extend_all_ordered(&db, &atoms, order, &Mapping::empty(), &token).unwrap();
            assert_eq!(homs.len(), 3, "order {order:?}");
        }
    }

    #[test]
    fn boolean_query_on_triangle() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(1,2) e(2,3) e(3,1)").unwrap();
        let atoms = parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x)").unwrap();
        assert!(extend_exists(&db, &atoms, &Mapping::empty()));
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 3); // three rotations
    }
}
