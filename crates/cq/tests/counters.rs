//! Pins the definitions of the engine counters a backtracking search
//! reports: `cq.nodes_expanded`, `db.index_probes` and `db.tuples_scanned`
//! (candidates read from a posting list or scan *before* the match filter).
//! The re-planner, query profiles and the benchmark's work counts all read
//! these, so a kernel rewrite must reproduce them exactly — including when
//! several searches run at once and each adds its counts to the
//! process-wide registry.
//!
//! This file is its own test binary with a single test, so nothing else
//! records into the registry while it measures.

use wdpt_cq::backtrack::{extend_exists, try_extend_all, try_extend_all_ordered};
use wdpt_model::parse::{parse_atoms, parse_database};
use wdpt_model::stats::{snapshot, StatsSnapshot};
use wdpt_model::{Atom, CancelToken, Database, Interner, Mapping};

/// `r` has loops and non-loops, so `r(?x,?x)` reads candidates its
/// repeated variable rejects; `s` has several rows per first column, so a
/// fully-bound `s(?x,?y)` reads posting-list rows the filter rejects.
const FACTS: &str = "r(a,a) r(a,b) r(b,b) r(b,c) r(c,a) r(c,c) r(d,e) \
                     s(a,b) s(a,c) s(a,a) s(b,b) s(b,c) s(c,c) s(c,a) s(d,d)";

struct Fixture {
    db: Database,
    /// Dynamic order: `r(?x,?x), s(?x,?y), r(?y,?z)`.
    dynamic: Vec<Atom>,
    /// Static order `[0, 1]`: `r(?x,?y), s(?x,?y)`.
    ordered: Vec<Atom>,
}

fn fixture() -> Fixture {
    let mut i = Interner::new();
    let db = parse_database(&mut i, FACTS).unwrap();
    let dynamic = parse_atoms(&mut i, "r(?x,?x), s(?x,?y), r(?y,?z)").unwrap();
    let ordered = parse_atoms(&mut i, "r(?x,?y), s(?x,?y)").unwrap();
    Fixture {
        db,
        dynamic,
        ordered,
    }
}

/// Runs the three searches once and returns their answer counts.
fn searches(f: &Fixture) -> (usize, usize, bool) {
    let token = CancelToken::never();
    let all = try_extend_all(&f.db, &f.dynamic, &Mapping::empty(), token).unwrap();
    let ordered =
        try_extend_all_ordered(&f.db, &f.ordered, &[0, 1], &Mapping::empty(), token).unwrap();
    let exists = extend_exists(&f.db, &f.dynamic, &Mapping::empty());
    (all.len(), ordered.len(), exists)
}

/// The work counters of `run`, with index builds and parallel tasks
/// zeroed (the first call builds indexes, later ones do not).
fn measure<T>(run: impl FnOnce() -> T) -> (T, StatsSnapshot) {
    let before = snapshot();
    let out = run();
    let delta = snapshot().since(&before);
    (
        out,
        StatsSnapshot {
            index_builds: 0,
            parallel_tasks: 0,
            ..delta
        },
    )
}

fn work(nodes_expanded: u64, index_probes: u64, tuples_scanned: u64) -> StatsSnapshot {
    StatsSnapshot {
        nodes_expanded,
        index_probes,
        tuples_scanned,
        ..StatsSnapshot::default()
    }
}

#[test]
fn counter_definitions_are_pinned_and_exact_under_concurrency() {
    let f = fixture();
    searches(&f); // build the indexes

    // Each search alone, with its exact counts.
    let token = CancelToken::never();
    let (homs, delta) =
        measure(|| try_extend_all(&f.db, &f.dynamic, &Mapping::empty(), token).unwrap());
    assert_eq!(homs.len(), 14);
    assert_eq!(delta, work(23, 74, 50), "try_extend_all");

    let (homs, delta) = measure(|| {
        try_extend_all_ordered(&f.db, &f.ordered, &[0, 1], &Mapping::empty(), token).unwrap()
    });
    assert_eq!(homs.len(), 6);
    // 7 scanned rows of r, then per r-tuple the shortest of s's two
    // posting lists, whose rows are read before the filter rejects them.
    assert_eq!(delta, work(8, 14, 19), "try_extend_all_ordered");

    let (found, delta) = measure(|| extend_exists(&f.db, &f.dynamic, &Mapping::empty()));
    assert!(found);
    assert_eq!(delta, work(3, 6, 3), "extend_exists");

    let (answers, solo) = measure(|| searches(&f));
    assert_eq!(answers, (14, 6, true));

    // The same searches on 4 threads × 50 iterations: every search's
    // counts reach the registry, none twice.
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 50;
    let ((), together) = measure(|| {
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        assert_eq!(searches(&f), answers);
                    }
                });
            }
        });
    });
    let n = THREADS * ROUNDS;
    assert_eq!(
        together,
        work(
            n * solo.nodes_expanded,
            n * solo.index_probes,
            n * solo.tuples_scanned
        )
    );
}
