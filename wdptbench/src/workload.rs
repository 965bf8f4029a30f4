//! Seeded inputs: the three datasets and the per-client request streams.
//!
//! The datasets are fixed (the generators' default seeds), so a run's
//! figures do not move with the data; `--seed` drives the request streams
//! (α-renamings, the `mix` query draw, malformed queries, reload phase).

use std::collections::HashSet;
use std::io::Cursor;
use std::sync::Arc;
use wdpt_model::{Database, Interner};
use wdpt_sparql::TripleStore;

/// SplitMix64: a small, seedable generator, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Repeat,
    Skew,
    Mix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "repeat" => Some(Workload::Repeat),
            "skew" => Some(Workload::Skew),
            "mix" => Some(Workload::Mix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Repeat => "repeat",
            Workload::Skew => "skew",
            Workload::Mix => "mix",
        }
    }
}

/// What a response must look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Answers equal to the oracle's for this query text.
    Answers,
    /// A terminal `error` line of this kind.
    Error(&'static str),
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Query {
        text: String,
        expect: Expect,
    },
    /// Hot-swap the served database: the base snapshot alone, or the base
    /// plus the delta no stream query matches.
    Reload {
        with_delta: bool,
    },
}

/// Clients of the closed loop.
pub const CLIENTS: usize = 2;
/// Length of each client's (cyclic) stream.
pub const STREAM_LEN: usize = 4096;
/// Distinct `mix` query shapes: more than the server's 256 plan-cache
/// entries, so the cache misses and evicts at steady state.
pub const MIX_SHAPES: usize = 1024;
/// Client 0 of `mix` sends a reload every this many ops.
pub const RELOAD_EVERY: usize = 200;
/// Triples in the delta; none of them matches any stream query.
pub const DELTA_TRIPLES: usize = 64;
/// The predicate of the delta's triples, which no stream query names.
pub const DELTA_PREDICATE: &str = "catalog_note";

/// The music catalog's shape: 200 bands of 8 records.
pub const MUSIC_BANDS: usize = 200;
pub const MUSIC_RECORDS: usize = 8;

/// The Figure 1 query over the music catalog and its α-renamed twin: one
/// plan-cache key.
pub const FIGURE1: [&str; 2] = [
    r#"SELECT ?x ?y ?z WHERE { (((?x, rec_by, ?y) AND (?x, publ, "after_2010")) OPT (?x, nme_rating, ?z)) OPT (?y, formed_in, ?w) }"#,
    r#"SELECT ?a ?b ?c WHERE { (((?a, rec_by, ?b) AND (?a, publ, "after_2010")) OPT (?a, nme_rating, ?c)) OPT (?b, formed_in, ?d) }"#,
];

/// The heavy-hitter self-join over the skewed synthetic data and its twin.
pub const SKEW_QUERY: [&str; 2] = [
    "SELECT ?x ?y ?z WHERE { ((?x, p0, ?y) AND (?y, p0, ?z)) }",
    "SELECT ?s ?m ?o WHERE { ((?s, p0, ?m) AND (?m, p0, ?o)) }",
];

/// Generates the workload's dataset as `(interner, database)`.
pub fn dataset(w: Workload) -> (Interner, Database) {
    let mut interner = Interner::new();
    match w {
        Workload::Repeat | Workload::Mix => {
            let params = wdpt_gen::music::MusicParams {
                bands: MUSIC_BANDS,
                records_per_band: MUSIC_RECORDS,
                ..Default::default()
            };
            let db = wdpt_gen::music_triples(&mut interner, params).into_database();
            (interner, db)
        }
        Workload::Skew => {
            let mut nt = Vec::new();
            wdpt_gen::write_synth_nt(&mut nt, wdpt_gen::SynthParams::sized_skewed(20_000, 8))
                .expect("writing to memory cannot fail");
            let opts = wdpt_store::LoadOptions {
                threads: 1,
                ..Default::default()
            };
            let (db, _) = wdpt_store::bulk_load(&mut interner, &mut Cursor::new(nt), opts)
                .expect("generated N-Triples parse");
            (interner, db)
        }
    }
}

/// The snapshot files a run serves: the v2 base and one delta on it.
pub struct Snapshots {
    pub base: Arc<[u8]>,
    pub delta: Vec<u8>,
    /// Triples in the base.
    pub triples: usize,
}

/// Encodes the dataset as a v2 snapshot plus a delta of
/// [`DELTA_TRIPLES`] `catalog_note` triples.
pub fn snapshots(w: Workload) -> Snapshots {
    let (interner, db) = dataset(w);
    let base: Arc<[u8]> = wdpt_store::snapshot_to_vec_v2(&interner, &db)
        .expect("encode snapshot")
        .into();
    let (bi, bdb) = wdpt_store::decode_snapshot_shared(&base).expect("decode fresh snapshot");
    let (ni, ndb) = with_delta_triples(&bi, &bdb);
    let delta = wdpt_store::delta_to_vec(wdpt_store::content_hash(&base), &bi, &bdb, &ni, &ndb)
        .expect("encode delta");
    Snapshots {
        base,
        delta,
        triples: bdb.size(),
    }
}

/// The delta's content: base plus the `catalog_note` triples.
pub fn with_delta_triples(i: &Interner, db: &Database) -> (Interner, Database) {
    let mut ni = i.clone();
    let mut ndb = db.clone();
    let pred = TripleStore::pred(&mut ni);
    let p = ni.constant(DELTA_PREDICATE);
    for k in 0..DELTA_TRIPLES {
        let s = ni.constant(&format!("note{k}"));
        let o = ni.constant(&format!("text{k}"));
        ndb.insert(pred, vec![s, p, o]);
    }
    (ni, ndb)
}

/// The per-client request streams for `w` under `seed`.
pub fn streams(w: Workload, seed: u64) -> Vec<Vec<Op>> {
    let mut rng = Rng::new(seed);
    match w {
        Workload::Repeat | Workload::Skew => {
            let texts = if w == Workload::Repeat {
                FIGURE1
            } else {
                SKEW_QUERY
            };
            (0..CLIENTS)
                .map(|_| {
                    let phase = rng.below(2);
                    (0..STREAM_LEN)
                        .map(|k| Op::Query {
                            text: texts[(k + phase) % 2].to_string(),
                            expect: Expect::Answers,
                        })
                        .collect()
                })
                .collect()
        }
        Workload::Mix => {
            let shapes = mix_shapes(&mut rng);
            let first_reload = rng.below(RELOAD_EVERY);
            (0..CLIENTS)
                .map(|c| {
                    let mut reloads = 0;
                    (0..STREAM_LEN)
                        .map(|k| {
                            if c == 0 && k % RELOAD_EVERY == first_reload {
                                reloads += 1;
                                Op::Reload {
                                    with_delta: reloads % 2 == 1,
                                }
                            } else {
                                mix_op(&shapes, &mut rng)
                            }
                        })
                        .collect()
                })
                .collect()
        }
    }
}

/// Variable names per role (record, band, rating, year), one scheme per
/// α-renaming.
const SCHEMES: [[&str; 4]; 3] = [
    ["x", "y", "z", "w"],
    ["a", "b", "c", "d"],
    ["rec", "band", "score", "year"],
];

/// One `mix` query shape: a Figure-1-shaped tree with a bound band or
/// record constant, an era, 0–2 OPT children, and a projection. Distinct
/// shapes are distinct plan-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// `Some(record)` anchors on a record of `band`, `None` on the band.
    record: Option<usize>,
    band: usize,
    recent: bool,
    /// Bit 0: OPT rating child; bit 1: OPT formed-in child.
    opts: u8,
    /// Project away the last variable (when there are two or more).
    project: bool,
}

impl Shape {
    fn draw(rng: &mut Rng) -> Shape {
        Shape {
            record: (rng.below(2) == 0).then(|| rng.below(MUSIC_RECORDS)),
            band: rng.below(MUSIC_BANDS),
            recent: rng.below(10) < 7,
            opts: rng.below(4) as u8,
            project: rng.below(2) == 0,
        }
    }

    /// The query text under variable scheme `scheme`; `quoted` spells the
    /// era constant as a string literal (the same constant either way).
    pub fn render(&self, scheme: usize, quoted: bool) -> String {
        let [x, y, z, w] = SCHEMES[scheme];
        let era = match (self.recent, quoted) {
            (true, true) => "\"after_2010\"",
            (true, false) => "after_2010",
            (false, true) => "\"before_2010\"",
            (false, false) => "before_2010",
        };
        let band = format!("band{}", self.band);
        // Root subject (record side) and object (band side) terms.
        let (rec, bnd, mut vars) = match self.record {
            Some(r) => (format!("record{}_{r}", self.band), format!("?{y}"), vec![y]),
            None => (format!("?{x}"), band, vec![x]),
        };
        let mut pattern = format!("(({rec}, rec_by, {bnd}) AND ({rec}, publ, {era}))");
        if self.opts & 1 != 0 {
            pattern = format!("({pattern} OPT ({rec}, nme_rating, ?{z}))");
            vars.push(z);
        }
        if self.opts & 2 != 0 {
            pattern = format!("({pattern} OPT ({bnd}, formed_in, ?{w}))");
            vars.push(w);
        }
        if self.project && vars.len() > 1 {
            vars.pop();
        }
        let select: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
        format!("SELECT {} WHERE {{ {pattern} }}", select.join(" "))
    }
}

/// [`MIX_SHAPES`] distinct shapes.
fn mix_shapes(rng: &mut Rng) -> Vec<Shape> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(MIX_SHAPES);
    while out.len() < MIX_SHAPES {
        let s = Shape::draw(rng);
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// Malformed `mix` queries and the error kind each must get. `{x}` etc.
/// are replaced by a scheme's variable names.
const MALFORMED: [(&str, &str); 4] = [
    ("SELECT ?{x} WHERE { (?{x}, rec_by) }", "parse_error"),
    (
        "SELECT ?{x} ?{x} WHERE { (?{x}, rec_by, ?{y}) }",
        "parse_error",
    ),
    ("SELECT ?{z} WHERE { (?{x}, rec_by, ?{y}) }", "parse_error"),
    (
        "SELECT ?{x} WHERE { ((?{x}, rec_by, ?{y}) OPT (?{x}, nme_rating, ?{z})) AND (?{z}, formed_in, ?{w}) }",
        "not_well_designed",
    ),
];

/// One in ten `mix` queries is malformed.
pub const MALFORMED_PER_10: usize = 1;

fn mix_op(shapes: &[Shape], rng: &mut Rng) -> Op {
    let scheme = rng.below(SCHEMES.len());
    if rng.below(10) < MALFORMED_PER_10 {
        let (template, kind) = MALFORMED[rng.below(MALFORMED.len())];
        let [x, y, z, w] = SCHEMES[scheme];
        let text = template
            .replace("{x}", x)
            .replace("{y}", y)
            .replace("{z}", z)
            .replace("{w}", w);
        return Op::Query {
            text,
            expect: Expect::Error(kind),
        };
    }
    let shape = shapes[rng.below(shapes.len())];
    Op::Query {
        text: shape.render(scheme, rng.below(2) == 0),
        expect: Expect::Answers,
    }
}

/// The replay order: the clients' streams interleaved round-robin.
pub fn interleave(streams: &[Vec<Op>]) -> Vec<&Op> {
    let len = streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .flat_map(|k| streams.iter().filter_map(move |s| s.get(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_sparql::{parse_query, GraphPattern};

    fn query_texts(streams: &[Vec<Op>]) -> Vec<(&str, &Expect)> {
        streams
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Query { text, expect } => Some((text.as_str(), expect)),
                Op::Reload { .. } => None,
            })
            .collect()
    }

    #[test]
    fn mix_is_seed_deterministic() {
        assert_eq!(streams(Workload::Mix, 7), streams(Workload::Mix, 7));
        assert_ne!(streams(Workload::Mix, 7), streams(Workload::Mix, 8));
    }

    #[test]
    fn mix_has_more_keys_than_the_cache_and_the_stated_malformed_share() {
        let s = streams(Workload::Mix, 3);
        let queries = query_texts(&s);
        let mut i = Interner::new();
        let mut keys = HashSet::new();
        let mut malformed = 0;
        for (text, expect) in &queries {
            let parsed = parse_query(&mut i, text);
            match expect {
                Expect::Answers => {
                    let q = parsed.expect("valid mix query parses");
                    let canon = wdpt_serve::canonicalize(&q, &mut i);
                    canon
                        .canon
                        .to_wdpt(&mut i)
                        .expect("valid mix query is well-designed");
                    keys.insert(canon.key);
                }
                Expect::Error(kind) => {
                    malformed += 1;
                    let got = match parsed {
                        Err(_) => "parse_error",
                        Ok(q) => {
                            let canon = wdpt_serve::canonicalize(&q, &mut i);
                            match canon.canon.to_wdpt(&mut i) {
                                Err(wdpt_sparql::algebra::SparqlError::NotWellDesigned(_)) => {
                                    "not_well_designed"
                                }
                                other => panic!("{text} did not fail as expected: {other:?}"),
                            }
                        }
                    };
                    assert_eq!(&got, kind, "{text}");
                }
            }
        }
        assert!(keys.len() > 256, "only {} distinct keys", keys.len());
        let share = malformed as f64 / queries.len() as f64;
        assert!((0.08..0.12).contains(&share), "malformed share {share}");
        let reloads = s
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Reload { .. }));
        let per_stream = STREAM_LEN / RELOAD_EVERY;
        assert!((per_stream..=per_stream + 1).contains(&reloads.count()));
    }

    fn patterns(p: &GraphPattern, out: &mut Vec<wdpt_sparql::TriplePattern>) {
        match p {
            GraphPattern::Triple(t) => out.push(t.clone()),
            GraphPattern::And(a, b) | GraphPattern::Opt(a, b) => {
                patterns(a, out);
                patterns(b, out);
            }
        }
    }

    #[test]
    fn no_mix_query_matches_the_delta_triples() {
        let (base_i, base_db) = dataset(Workload::Mix);
        let (mut i, db) = with_delta_triples(&base_i, &base_db);
        let pred = TripleStore::pred(&mut i);
        let base_triples: HashSet<Vec<wdpt_model::Const>> = base_db
            .relation(pred)
            .expect("triple relation")
            .tuples()
            .map(|t| t.to_vec())
            .collect();
        let added: Vec<Vec<wdpt_model::Const>> = db
            .relation(pred)
            .expect("triple relation")
            .tuples()
            .map(|t| t.to_vec())
            .filter(|t| !base_triples.contains(t))
            .collect();
        assert_eq!(added.len(), DELTA_TRIPLES);
        let s = streams(Workload::Mix, 11);
        for (text, expect) in query_texts(&s) {
            if *expect != Expect::Answers {
                continue;
            }
            let q = parse_query(&mut i, text).expect("valid mix query parses");
            let mut pats = Vec::new();
            patterns(&q.pattern, &mut pats);
            for t in &pats {
                for triple in &added {
                    let matches = [t.s, t.p, t.o]
                        .iter()
                        .zip(triple)
                        .all(|(term, c)| match term {
                            wdpt_model::Term::Const(k) => k == c,
                            wdpt_model::Term::Var(_) => true,
                        });
                    assert!(!matches, "{text} matches a delta triple");
                }
            }
        }
    }
}
