//! v2 (columnar varint) format tests: lossless round trips, lazy decode
//! behavior, corruption and length-bomb resistance, the size guarantee the
//! format exists for, and the deep-verify net under forged-but-CRC-valid
//! posting directories.

use wdpt_gen::Lcg;
use wdpt_model::{Database, Interner, SymbolSpace};
use wdpt_store::{
    crc32, decode_snapshot, snapshot_to_vec, snapshot_to_vec_v2, verify_database_deep, StoreError,
    VERSION_V2,
};

/// Same construction as the v1 round-trip property test: mixed arities,
/// shared constants, unused symbols, unicode names, a bumped fresh counter.
fn random_instance(seed: u64) -> (Interner, Database) {
    let mut rng = Lcg::new(seed);
    let mut interner = Interner::new();
    let n_consts = 2 + rng.gen_range(0..40);
    let consts: Vec<_> = (0..n_consts)
        .map(|i| interner.constant(&format!("c{i}")))
        .collect();
    for i in 0..rng.gen_range(0..5) {
        interner.var(&format!("v{i}"));
    }
    for i in 0..rng.gen_range(0..3) {
        interner.pred(&format!("unused{i}"));
    }
    interner.constant("with space");
    interner.constant("caf\u{00E9}\u{2603}");
    let mut db = Database::new();
    let n_rels = rng.gen_range(0..5);
    for r in 0..n_rels {
        let pred = interner.pred(&format!("rel{r}"));
        let arity = 1 + rng.gen_range(0..4);
        let rows = rng.gen_range(0..60);
        for _ in 0..rows {
            let tuple: Vec<_> = (0..arity)
                .map(|_| consts[rng.gen_range(0..consts.len())])
                .collect();
            db.insert(pred, tuple);
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        interner.fresh_var("f");
    }
    (interner, db)
}

fn sample_snapshot_v2() -> Vec<u8> {
    let mut i = Interner::new();
    let e = i.pred("edge");
    let n = i.pred("node");
    let (a, b, c) = (i.constant("a"), i.constant("b"), i.constant("caf\u{00E9}"));
    i.var("x");
    let mut db = Database::new();
    db.insert(e, vec![a, b]);
    db.insert(e, vec![b, c]);
    db.insert(e, vec![a, c]);
    db.insert(n, vec![a]);
    db.insert(n, vec![b]);
    snapshot_to_vec_v2(&i, &db).unwrap()
}

#[test]
fn random_databases_round_trip_losslessly_through_v2() {
    for seed in 0..40u64 {
        let (interner, db) = random_instance(seed ^ 0x0C01_0C01);
        let bytes = snapshot_to_vec_v2(&interner, &db).unwrap();
        let (i2, db2) = decode_snapshot(&bytes)
            .unwrap_or_else(|e| panic!("seed {seed}: v2 decode failed: {e}"));

        let a_syms: Vec<(SymbolSpace, &str)> = interner.symbols().collect();
        let b_syms: Vec<(SymbolSpace, &str)> = i2.symbols().collect();
        assert_eq!(a_syms, b_syms, "seed {seed}: dictionary");
        assert_eq!(
            interner.fresh_counter(),
            i2.fresh_counter(),
            "seed {seed}: fresh counter"
        );

        assert_eq!(db.size(), db2.size(), "seed {seed}: tuple count");
        assert_eq!(
            db.active_domain(),
            db2.active_domain(),
            "seed {seed}: active domain"
        );
        for (pred, rel) in db.relations() {
            let brel = db2.relation(pred).unwrap();
            assert_eq!(rel.arity(), brel.arity(), "seed {seed}: arity");
            let mut at: Vec<_> = rel.tuples().collect();
            let mut bt: Vec<_> = brel.tuples().collect();
            at.sort_unstable();
            bt.sort_unstable();
            assert_eq!(at, bt, "seed {seed}: tuples of {pred:?}");
            for col in 0..rel.arity() {
                for c in db.active_domain() {
                    assert_eq!(
                        rel.posting_len(col, *c),
                        brel.posting_len(col, *c),
                        "seed {seed}: posting length col {col}"
                    );
                }
            }
        }

        // Both directions of re-encoding reproduce bytes exactly: the v2
        // encode of the decoded pair is a fixed point, and the v1 encode
        // matches a direct v1 encode of the original (migration parity).
        assert_eq!(
            bytes,
            snapshot_to_vec_v2(&i2, &db2).unwrap(),
            "seed {seed}: v2 re-encode differs"
        );
        assert_eq!(
            snapshot_to_vec(&interner, &db).unwrap(),
            snapshot_to_vec(&i2, &db2).unwrap(),
            "seed {seed}: v1 encode of v2-decoded pair differs"
        );
        verify_database_deep(&db2).unwrap_or_else(|e| panic!("seed {seed}: deep verify: {e}"));
    }
}

#[test]
fn v2_decode_is_lazy_and_stats_scans_stay_lazy() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let consts: Vec<_> = (0..20).map(|k| i.constant(&format!("c{k}"))).collect();
    let mut db = Database::new();
    let mut rng = Lcg::new(9);
    for _ in 0..200 {
        db.insert(
            e,
            vec![
                consts[rng.gen_range(0..consts.len())],
                consts[rng.gen_range(0..consts.len())],
            ],
        );
    }
    let n = db.size() as u64; // inserts drop duplicates
    let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
    let (_, db2) = decode_snapshot(&bytes).unwrap();
    let rel = db2.relation(e).unwrap();
    assert!(rel.is_lazy(), "fresh v2 decode must not materialize");
    assert_eq!(
        rel.len() as u64,
        n,
        "len comes from the header, not a decode"
    );

    // The statistics path streams posting lengths from the serialized key
    // directory without decoding any column.
    let mut streamed = 0u64;
    assert!(rel.scan_posting_lens(0, |_, n| streamed += u64::from(n)));
    assert_eq!(streamed, n);
    assert!(
        rel.built_column_index(0).is_none(),
        "scanning the directory must not build an index"
    );
    assert!(rel.is_lazy(), "directory scan must keep the relation lazy");

    // The active domain likewise comes from the directories alone.
    assert_eq!(db2.active_domain(), db.active_domain());
    assert!(db2.relation(e).unwrap().is_lazy());

    // A real probe decodes on demand and answers correctly.
    let probe = vec![Some(consts[0]), None];
    let mut a: Vec<_> = db.relation(e).unwrap().matching(&probe).collect();
    let mut b: Vec<_> = db2.relation(e).unwrap().matching(&probe).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn v2_fully_bound_estimate_is_exact_and_keeps_the_relation_lazy() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let consts: Vec<_> = (0..12).map(|k| i.constant(&format!("c{k}"))).collect();
    let ghost = i.constant("ghost");
    let mut db = Database::new();
    let mut rng = Lcg::new(17);
    for _ in 0..60 {
        db.insert(
            e,
            vec![
                consts[rng.gen_range(0..consts.len())],
                consts[rng.gen_range(0..consts.len())],
            ],
        );
    }
    let bytes = snapshot_to_vec_v2(&i, &db).unwrap();
    let (_, db2) = decode_snapshot(&bytes).unwrap();
    let owned = db.relation(e).unwrap();
    let lazy = db2.relation(e).unwrap();
    let mut present = 0;
    for &a in consts.iter().chain([&ghost]) {
        for &b in consts.iter().chain([&ghost]) {
            let want = usize::from(owned.contains(&[a, b]));
            present += want;
            assert_eq!(lazy.estimate_matching(&[Some(a), Some(b)]), want);
            assert_eq!(owned.estimate_matching(&[Some(a), Some(b)]), want);
        }
    }
    assert_eq!(present, db.size(), "every stored tuple was probed");
    // The 0/1 answers came from the posting lists: no tuple block and no
    // membership set was built for them.
    assert!(
        lazy.is_lazy(),
        "a fully-bound estimate materialized the tuples"
    );
}

#[test]
fn every_v2_truncation_is_a_typed_error() {
    let bytes = sample_snapshot_v2();
    for len in 0..bytes.len() {
        match decode_snapshot(&bytes[..len]) {
            Ok(_) => panic!("decode of {len}-byte prefix succeeded"),
            Err(
                StoreError::Truncated { .. }
                | StoreError::BadMagic
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Malformed { .. },
            ) => {}
            Err(other) => panic!("prefix of {len} bytes gave unexpected error: {other}"),
        }
    }
}

#[test]
fn every_v2_single_byte_flip_is_a_typed_error() {
    let bytes = sample_snapshot_v2();
    let mut mutated = bytes.clone();
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80u8] {
            mutated[i] ^= bit;
            match decode_snapshot(&mutated) {
                Err(
                    StoreError::BadMagic
                    | StoreError::UnsupportedVersion(_)
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Malformed { .. },
                ) => {}
                Err(other) => panic!("flip at byte {i}: unexpected error {other}"),
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
            mutated[i] ^= bit;
        }
    }
    assert_eq!(mutated, bytes, "mutation loop must restore the input");
}

// ---------------------------------------------------------------------------
// Section surgery helpers: locate a section in a serialized snapshot/delta,
// patch its payload, and re-stamp the CRC so only the *semantic* check under
// test can reject the file.

const FRAME: usize = 13; // tag u8 + len u64 + crc u32

/// Returns `(payload_start, payload_len)` of the first section with `tag`.
fn find_section(bytes: &[u8], tag: u8) -> (usize, usize) {
    let mut pos = 12; // magic + version
    while pos < bytes.len() {
        let t = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        if t == tag {
            return (pos + 9, len);
        }
        pos += FRAME + len;
    }
    panic!("no section with tag {tag:#x}");
}

/// Recomputes the CRC of the section whose payload starts at `payload_start`.
fn restamp_crc(bytes: &mut [u8], payload_start: usize, payload_len: usize) {
    let span = &bytes[payload_start - 9..payload_start + payload_len];
    let crc = crc32(span);
    bytes[payload_start + payload_len..payload_start + payload_len + 4]
        .copy_from_slice(&crc.to_le_bytes());
}

fn expect_bomb_rejected(what: &str, result: Result<(Interner, Database), StoreError>) {
    match result {
        Err(StoreError::Malformed { .. } | StoreError::Truncated { .. }) => {}
        Err(other) => panic!("{what}: unexpected error {other}"),
        Ok(_) => panic!("{what}: length bomb went undetected"),
    }
}

#[test]
fn v1_length_bombs_are_rejected_without_allocation() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let (a, b) = (i.constant("a"), i.constant("b"));
    let mut db = Database::new();
    db.insert(e, vec![a, b]);
    let bytes = snapshot_to_vec(&i, &db).unwrap();

    // Dictionary claims u64::MAX entries in a handful of payload bytes.
    let mut bomb = bytes.clone();
    let (hs, hl) = find_section(&bomb, 0x01);
    bomb[hs..hs + 8].copy_from_slice(&u64::MAX.to_le_bytes()); // header.symbols
    restamp_crc(&mut bomb, hs, hl);
    expect_bomb_rejected("v1 symbol-count bomb", decode_snapshot(&bomb));

    // Relation claims ~u64::MAX rows.
    let mut bomb = bytes.clone();
    let (rs, rl) = find_section(&bomb, 0x03);
    bomb[rs + 8..rs + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // rows
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v1 row-count bomb", decode_snapshot(&bomb));

    // Relation claims u32::MAX columns.
    let mut bomb = bytes;
    let (rs, rl) = find_section(&bomb, 0x03);
    bomb[rs + 4..rs + 8].copy_from_slice(&u32::MAX.to_le_bytes()); // arity
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v1 arity bomb", decode_snapshot(&bomb));
}

#[test]
fn v2_length_bombs_are_rejected_without_allocation() {
    let bytes = sample_snapshot_v2();

    // Rows inflated to the u32 ceiling: caught against the cells byte count.
    let mut bomb = bytes.clone();
    let (rs, rl) = find_section(&bomb, 0x06);
    bomb[rs + 8..rs + 16].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v2 row-count bomb", decode_snapshot(&bomb));

    // Arity inflated: each column owes a 24-byte table entry.
    let mut bomb = bytes.clone();
    let (rs, rl) = find_section(&bomb, 0x06);
    bomb[rs + 4..rs + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v2 arity bomb", decode_snapshot(&bomb));

    // Key count inflated past what the directory bytes can hold.
    let mut bomb = bytes.clone();
    let (rs, rl) = find_section(&bomb, 0x06);
    bomb[rs + 24..rs + 32].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // col 0 keys
    restamp_crc(&mut bomb, rs, rl);
    expect_bomb_rejected("v2 key-count bomb", decode_snapshot(&bomb));

    // Dictionary claims far more symbols than the payload encodes.
    let mut bomb = bytes;
    let (hs, hl) = find_section(&bomb, 0x01);
    bomb[hs..hs + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    restamp_crc(&mut bomb, hs, hl);
    expect_bomb_rejected("v2 symbol-count bomb", decode_snapshot(&bomb));
}

#[test]
fn delta_length_bombs_are_rejected_without_allocation() {
    let mut i = Interner::new();
    let e = i.pred("e");
    let (a, b) = (i.constant("a"), i.constant("b"));
    let mut db = Database::new();
    db.insert(e, vec![a, a]);
    let base = snapshot_to_vec(&i, &db).unwrap();
    let mut i2 = i.clone();
    let mut db2 = db.clone();
    let c = i2.constant("c");
    db2.insert(e, vec![b, c]);
    let delta =
        wdpt_store::delta_to_vec(wdpt_store::content_hash(&base), &i, &db, &i2, &db2).unwrap();

    let check = |bomb: &[u8], what: &str| {
        expect_bomb_rejected(
            what,
            wdpt_store::decode_with_deltas(&base, &[bomb.to_vec()]),
        );
    };

    // Delta header claims u32::MAX relation sections.
    let mut bomb = delta.clone();
    let (hs, hl) = find_section(&bomb, 0x04);
    bomb[hs + 32..hs + 36].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_crc(&mut bomb, hs, hl);
    check(&bomb, "delta relation-count bomb");

    // Relation delta claims ~u64::MAX rows in a few cell bytes.
    let mut bomb = delta.clone();
    let (rs, rl) = find_section(&bomb, 0x05);
    bomb[rs + 8..rs + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    check(&bomb, "delta row-count bomb");

    // Relation delta claims u32::MAX columns.
    let mut bomb = delta;
    let (rs, rl) = find_section(&bomb, 0x05);
    bomb[rs + 4..rs + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp_crc(&mut bomb, rs, rl);
    check(&bomb, "delta arity bomb");
}

#[test]
fn forged_key_directory_passes_decode_but_fails_deep_verify() {
    // Column cells and the key directory are independently CRC-protected,
    // so a *writer* bug (or a deliberate forgery that re-stamps the CRC)
    // could ship a directory that is internally consistent — ascending
    // in-namespace keys, lengths summing to the row count — yet disagrees
    // with the cells. Decode accepts it (queries never read the directory,
    // so answers stay correct); `verify_database_deep` must reject it.
    let mut i = Interner::new();
    let e = i.pred("e");
    let a = i.constant("a");
    let b = i.constant("b");
    let c = i.constant("c"); // interned but unused: the forged key
    let x = i.constant("x");
    let mut db = Database::new();
    db.insert(e, vec![a, x]);
    db.insert(e, vec![b, x]);
    let mut bytes = snapshot_to_vec_v2(&i, &db).unwrap();

    let (rs, rl) = find_section(&bytes, 0x06);
    let arity = u32::from_le_bytes(bytes[rs + 4..rs + 8].try_into().unwrap()) as usize;
    assert_eq!(arity, 2);
    let cells0 = u64::from_le_bytes(bytes[rs + 16..rs + 24].try_into().unwrap()) as usize;
    let dir0_bytes = u64::from_le_bytes(bytes[rs + 32..rs + 40].try_into().unwrap()) as usize;
    // Column 0 directory is [(a,1), (b,1)] = 4 single-byte varints:
    // key a, len 1, delta b-a, len 1.
    let dir0 = rs + 16 + arity * 24 + cells0;
    assert_eq!(dir0_bytes, 4);
    assert_eq!(bytes[dir0], a.0 as u8);
    assert_eq!(bytes[dir0 + 2], (b.0 - a.0) as u8);
    // Forge the second key from b to c (same byte length, still ascending,
    // still a constant, lengths still sum to the 2 rows).
    bytes[dir0 + 2] = (c.0 - a.0) as u8;
    restamp_crc(&mut bytes, rs, rl);

    let (_, forged) = decode_snapshot(&bytes).expect("forged directory is CRC- and shape-valid");
    // Queries still answer from the cells, correctly.
    let probe = vec![Some(b), None];
    assert_eq!(forged.relation(e).unwrap().matching(&probe).count(), 1);
    // But the deep check cross-references the directory against the cells.
    let err = verify_database_deep(&forged).expect_err("forged directory must fail deep verify");
    assert!(matches!(err, StoreError::Malformed { .. }), "{err}");
}

#[test]
fn v2_snapshots_are_at_most_six_tenths_of_v1() {
    // The acceptance bar for the format: on a realistically-shaped dataset
    // (synthetic triples, mild skew), v2 must be ≤ 0.6× the v1 size.
    let mut nt = Vec::new();
    wdpt_gen::write_synth_nt(&mut nt, wdpt_gen::SynthParams::sized_skewed(50_000, 3)).unwrap();
    let mut i = Interner::new();
    let db = wdpt_store::read_text_database(&mut i, &mut std::io::BufReader::new(nt.as_slice()))
        .unwrap();
    let v1 = snapshot_to_vec(&i, &db).unwrap();
    let v2 = snapshot_to_vec_v2(&i, &db).unwrap();
    assert!(
        v2.len() * 10 <= v1.len() * 6,
        "v2 is {} bytes, v1 is {} ({}%)",
        v2.len(),
        v1.len(),
        v2.len() * 100 / v1.len()
    );
    // And the compressed form still decodes to the same database.
    let (_, db2) = decode_snapshot(&v2).unwrap();
    assert_eq!(db.size(), db2.size());
    let (_, db1) = decode_snapshot(&v1).unwrap();
    assert_eq!(db1.active_domain(), db2.active_domain());
}

#[test]
fn v2_header_version_and_inspect_report_the_encoding() {
    let bytes = sample_snapshot_v2();
    let summary = wdpt_store::inspect_snapshot(&bytes).unwrap();
    assert_eq!(summary.header.version, VERSION_V2);
    assert_eq!(summary.relations.len(), 2);
    for r in &summary.relations {
        assert!(
            r.raw_bytes >= r.bytes as u64,
            "{}: raw {} < stored {}",
            r.name,
            r.raw_bytes,
            r.bytes
        );
    }
    assert!(summary.dict_raw_bytes >= summary.dict_bytes as u64);
}
