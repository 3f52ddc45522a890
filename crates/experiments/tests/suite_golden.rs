//! Golden result rows for the whole suite: every experiment, run at
//! `Scale::Smoke`, must reproduce the rows it produced when this table
//! was committed — same labels, same columns, same order, same bits.
//!
//! Every cell of every experiment is a deterministic function of the
//! code. A mismatch therefore means the simulation, a sweep or a column
//! binding changed; a refactor of the experiments crate must leave all
//! 28 hashes alone.
//!
//! The same run is the suite's liveness ratchet: the points that end with
//! ops the device can never issue (`Table::stuck`) are pinned too.

use std::sync::OnceLock;

use eagletree_experiments::{suite, Scale};

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over (id, label, column name, value bits) of every gated cell,
/// in row and column order, with a separator byte after each string so
/// that moving a character between a label and a column name changes the
/// hash. Also returns the experiment's stuck points as `"id label"`.
fn fingerprint(id: &str) -> (u64, Vec<String>) {
    let t = suite::by_id(id).expect("listed id resolves").run(Scale::Smoke);
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, id.as_bytes());
    for r in &t.rows {
        h = fnv1a(fnv1a(h, &[0xff]), r.label.as_bytes());
        for (name, v) in &r.values {
            h = fnv1a(fnv1a(h, &[0xfe]), name.as_bytes());
            h = fnv1a(fnv1a(h, &[0xfd]), &v.to_bits().to_le_bytes());
        }
    }
    let stuck = t.stuck.iter().map(|(label, _)| format!("{id} {label}"));
    (h, stuck.collect())
}

/// One experiment's id, fingerprint and stuck points.
type Outcome = (&'static str, u64, Vec<String>);

/// One smoke-scale run of the whole suite, in suite order, shared by both
/// tests.
fn suite_run() -> &'static [Outcome] {
    static RUN: OnceLock<Vec<Outcome>> = OnceLock::new();
    RUN.get_or_init(|| {
        // Each experiment is a self-contained simulation, so they run on
        // one scoped thread each; `scope` joins them and re-raises a panic.
        std::thread::scope(|s| {
            let ids: Vec<&str> = suite::all().iter().map(|e| e.id).collect();
            let handles: Vec<_> = ids
                .into_iter()
                .map(|id| (id, s.spawn(move || fingerprint(id))))
                .collect();
            handles
                .into_iter()
                .map(|(id, h)| {
                    let (hash, stuck) = h.join().expect("experiment panicked");
                    (id, hash, stuck)
                })
                .collect()
        })
    })
}

/// Generated from the suite as it stood before experiments became point
/// lists (PR 14's parent, 28 hand-written sweep functions) and never
/// regenerated since.
const GOLDEN: [(&str, u64); 28] = [
    ("E1", 0x0de8_8f5b_53a7_3d21),
    ("E2", 0xd088_944b_8353_a4ea),
    ("E3", 0xa54f_ec97_3954_18ae),
    ("E4", 0x97b2_d711_1511_6186),
    ("E5", 0xd1eb_d5b1_e1cb_6c65),
    ("E6", 0xc896_6c57_4b1e_30d1),
    ("E7", 0x0b6c_e54d_b81b_3a6d),
    ("E8", 0x4ff7_b522_c064_9b02),
    ("E9", 0xbce1_9f9e_de38_fd01),
    ("E10", 0xf9d9_1421_7b1c_75b6),
    ("E11", 0x5b2a_4b91_8e00_eab6),
    ("E12", 0x0d0a_bd4e_8c0f_14ad),
    ("E13", 0xb272_24da_23c8_79f9),
    ("E14", 0x3994_f8cd_9478_756c),
    ("E15", 0xb1a1_8ed4_4b9b_32a4),
    ("E16", 0xdfee_70ce_a29b_feea),
    ("E17", 0x357d_f0e3_fa9a_1644),
    ("E18", 0xc917_a458_1b9f_2f19),
    ("E19", 0x1270_94a3_9620_d1e1),
    ("E20", 0x59e1_6723_ae72_6a13),
    ("E21", 0x20df_d5bc_7110_c369),
    ("E22", 0xe24d_a174_682d_3836),
    ("E23", 0x8635_063c_85c5_ffb4),
    ("E24", 0xb465_f7d0_db55_3334),
    ("E25", 0xf5d7_a857_93b7_f7f9),
    ("E26", 0x83eb_04bd_b56f_544a),
    ("E27", 0xde10_e114_2dc6_a939),
    ("G1", 0x494a_6424_2a1b_c7e5),
];

#[test]
fn every_experiment_reproduces_its_golden_rows() {
    let got: Vec<(&str, u64)> = suite_run().iter().map(|(id, h, _)| (*id, *h)).collect();
    let ids: Vec<&str> = got.iter().map(|(id, _)| *id).collect();
    let golden_ids: Vec<&str> = GOLDEN.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, golden_ids, "the suite's index changed");
    let drifted: Vec<&str> = got
        .iter()
        .zip(&GOLDEN)
        .filter(|(g, want)| g.1 != want.1)
        .map(|(g, _)| g.0)
        .collect();
    assert!(
        drifted.is_empty(),
        "result rows changed for {drifted:?} since the goldens were committed; got\n{got:#018x?}"
    );
}

/// The liveness ratchet. These points end in ROADMAP item 1's stall (a
/// relocation write bound to a LUN that can no longer allocate for it);
/// a new entry is a new way to stop silently and fails tier-1, a fix
/// shrinks the list.
const STUCK: [&str; 2] = ["E25 dftl/pe5000/noscrub", "E25 dftl/pe5000/scrub"];

#[test]
fn only_the_pinned_points_end_stuck() {
    let stuck: Vec<&str> = suite_run()
        .iter()
        .flat_map(|(_, _, stuck)| stuck.iter().map(String::as_str))
        .collect();
    assert_eq!(stuck, STUCK);
}
