//! The observability artifacts at the scale they run in CI: the smoke
//! capture's Perfetto JSON and timeline CSV, and the E27 smoke table (built
//! from the retained spans), pinned to committed FNV-1a digests. However
//! the collector stores what it retains, every span it hands back must be
//! the one it was given, so these bytes never move unless simulated
//! behaviour does.

use eagletree_experiments::{obs_capture, suite, Scale};

/// FNV-1a (64-bit) of an artifact.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of the capture's Perfetto JSON, its timeline CSV and the E27
/// smoke table's CSV, in that order. E27 runs with program failures: its
/// digest was re-recorded when a failed program began to report at its
/// completion and to queue its retry only then.
const GOLDEN: [u64; 3] = [
    0x72a9_cb89_9256_47e9,
    0x5dba_fb92_559a_f3d3,
    0x0379_de3d_7fbe_b80d,
];

#[test]
fn obs_artifacts_match_committed_digests() {
    let capture = obs_capture(Scale::Smoke);
    let e27 = suite::by_id("E27")
        .expect("E27 is in the suite")
        .run(Scale::Smoke);
    let got = [
        fnv1a(&capture.perfetto),
        fnv1a(&capture.timeline_csv),
        fnv1a(&e27.to_csv()),
    ];
    assert!(
        got == GOLDEN,
        "the smoke capture or the E27 smoke table changed; got\n{got:#018x?}"
    );
}
