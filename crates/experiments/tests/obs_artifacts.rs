//! The observability artifacts at the scale they run in CI: the smoke
//! capture's Perfetto JSON and timeline CSV, and the E27 smoke table (built
//! from the retained spans), pinned to `goldens/obs_artifacts.txt`. However
//! the collector stores what it retains, every span it hands back must be
//! the one it was given, so these bytes never move unless simulated
//! behaviour does.

use eagletree_core::digest::{Fingerprint, Golden};
use eagletree_experiments::{obs_capture, suite, Scale};

/// One artifact in one section named after it.
fn artifact(name: &str, text: &str) -> Fingerprint {
    let mut fp = Fingerprint::default();
    *fp.section(name) += text;
    fp
}

#[test]
fn obs_artifacts_match_committed_digests() {
    let capture = obs_capture(Scale::Smoke);
    let e27 = suite::by_id("E27")
        .expect("E27 is in the suite")
        .run(Scale::Smoke);
    let mut table = Fingerprint::default();
    let csv = e27.to_csv();
    let (columns, rows) = csv.split_once('\n').expect("a CSV header");
    *table.section("columns") += &format!("{columns}\n");
    for row in rows.split_inclusive('\n') {
        *table.section(row.split(',').next().expect("a row label")) += row;
    }
    let mut golden = Golden::new(env!("CARGO_TARGET_TMPDIR"), "obs_artifacts");
    golden.record("perfetto", "smoke", artifact("perfetto", &capture.perfetto));
    golden.record("timeline", "smoke", artifact("timeline", &capture.timeline_csv));
    golden.record("e27", "smoke", table);
    golden.check(include_str!("goldens/obs_artifacts.txt"));
}
