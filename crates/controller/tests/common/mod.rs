//! What the controller's golden tests share: the mapping-scheme rows and
//! scheduling-policy columns they run, and the one renderer of a run.

use eagletree_controller::{Driver, MappingKind, SchedPolicy};
use eagletree_core::digest::Fingerprint;

/// The golden rows: the three mapping schemes, by name.
pub fn mappings() -> [(&'static str, MappingKind); 3] {
    [
        ("page_map", MappingKind::PageMap),
        ("dftl24", MappingKind::Dftl { cmt_entries: 24 }),
        ("hybrid3_fifo", MappingKind::Hybrid { log_blocks: 3 }),
    ]
}

/// The golden columns: the five scheduling policies, by name.
pub fn policies() -> [(&'static str, SchedPolicy); 5] {
    [
        ("fifo", SchedPolicy::Fifo),
        ("class_priority", SchedPolicy::reads_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
        ("tag_priority", SchedPolicy::TagPriority),
    ]
}

/// Everything observable of a run, in sections: the completion stream,
/// the controller, merge and array counters, the reliability counters when
/// a fault model is installed, and every lifecycle span in close order (the
/// order-sensitive part: a reordered issue moves a span's stamps or slot).
pub fn fingerprint(d: &Driver) -> Fingerprint {
    let mut fp = Fingerprint::default();
    let done = fp.section("completions");
    for c in &d.done {
        *done += &format!("{}@{}\n", c.id, c.at.as_nanos());
    }
    *fp.section("ctrl_stats") += &format!("{:?}\n", d.c.stats());
    *fp.section("merge") += &format!("{:?}\n", d.c.merge_counters());
    *fp.section("array") += &format!("{:?}\n", d.c.array().counters());
    if d.c.reliability().is_some() {
        *fp.section("reliability") += &format!("{:?}\n", d.c.reliability());
    }
    let spans = fp.section("spans");
    if let Some(obs) = d.c.obs() {
        for span in obs.spans() {
            *spans += &format!("{span:?}\n");
        }
        *spans += &format!("dropped={} open={}\n", obs.dropped(), obs.open_count());
    }
    fp
}
