//! End-to-end tests of the production trace pipeline: CSV ingestion,
//! bounded-memory streaming, open-/closed-loop replay against a real OS +
//! controller stack, and the determinism guarantees the experiment suite
//! leans on.

use std::io::BufReader;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eagletree_controller::{Controller, ControllerConfig};
use eagletree_core::{BlkOp, BlkRecord, SimDuration, SimTime};
use eagletree_flash::{Geometry, TimingSpec};
use eagletree_os::{CompletedIo, Os, OsConfig, ThreadCtx, Workload};
use eagletree_workloads::{
    characterize, to_msr_csv_line, ChunkedSource, MsrCsvSource, Remap, ReplayThread, SynthCsv,
    SynthShape, SyntheticTrace, TraceSource,
};

use proptest::prelude::*;

const FIXTURE: &str = include_str!("fixtures/msr_sample.csv");

fn parse_fixture() -> (Vec<BlkRecord>, u64, u64) {
    let mut src = MsrCsvSource::new(FIXTURE.as_bytes(), 4096);
    let mut recs = Vec::new();
    while let Some(r) = src.next_record() {
        recs.push(r);
    }
    (recs, src.records_parsed(), src.lines_skipped())
}

/// The committed MSR-Cambridge-style fixture parses fully, survives a
/// serialize → re-parse round trip record-for-record, and malformed lines
/// are counted rather than fatal.
#[test]
fn fixture_round_trips_through_the_parser() {
    let (recs, parsed, skipped) = parse_fixture();
    assert_eq!(recs.len(), 36, "every well-formed fixture row parses");
    assert_eq!(parsed, 36);
    assert_eq!(skipped, 2, "header + the malformed line are skipped");
    // Arrival instants are origin-shifted and non-decreasing (the fixture
    // contains one deliberately out-of-order timestamp).
    assert_eq!(recs[0].at.as_nanos(), 0, "origin shifts to zero");
    for w in recs.windows(2) {
        assert!(w[0].at <= w[1].at, "clamped to non-decreasing");
    }
    assert!(recs.iter().any(|r| r.op == BlkOp::Read));
    assert!(recs.iter().any(|r| r.op == BlkOp::Write));
    assert_eq!(
        recs.iter().filter(|r| r.op == BlkOp::Trim).count(),
        2,
        "Trim and UNMAP rows both normalize to trims"
    );
    assert!(recs.iter().all(|r| r.pages >= 1));
    // Round trip: serialize every parsed record back to CSV and re-parse.
    let csv: String = recs
        .iter()
        .map(|r| to_msr_csv_line(r, 4096, "hm", 1) + "\n")
        .collect();
    let mut reparse = MsrCsvSource::new(csv.as_bytes(), 4096);
    let mut round = Vec::new();
    while let Some(r) = reparse.next_record() {
        round.push(r);
    }
    assert_eq!(recs, round, "serialize → parse must be the identity");
    assert_eq!(reparse.lines_skipped(), 0);
}

/// The acceptance bar for production-scale ingestion: stream well over a
/// million IOs through the full CSV chain while the replay-side buffer
/// never holds more than one chunk of records.
#[test]
fn streaming_a_million_records_stays_chunk_bounded() {
    const RECORDS: u64 = 1_050_000;
    const CHUNK: usize = 4096;
    let shape = SynthShape {
        footprint_pages: 50_000,
        read_fraction: 0.6,
        trim_fraction: 0.01,
        zipf_theta: 0.9,
        pages_per_record: 2,
        mean_interarrival: SimDuration::from_micros(5),
        interarrival_cv: 1.5,
    };
    let csv = SynthCsv::new(SyntheticTrace::new(shape, RECORDS, 0xBEEF), 4096);
    let parsed = MsrCsvSource::new(BufReader::new(csv), 4096);
    let probe = Arc::new(AtomicUsize::new(0));
    let mut chunked = ChunkedSource::new(Remap::new(parsed, 1 << 20), CHUNK)
        .with_probe(Arc::clone(&probe));
    let mut n = 0u64;
    while chunked.next_record().is_some() {
        n += 1;
    }
    assert!(n >= 1_000_000, "drained {n} records, wanted >= 1M");
    assert_eq!(n, RECORDS, "the CSV chain must be lossless");
    let peak = probe.load(Ordering::Relaxed);
    assert!(
        peak <= CHUNK,
        "peak resident records {peak} exceeded the chunk bound {CHUNK}"
    );
    assert_eq!(chunked.peak_resident(), peak);
    assert!(peak > 0);
}

// ---------------------------------------------------------------------
// replay determinism

fn stack() -> Os {
    let ctrl =
        Controller::new(Geometry::tiny(), TimingSpec::slc(), ControllerConfig::default()).unwrap();
    let os_cfg = OsConfig {
        queue_depth: 16,
        ..OsConfig::default()
    };
    Os::new(ctrl, os_cfg)
}

fn replay_fingerprint(open_loop: bool) -> String {
    use std::fmt::Write;
    let mut os = stack();
    let shape = SynthShape {
        footprint_pages: 600,
        read_fraction: 0.5,
        trim_fraction: 0.02,
        zipf_theta: 1.0,
        pages_per_record: 1,
        mean_interarrival: SimDuration::from_micros(8),
        interarrival_cv: 1.8,
    };
    let csv = SynthCsv::new(SyntheticTrace::new(shape, 1_500, 0xD0), 4096);
    let parsed = MsrCsvSource::new(BufReader::new(csv), 4096);
    let src = ChunkedSource::new(Remap::new(parsed, 1_024), 128);
    let w = if open_loop {
        ReplayThread::open_loop(src, 4.0)
    } else {
        ReplayThread::closed_loop(src, 4.0)
    };
    let tid = os.add_thread(Box::new(w));
    os.run();
    let s = os.thread_stats(tid);
    let a = os.controller().array().counters();
    let mut out = String::new();
    writeln!(
        out,
        "now={} events={} r={} w={} t={} rp99={} wp99={} reads={} programs={} erases={}",
        os.now().as_nanos(),
        os.events_simulated(),
        s.reads_completed,
        s.writes_completed,
        s.trims_completed,
        s.read_latency.p99().as_nanos(),
        s.write_latency.p99().as_nanos(),
        a.reads,
        a.programs,
        a.erases,
    )
    .unwrap();
    out
}

/// Fixed-seed open-loop replay produces byte-identical fingerprints across
/// repeated runs — replay rides the OS timer machinery, so this pins the
/// timer path too.
#[test]
fn open_loop_replay_is_deterministic_across_runs() {
    let a = replay_fingerprint(true);
    let b = replay_fingerprint(true);
    assert_eq!(a, b, "open-loop replay drifted between runs");
    assert!(a.contains("events="));
}

/// Same pin for the closed-loop mode (timer-paced think times).
#[test]
fn closed_loop_replay_is_deterministic_across_runs() {
    let a = replay_fingerprint(false);
    let b = replay_fingerprint(false);
    assert_eq!(a, b, "closed-loop replay drifted between runs");
}

/// Closed-loop replay must preserve recorded think times: with warp 1 the
/// simulated span can never undercut the sum of recorded gaps, while an
/// aggressive open-loop warp compresses the same trace's wall clock.
#[test]
fn closed_loop_preserves_think_times_and_warp_compresses() {
    let gap = SimDuration::from_micros(40);
    let records = 200u64;
    let shape = SynthShape {
        footprint_pages: 256,
        read_fraction: 0.5,
        trim_fraction: 0.0,
        zipf_theta: 0.0,
        pages_per_record: 1,
        mean_interarrival: gap,
        interarrival_cv: 0.0, // evenly spaced: every gap is exactly `gap`
    };
    let run = |open_loop: bool, warp: f64| {
        let mut os = stack();
        let src = SyntheticTrace::new(shape.clone(), records, 0x7A);
        let w = if open_loop {
            ReplayThread::open_loop(src, warp)
        } else {
            ReplayThread::closed_loop(src, warp)
        };
        let tid = os.add_thread(Box::new(w));
        os.run();
        let s = os.thread_stats(tid);
        assert_eq!(s.reads_completed + s.writes_completed, records);
        os.now()
    };
    let floor = gap * (records - 1);
    let closed = run(false, 1.0);
    assert!(
        closed.as_nanos() >= floor.as_nanos(),
        "closed-loop finished at {closed:?}, below the think-time floor {floor:?}"
    );
    // Open-loop at warp 20 shrinks every recorded gap 20×; the run becomes
    // device-bound, so it must land well under the think-time-paced run.
    let warped = run(true, 20.0);
    assert!(
        warped.as_nanos() < closed.as_nanos(),
        "open-loop warp 20 should compress the recorded clock: {warped:?} vs {closed:?}"
    );
}

// ---------------------------------------------------------------------
// the on_timer regression (stray timer after trace exhaustion)

/// An in-memory trace.
struct Records(std::vec::IntoIter<BlkRecord>);

impl TraceSource for Records {
    fn next_record(&mut self) -> Option<BlkRecord> {
        self.0.next()
    }
}

/// Wraps a closed-loop [`ReplayThread`] and registers one extra short
/// timer in `init` — the shape of any composite workload that mixes its
/// own timers with the replayer's. The stray timer fires after the
/// (zero-think-time) trace has already submitted its last record.
struct ExtraTimer {
    inner: ReplayThread<Records>,
}

impl Workload for ExtraTimer {
    fn init(&mut self, ctx: &mut ThreadCtx) {
        self.inner.init(ctx);
        ctx.set_timer(SimDuration::from_nanos(1));
    }

    fn call_back(&mut self, ctx: &mut ThreadCtx, done: CompletedIo) {
        self.inner.call_back(ctx, done);
    }

    fn on_timer(&mut self, ctx: &mut ThreadCtx) {
        self.inner.on_timer(ctx);
    }

    fn name(&self) -> &str {
        "extra-timer"
    }
}

/// Regression: a timer that fires with no record waiting on it (the list
/// replayer this test was written for indexed past its last entry and
/// panicked the simulation) is ignored, and the thread still finishes on
/// its last completion.
#[test]
fn stray_timer_after_trace_exhaustion_finishes_instead_of_panicking() {
    let mut os = stack();
    let records = vec![BlkRecord::new(SimTime::ZERO, BlkOp::Write, 3)];
    let tid = os.add_thread(Box::new(ExtraTimer {
        inner: ReplayThread::closed_loop(Records(records.into_iter()), 1.0),
    }));
    os.run();
    assert!(os.thread_finished(tid));
    assert_eq!(os.thread_stats(tid).writes_completed, 1);
}

// ---------------------------------------------------------------------
// properties

proptest! {
    /// For any chunk size the prefetching wrapper preserves record order
    /// exactly and never holds more than one chunk resident.
    #[test]
    fn chunked_prefetch_preserves_order_within_the_bound(
        chunk in 1usize..512,
        records in 1u64..2_000,
        seed in any::<u64>(),
    ) {
        let shape = SynthShape {
            footprint_pages: 512,
            read_fraction: 0.5,
            trim_fraction: 0.05,
            zipf_theta: 0.8,
            pages_per_record: 1,
            mean_interarrival: SimDuration::from_micros(3),
            interarrival_cv: 1.0,
        };
        let mut direct = SyntheticTrace::new(shape.clone(), records, seed);
        let probe = Arc::new(AtomicUsize::new(0));
        let mut chunked = ChunkedSource::new(
            SyntheticTrace::new(shape, records, seed),
            chunk,
        )
        .with_probe(Arc::clone(&probe));
        let mut n = 0u64;
        loop {
            let a = direct.next_record();
            let b = chunked.next_record();
            prop_assert_eq!(a, b, "chunked stream diverged at record {}", n);
            if a.is_none() {
                break;
            }
            n += 1;
        }
        prop_assert_eq!(n, records);
        prop_assert!(probe.load(Ordering::Relaxed) <= chunk);
    }

    /// Characterize(synthesize(shape)) lands near the shape for the op mix
    /// regardless of the seed — the matched-generator contract E23 uses.
    #[test]
    fn characterizer_matches_any_seeded_mix(
        seed in any::<u64>(),
        read_pct in 0u64..101,
    ) {
        let read_fraction = read_pct as f64 / 100.0;
        let shape = SynthShape {
            footprint_pages: 400,
            read_fraction,
            trim_fraction: 0.0,
            zipf_theta: 0.9,
            pages_per_record: 1,
            mean_interarrival: SimDuration::from_micros(10),
            interarrival_cv: 1.0,
        };
        let mut src = SyntheticTrace::new(shape, 4_000, seed);
        let p = characterize(&mut src);
        prop_assert_eq!(p.records, 4_000);
        prop_assert!(
            (p.read_fraction - read_fraction).abs() < 0.05,
            "read mix drifted: wanted {} measured {}", read_fraction, p.read_fraction
        );
    }
}
