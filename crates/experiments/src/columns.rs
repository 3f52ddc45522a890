//! The column vocabulary: every result-column name that is read off a
//! [`Measured`], a read-latency [`Tail`], a [`ReliabilityStats`] or a
//! [`StageBreakdown`] is bound to its source here, once. Experiments
//! pick columns by constant ([`Row::cols`](crate::metrics::Row::cols)),
//! so a name cannot drift between two experiments that mean the same
//! number. Columns computed from anything else (the `Os`, the span ring,
//! a trace profile) are pushed where they are computed.

use eagletree_controller::ReliabilityStats;
use eagletree_core::{Stage, StageBreakdown, Tail};

use crate::metrics::Measured;
use crate::point::Ran;

/// A column name and how to read its value off a source `S`.
pub(crate) struct Col<S> {
    pub name: &'static str,
    pub get: fn(&S) -> f64,
}

const fn col<S>(name: &'static str, get: fn(&S) -> f64) -> Col<S> {
    Col { name, get }
}

// Throughput over the measured threads' completion window, under the
// name of whoever was measured.
pub(crate) const IOPS: Col<Measured> = col("iops", |m| m.iops);
pub(crate) const TOTAL_IOPS: Col<Measured> = col("total_iops", |m| m.iops);
pub(crate) const READER_IOPS: Col<Measured> = col("reader_iops", |m| m.iops);
pub(crate) const FLOODER_IOPS: Col<Measured> = col("flooder_iops", |m| m.iops);
pub(crate) const AGGRESSIVE_IOPS: Col<Measured> = col("aggressive_iops", |m| m.iops);
pub(crate) const MODEST_A_IOPS: Col<Measured> = col("modest_a_iops", |m| m.iops);
pub(crate) const MODEST_B_IOPS: Col<Measured> = col("modest_b_iops", |m| m.iops);

// Latency: mean, per-thread-max p99 and stddev (µs).
pub(crate) const READ_US: Col<Measured> = col("read_us", |m| m.read_mean_us);
pub(crate) const READER_US: Col<Measured> = col("reader_us", |m| m.read_mean_us);
pub(crate) const READ_P99_US: Col<Measured> = col("read_p99_us", |m| m.read_p99_us);
pub(crate) const READ_SD_US: Col<Measured> = col("read_sd_us", |m| m.read_stddev_us);
pub(crate) const WRITE_US: Col<Measured> = col("write_us", |m| m.write_mean_us);
pub(crate) const WRITE_P99_US: Col<Measured> = col("write_p99_us", |m| m.write_p99_us);
pub(crate) const WRITE_SD_US: Col<Measured> = col("write_sd_us", |m| m.write_stddev_us);

// Controller counters over the measured phase.
pub(crate) const WA: Col<Measured> = col("WA", |m| m.write_amplification);
pub(crate) const GC_ERASES: Col<Measured> = col("gc_erases", |m| m.gc_erases as f64);
pub(crate) const WL_ERASES: Col<Measured> = col("wl_erases", |m| m.wl_erases as f64);
pub(crate) const INTERNAL_OPS: Col<Measured> = col("internal_ops", |m| m.internal_ops as f64);
pub(crate) const MAP_FETCHES: Col<Measured> = col("map_fetches", |m| m.mapping_fetches as f64);
pub(crate) const MAP_WRITEBACKS: Col<Measured> =
    col("map_writebacks", |m| m.mapping_writebacks as f64);
pub(crate) const MERGES: Col<Measured> = col("merges", |m| {
    (m.merges.switch_merges + m.merges.partial_merges + m.merges.full_merges) as f64
});
pub(crate) const FULL_MERGES: Col<Measured> = col("full_merges", |m| m.merges.full_merges as f64);
pub(crate) const SWITCH_MERGES: Col<Measured> =
    col("switch_merges", |m| m.merges.switch_merges as f64);
pub(crate) const MERGE_MOVES: Col<Measured> = col("merge_moves", |m| m.merges.moves as f64);
pub(crate) const MERGE_ERASES: Col<Measured> = col("merge_erases", |m| m.merges.erases as f64);

// Wear and virtual makespan at the end of the run.
pub(crate) const WEAR_SD: Col<Measured> = col("wear_sd", |m| m.wear_stddev);
pub(crate) const WEAR_MAX: Col<Measured> = col("wear_max", |m| m.wear_max as f64);
pub(crate) const MAKESPAN_MS: Col<Measured> = col("makespan_ms", |m| m.makespan_s * 1000.0);
pub(crate) const TOTAL_MS: Col<Measured> = col("total_ms", |m| m.makespan_s * 1000.0);

/// Fairness across a point's actors.
pub(crate) const JAIN: Col<Ran> = col("jain", Ran::jain);

/// What most sweeps report per point.
pub(crate) const STANDARD: [Col<Measured>; 9] = [
    IOPS,
    READ_US,
    READ_P99_US,
    READ_SD_US,
    WRITE_US,
    WRITE_P99_US,
    WRITE_SD_US,
    WA,
    GC_ERASES,
];

// The latency-sensitive actor's own read-latency histogram (µs).
pub(crate) const READER_P50_US: Col<Tail> = col("reader_p50_us", |t| t.p50.as_micros_f64());
pub(crate) const READER_P95_US: Col<Tail> = col("reader_p95_us", |t| t.p95.as_micros_f64());
pub(crate) const READER_P99_US: Col<Tail> = col("reader_p99_us", |t| t.p99.as_micros_f64());
pub(crate) const READER_P999_US: Col<Tail> = col("reader_p999_us", |t| t.p999.as_micros_f64());

/// The paper-style y-axis of the tenant experiments.
pub(crate) const READER_TAIL: [Col<Tail>; 4] =
    [READER_P50_US, READER_P95_US, READER_P99_US, READER_P999_US];

// Media reliability — only runs with a fault model installed have a
// `ReliabilityStats` to read these from.
pub(crate) const UBER: Col<ReliabilityStats> = col("uber", |r| r.uber);
pub(crate) const CORRECTED_BITS: Col<ReliabilityStats> =
    col("corrected_bits", |r| r.corrected_bits as f64);
pub(crate) const RETRIES: Col<ReliabilityStats> = col("retries", |r| r.read_retries as f64);
pub(crate) const UNCORRECTABLE: Col<ReliabilityStats> =
    col("uncorrectable", |r| r.uncorrectable_reads as f64);
pub(crate) const GROWN_BAD: Col<ReliabilityStats> = col("grown_bad", |r| r.grown_bad_blocks as f64);
pub(crate) const REMAPS: Col<ReliabilityStats> = col("remaps", |r| r.program_remaps as f64);
pub(crate) const SCRUB_REFRESHES: Col<ReliabilityStats> =
    col("scrub_refreshes", |r| r.scrub_refreshes as f64);
pub(crate) const SCRUB_READS: Col<ReliabilityStats> = col("scrub_reads", |r| r.scrub_reads as f64);
pub(crate) const SCRUB_WRITES: Col<ReliabilityStats> =
    col("scrub_writes", |r| r.scrub_writes as f64);
pub(crate) const LOST_LPNS: Col<ReliabilityStats> = col("lost_lpns", |r| r.lost_lpns as f64);

/// Mean time per lifecycle stage (µs) — only runs with observability on
/// have a `StageBreakdown`.
pub(crate) const STAGES: [Col<StageBreakdown>; Stage::COUNT] = [
    col("st_queue_us", |b| b.mean_us(Stage::QueueWait)),
    col("st_qos_us", |b| b.mean_us(Stage::QosHold)),
    col("st_pend_us", |b| b.mean_us(Stage::SchedPending)),
    col("st_media_us", |b| b.mean_us(Stage::Media)),
    col("st_retry_us", |b| b.mean_us(Stage::Retry)),
];
