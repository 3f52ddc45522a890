//! Grace hash join IO pattern (§2.2).
//!
//! Two phases over pre-written input relations R and S:
//!
//! 1. **Partition**: read each input page sequentially and immediately
//!    write it into one of `partitions` output buckets (hash fan-out) —
//!    a sequential-read + scattered-write pattern.
//! 2. **Probe**: for each bucket, read its R pages (build the hash table)
//!    then its S pages (probe) — bucket-sequential reads.
//!
//! The thread records when each phase finishes so experiments can compare
//! layouts and allocation policies on the two very different patterns.

use eagletree_core::SimTime;
use eagletree_os::{CompletedIo, OsIo, ThreadCtx, Workload};

use crate::gen::Region;

/// Shared cell through which the join reports `(partition_done,
/// probe_done)` to the experiment that spawned it.
pub type PhaseSink = std::rc::Rc<std::cell::RefCell<(Option<SimTime>, Option<SimTime>)>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Partition,
    Probe,
    Done,
}

/// A Grace hash join over two relations.
pub struct GraceHashJoin {
    region_r: Region,
    region_s: Region,
    region_out: Region,
    partitions: u64,
    window: u64,

    phase: Phase,
    // Partition phase cursors.
    next_input: u64,
    reads_in_flight: u64,
    writes_in_flight: u64,
    pages_partitioned: u64,
    bucket_cursor: Vec<u64>,
    // Probe phase cursor.
    next_probe: u64,
    probes_in_flight: u64,

    /// When the partition phase completed.
    pub partition_done_at: Option<SimTime>,
    /// When the probe phase (and the join) completed.
    pub probe_done_at: Option<SimTime>,
    /// Optional external sink for the phase times: `(partition_done,
    /// probe_done)`. The OS owns the workload box, so experiments read
    /// phase boundaries through this shared cell.
    phase_sink: Option<PhaseSink>,
}

impl GraceHashJoin {
    /// Join relations stored at `region_r` / `region_s`, partitioning into
    /// `partitions` buckets inside `region_out` (must hold |R| + |S|
    /// pages), keeping up to `window` IOs in flight.
    pub fn new(region_r: Region, region_s: Region, region_out: Region, partitions: u64, window: u64) -> Self {
        assert!(partitions > 0 && window > 0);
        assert!(
            region_out.len >= region_r.len + region_s.len,
            "output region must hold both relations"
        );
        GraceHashJoin {
            region_r,
            region_s,
            region_out,
            partitions,
            window,
            phase: Phase::Partition,
            next_input: 0,
            reads_in_flight: 0,
            writes_in_flight: 0,
            pages_partitioned: 0,
            bucket_cursor: vec![0; partitions as usize],
            next_probe: 0,
            probes_in_flight: 0,
            partition_done_at: None,
            probe_done_at: None,
            phase_sink: None,
        }
    }

    /// Report phase completion times through a shared cell.
    pub fn with_phase_sink(mut self, sink: PhaseSink) -> Self {
        self.phase_sink = Some(sink);
        self
    }

    fn total_input(&self) -> u64 {
        self.region_r.len + self.region_s.len
    }

    /// The input page at partition-phase index `i`.
    fn input_lpn(&self, i: u64) -> u64 {
        if i < self.region_r.len {
            self.region_r.start + i
        } else {
            self.region_s.start + (i - self.region_r.len)
        }
    }

    /// Bucket capacity inside the output region (equal slices).
    fn bucket_capacity(&self) -> u64 {
        self.region_out.len / self.partitions
    }

    fn feed_partition(&mut self, ctx: &mut ThreadCtx) {
        while self.reads_in_flight + self.writes_in_flight < self.window
            && self.next_input < self.total_input()
        {
            ctx.submit(OsIo::read(self.input_lpn(self.next_input)));
            self.next_input += 1;
            self.reads_in_flight += 1;
        }
    }

    fn feed_probe(&mut self, ctx: &mut ThreadCtx) {
        // Probe reads the output region bucket-by-bucket in layout order,
        // covering exactly the pages written during partitioning.
        while self.probes_in_flight < self.window {
            let Some(lpn) = self.probe_lpn(self.next_probe) else {
                break;
            };
            ctx.submit(OsIo::read(lpn));
            self.next_probe += 1;
            self.probes_in_flight += 1;
        }
        if self.probes_in_flight == 0 && self.probe_lpn(self.next_probe).is_none() {
            self.phase = Phase::Done;
            self.probe_done_at = Some(ctx.now());
            if let Some(s) = &self.phase_sink {
                s.borrow_mut().1 = Some(ctx.now());
            }
            ctx.finish();
        }
    }

    /// The `i`-th page read during probe, walking buckets in order.
    fn probe_lpn(&self, mut i: u64) -> Option<u64> {
        let cap = self.bucket_capacity();
        for (b, &filled) in self.bucket_cursor.iter().enumerate() {
            if i < filled {
                return Some(self.region_out.start + b as u64 * cap + i);
            }
            i -= filled;
        }
        None
    }
}

impl Workload for GraceHashJoin {
    fn init(&mut self, ctx: &mut ThreadCtx) {
        self.feed_partition(ctx);
    }

    fn call_back(&mut self, ctx: &mut ThreadCtx, done: CompletedIo) {
        match self.phase {
            Phase::Partition => {
                match done.io.kind {
                    eagletree_controller::RequestKind::Read => {
                        self.reads_in_flight -= 1;
                        // Hash the input page into a bucket and write it out.
                        let bucket =
                            (done.io.lpn.wrapping_mul(2_654_435_761) % self.partitions) as usize;
                        let cap = self.bucket_capacity();
                        let used = self.bucket_cursor[bucket];
                        assert!(
                            used < cap,
                            "bucket {bucket} overflow: skewed hash exceeded slice"
                        );
                        let out = self.region_out.start + bucket as u64 * cap + used;
                        self.bucket_cursor[bucket] += 1;
                        ctx.submit(OsIo::write(out));
                        self.writes_in_flight += 1;
                    }
                    eagletree_controller::RequestKind::Write
                    | eagletree_controller::RequestKind::Trim => {
                        self.writes_in_flight -= 1;
                        self.pages_partitioned += 1;
                    }
                }
                if self.pages_partitioned == self.total_input() {
                    self.phase = Phase::Probe;
                    self.partition_done_at = Some(ctx.now());
                    if let Some(s) = &self.phase_sink {
                        s.borrow_mut().0 = Some(ctx.now());
                    }
                    self.feed_probe(ctx);
                } else {
                    self.feed_partition(ctx);
                }
            }
            Phase::Probe => {
                self.probes_in_flight -= 1;
                self.feed_probe(ctx);
            }
            Phase::Done => {}
        }
    }

    fn name(&self) -> &str {
        "grace-hash-join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_disjoint() {
        let j = GraceHashJoin::new(
            Region::new(0, 16),
            Region::new(16, 16),
            Region::new(32, 32),
            4,
            4,
        );
        assert_eq!(j.bucket_capacity(), 8);
        assert_eq!(j.total_input(), 32);
        assert_eq!(j.input_lpn(0), 0);
        assert_eq!(j.input_lpn(15), 15);
        assert_eq!(j.input_lpn(16), 16);
        assert_eq!(j.input_lpn(31), 31);
    }

    #[test]
    fn probe_walks_filled_buckets_only() {
        let mut j = GraceHashJoin::new(
            Region::new(0, 8),
            Region::new(8, 8),
            Region::new(16, 16),
            2,
            4,
        );
        j.bucket_cursor = vec![3, 2];
        assert_eq!(j.probe_lpn(0), Some(16));
        assert_eq!(j.probe_lpn(2), Some(18));
        assert_eq!(j.probe_lpn(3), Some(24)); // second bucket slice
        assert_eq!(j.probe_lpn(4), Some(25));
        assert_eq!(j.probe_lpn(5), None);
    }

    #[test]
    #[should_panic(expected = "output region must hold")]
    fn undersized_output_rejected() {
        GraceHashJoin::new(
            Region::new(0, 16),
            Region::new(16, 16),
            Region::new(32, 8),
            2,
            2,
        );
    }
}
