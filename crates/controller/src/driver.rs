//! The one host of a [`Controller`]: request ids, a clock, agenda stepping,
//! completions, liveness, the power cut, and a ledger of what the device
//! acknowledged. `Os`, every controller test and the E22 crash sweep drive
//! the device through this and nothing else. The ledger's promises are
//! checked here too, once: live ([`Driver::check_promises`]) and across a
//! power cut ([`Promised::check`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use eagletree_core::{SimTime, NO_SPAN};
use eagletree_flash::{Geometry, TimingSpec};

use crate::config::ControllerConfig;
use crate::controller::{Controller, Stuck};
use crate::recovery::CrashImage;
use crate::types::{Completion, IoTags, Lpn, Ppn, RequestId, RequestKind, SsdRequest};

/// What the host was promised, per logical page: the reference model the
/// driver's checks hold a device to. The [`Driver`] maintains it from what
/// it submits and what comes back, and orders a trim against a write by
/// what it saw first: submission ids order two submissions, and its count
/// of submissions an acknowledgment and a trim.
#[derive(Debug, Default)]
struct Ledger {
    /// Per lpn, over its acknowledged writes: the last submitted one's id
    /// and the submissions seen when the last of them was acknowledged.
    write_ack: BTreeMap<Lpn, (RequestId, u64)>,
    /// The last trim per lpn: its id and the submissions seen with it (a
    /// trim acks when submitted), so it counts more than any
    /// acknowledgment seen before it and no more than any seen after.
    trim_ack: BTreeMap<Lpn, (RequestId, u64)>,
    /// Writes submitted and not yet acknowledged.
    inflight: BTreeMap<RequestId, Lpn>,
    /// Submissions seen so far.
    submissions: u64,
}

impl Ledger {
    fn submitted(&mut self, req: &SsdRequest) {
        self.submissions += 1;
        match req.kind {
            RequestKind::Write => {
                self.inflight.insert(req.id, req.lpn);
            }
            RequestKind::Trim => {
                self.trim_ack.insert(req.lpn, (req.id, self.submissions));
            }
            RequestKind::Read => {}
        }
    }

    fn completed(&mut self, comp: &Completion) {
        if let Some(lpn) = self.inflight.remove(&comp.id) {
            let (id, seen) = self.write_ack.entry(lpn).or_insert((comp.id, self.submissions));
            *id = (*id).max(comp.id);
            *seen = self.submissions;
        }
    }

    /// Logical pages with an acknowledged write submitted after their last
    /// trim: the device must keep them, across a power cut too. A write in
    /// flight when the trim came has no order with it, so it binds neither
    /// this set nor [`Ledger::must_be_unmapped`], whenever it is acked.
    fn must_be_mapped(&self) -> Vec<Lpn> {
        let acks = self.write_ack.iter();
        acks.filter(|&(lpn, w)| self.trim_ack.get(lpn).is_none_or(|t| w.0 > t.0))
            .map(|(&lpn, _)| lpn)
            .collect()
    }

    /// Logical pages below `logical_pages` never write-acknowledged, or
    /// trimmed after the ledger saw their last write acknowledged: a live
    /// device must not map them. Only meaningful with no write in flight.
    fn must_be_unmapped(&self, logical_pages: u64) -> Vec<Lpn> {
        assert!(self.inflight.is_empty(), "a write in flight may map its page at any instant");
        (0..logical_pages)
            .filter(|lpn| match (self.write_ack.get(lpn), self.trim_ack.get(lpn)) {
                (None, _) => true,
                (Some(w), Some(t)) => t.1 > w.1,
                (Some(_), None) => false,
            })
            .collect()
    }
}

/// What the device had promised at an instant ([`Driver::promised`]), for
/// [`Promised::check`] after a power cut and remount.
#[derive(Debug, Clone)]
pub struct Promised {
    /// The pages the ledger said must be mapped.
    mapped: Vec<Lpn>,
    /// The lost-data ledger.
    lost: BTreeSet<Lpn>,
    /// Where each page was mapped that had no write in flight, no loss
    /// ledgered and no buffer entry (a buffered page answers from the
    /// battery-backed buffer, which the remount re-installs, and its
    /// flushes are writes the ledger never sees).
    live: Vec<(Lpn, Ppn)>,
}

impl Promised {
    /// The cut check, on `c` remounted from the cut: the invariants hold
    /// (so a mapping targets a `Valid`, untorn page whose OOB names its
    /// logical page); every page that had to be mapped is kept, buffered
    /// or mapped, or ledgered lost; and every page in `live` maps where it
    /// did. Returns how many acknowledged pages `c` kept, or names the
    /// first broken promise.
    pub fn check(&self, c: &Controller) -> Result<u64, String> {
        c.check_invariants();
        let mut kept = 0;
        for &lpn in &self.mapped {
            if c.is_buffered(lpn) || c.peek_mapping(lpn).is_some() {
                kept += 1;
            } else if !self.lost.contains(&lpn) {
                return Err(format!("acknowledged write of lpn {lpn} lost, and no ledger says so"));
            }
        }
        for &(lpn, ppn) in &self.live {
            let now = c.peek_mapping(lpn);
            if now != Some(ppn) {
                return Err(format!("lpn {lpn} moved from ppn {ppn} to {now:?}, not being written"));
            }
        }
        Ok(kept)
    }

    /// The pages that had to be mapped at the cut, in lpn order.
    pub fn mapped(&self) -> &[Lpn] {
        &self.mapped
    }
}

/// A controller with the least a host needs around it, and a ledger of
/// what it promised. There is no `Drop`: a crash test takes
/// [`Driver::promised`], then cuts power with [`Driver::power_cut`].
///
/// ```
/// use eagletree_controller::{ControllerConfig, Driver, RequestKind};
///
/// let mut d = Driver::tiny(ControllerConfig::default());
/// d.submit(RequestKind::Write, 7);
/// d.run().expect("one write on an empty device completes");
/// assert_eq!(d.check_promises(), Ok(1), "lpn 7 is kept, and nothing else is mapped");
/// ```
pub struct Driver {
    /// The device under test.
    pub c: Controller,
    /// The instant of the last agenda step; submissions happen at it.
    pub now: SimTime,
    /// Every completion handed out so far, in order, until the host clears
    /// it (`Os` does after each advance).
    pub done: Vec<Completion>,
    /// What those completions (and the trims submitted) promised.
    ledger: Ledger,
    next_id: RequestId,
    /// The buffer [`Controller::advance_into`] swaps with, empty between
    /// steps.
    batch: Vec<Completion>,
    /// [`Driver::stuck`]'s last answer, keyed by how far the device had
    /// got then (events processed + requests submitted).
    dry: Option<(u64, Option<Arc<Stuck>>)>,
}

impl Driver {
    /// Host `c` from instant zero.
    pub fn new(c: Controller) -> Self {
        Driver {
            c,
            now: SimTime::ZERO,
            done: Vec::new(),
            ledger: Ledger::default(),
            next_id: 0,
            batch: Vec::new(),
            dry: None,
        }
    }

    /// A fresh `Geometry::tiny()` SLC device under `cfg`.
    pub fn tiny(cfg: ControllerConfig) -> Self {
        let c = Controller::new(Geometry::tiny(), TimingSpec::slc(), cfg);
        Driver::new(c.expect("config fits the tiny geometry"))
    }

    /// Submit one untagged request at `now`; ids count `0, 1, 2, …` in
    /// call order.
    pub fn submit(&mut self, kind: RequestKind, lpn: Lpn) -> RequestId {
        self.submit_tagged(kind, lpn, IoTags::none())
    }

    /// [`Driver::submit`] with open-interface hints.
    pub fn submit_tagged(&mut self, kind: RequestKind, lpn: Lpn, tags: IoTags) -> RequestId {
        let id = self.submit_spanned(kind, lpn, tags, NO_SPAN);
        self.ledger.submitted(&SsdRequest { id, kind, lpn, tags });
        id
    }

    /// Submit at `now` a request whose lifecycle span the host opened
    /// ([`Controller::submit_spanned`]), and which the ledger never sees.
    pub fn submit_spanned(&mut self, kind: RequestKind, lpn: Lpn, tags: IoTags, span: u64) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        self.c.submit_spanned(SsdRequest { id, kind, lpn, tags }, span, self.now);
        id
    }

    /// Move the clock to `at`, process the agenda up to it, and hand out
    /// what the device completed.
    pub fn advance_to(&mut self, at: SimTime) -> &[Completion] {
        self.now = at;
        let from = self.done.len();
        self.c.advance_into(at, &mut self.batch);
        self.done.append(&mut self.batch);
        for comp in &self.done[from..] {
            self.ledger.completed(comp);
        }
        &self.done[from..]
    }

    /// The next agenda instant, `None` when the agenda is dry.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.c.next_event_time()
    }

    /// Process the next agenda instant and return its completions; `None`
    /// once the agenda is dry (requests that completed inside `submit`
    /// are then still to be handed out — [`Driver::run`] does).
    pub fn step(&mut self) -> Option<&[Completion]> {
        let at = self.next_wake()?;
        Some(self.advance_to(at))
    }

    /// Up to `budget` agenda instants; returns the budget left over, so
    /// `0` means the agenda may hold more.
    pub fn step_n(&mut self, mut budget: u64) -> u64 {
        while budget > 0 && self.step().is_some() {
            budget -= 1;
        }
        budget
    }

    /// Run the agenda dry and hand out every completion; `Err` when the
    /// device stopped with work left ([`Driver::stuck`]).
    pub fn run(&mut self) -> Result<(), Stuck> {
        while self.step().is_some() {}
        self.advance_to(self.now);
        self.stuck().map_or(Ok(()), |s| Err(Stuck::clone(&s)))
    }

    /// What the device holds and can never issue, when it stopped with
    /// work left ([`Controller::liveness`]). The answer is kept until the
    /// device moves, so asking again allocates nothing: the repo
    /// benchmark's per-round allocation check relies on it, as its
    /// planning round runs dry in `Os::run_until` and again in `Os::run`.
    pub fn stuck(&mut self) -> Option<Arc<Stuck>> {
        let moved = self.c.events_processed() + self.next_id;
        if self.dry.as_ref().is_none_or(|(at, _)| *at != moved) {
            self.dry = Some((moved, self.c.liveness().err().map(Arc::new)));
        }
        self.dry.as_ref().and_then(|(_, stuck)| stuck.clone())
    }

    /// The live check: [`Promised::check`] of the device against what it
    /// promises now, holding no page to its place, and, with no write in
    /// flight, every page the ledger says must be unmapped is. Returns how
    /// many acknowledged pages the device keeps.
    pub fn check_promises(&self) -> Result<u64, String> {
        let lost = self.c.lost_data().collect();
        let kept = Promised { mapped: self.ledger.must_be_mapped(), lost, live: vec![] }.check(&self.c)?;
        if self.ledger.inflight.is_empty() {
            for lpn in self.ledger.must_be_unmapped(self.c.logical_pages()) {
                if let Some(ppn) = self.c.peek_mapping(lpn) {
                    return Err(format!("lpn {lpn}, trimmed or never written, maps to ppn {ppn}"));
                }
            }
        }
        Ok(kept)
    }

    /// What the device has promised now, for [`Promised::check`] once
    /// [`Driver::power_cut`] has cut it.
    pub fn promised(&self) -> Promised {
        let lost: BTreeSet<Lpn> = self.c.lost_data().collect();
        let writing: BTreeSet<Lpn> = self.ledger.inflight.values().copied().collect();
        let live = (0..self.c.logical_pages())
            .filter(|lpn| !writing.contains(lpn) && !lost.contains(lpn) && !self.c.is_buffered(*lpn))
            .filter_map(|lpn| Some((lpn, self.c.peek_mapping(lpn)?)))
            .collect();
        Promised { mapped: self.ledger.must_be_mapped(), lost, live }
    }

    /// Pull the plug at `now`: the device loses the flash operations in
    /// flight, and the host everything else. Returns the dead medium for
    /// [`Controller::remount`].
    pub fn power_cut(self) -> CrashImage {
        self.c.power_cut(self.now)
    }

    /// Submit `reqs` in windows of `qd`, running the agenda dry between
    /// windows (a bounded device queue, approximately). Every window is
    /// submitted; `Err` is the first window that stopped with work left.
    pub fn submit_windowed(&mut self, reqs: &[(RequestKind, Lpn)], qd: usize) -> Result<(), Stuck> {
        let mut ran = Ok(());
        for window in reqs.chunks(qd) {
            for &(kind, lpn) in window {
                self.submit(kind, lpn);
            }
            ran = ran.and(self.run());
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(id: RequestId, lpn: Lpn) -> SsdRequest {
        SsdRequest { id, kind: RequestKind::Write, lpn, tags: IoTags::none() }
    }

    fn trim(id: RequestId, lpn: Lpn) -> SsdRequest {
        SsdRequest { id, kind: RequestKind::Trim, lpn, tags: IoTags::none() }
    }

    /// An acknowledgment; the ledger reads no instant.
    fn ack(id: RequestId) -> Completion {
        Completion { id, at: SimTime::ZERO }
    }

    #[test]
    fn a_trim_completes_inside_submit_and_only_run_hands_it_out() {
        let mut d = Driver::tiny(ControllerConfig::default());
        let id = d.submit(RequestKind::Trim, 3);
        assert!(d.step().is_none(), "a trim schedules nothing");
        assert!(d.done.is_empty());
        d.run().unwrap();
        assert_eq!(d.done, [Completion { id, at: SimTime::ZERO }]);
    }

    #[test]
    fn ids_count_from_zero_in_submit_order() {
        let mut d = Driver::tiny(ControllerConfig::default());
        let kinds = [RequestKind::Write, RequestKind::Read, RequestKind::Trim, RequestKind::Write];
        let ids: Vec<_> = kinds.iter().map(|&k| d.submit(k, 5)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(d.submit_tagged(RequestKind::Read, 6, IoTags::none().with_priority(0)), 4);
        d.run().unwrap();
        let mut done: Vec<_> = d.done.iter().map(|c| c.id).collect();
        done.sort_unstable();
        assert_eq!(done, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn step_n_spends_one_unit_per_agenda_instant() {
        let burst = |d: &mut Driver| {
            for lpn in 0..24 {
                d.submit(RequestKind::Write, lpn);
            }
        };
        let mut reference = Driver::tiny(ControllerConfig::default());
        burst(&mut reference);
        let mut instants = Vec::new();
        while reference.step().is_some() {
            instants.push(reference.now);
        }
        assert!(instants.len() > 10 && instants.windows(2).all(|w| w[0] < w[1]));

        let k = 7;
        let mut d = Driver::tiny(ControllerConfig::default());
        burst(&mut d);
        assert_eq!(d.step_n(k), 0);
        assert_eq!(d.now, instants[k as usize - 1]);
        assert_eq!(d.c.next_event_time(), Some(instants[k as usize]));
        assert_eq!(d.step_n(u64::MAX), u64::MAX - (instants.len() as u64 - k));
        assert_eq!(d.now, *instants.last().unwrap());
        assert_eq!(d.done, reference.done);
        assert_eq!(d.step_n(5), 5, "a dry agenda spends nothing");
    }

    #[test]
    fn a_host_that_never_collects_breakdowns_holds_one_advance_of_them() {
        let mut cfg = ControllerConfig::default();
        cfg.obs.span_capacity = 64;
        let mut d = Driver::tiny(cfg);
        let n = d.c.logical_pages();
        for burst in 0..1_250 {
            for i in 0..8 {
                d.submit(RequestKind::Write, (burst * 8 + i) * 7 % n);
            }
            while d.step().is_some() {
                // Nobody collects anything: each acknowledged write was
                // folded into the one breakdown of its kind as it closed.
                let o = d.c.obs().unwrap();
                let writes = o.stage_breakdown(None, "AppWrite").map_or(0, |b| b.count());
                assert_eq!(writes, d.done.len() as u64);
            }
        }
        assert_eq!(d.done.len(), 10_000);
        assert!(d.c.is_quiescent());
        // Ids are dense: the next one counts the spans opened so far,
        // and at quiescence all of them have closed.
        let now = d.now;
        let o = d.c.obs_mut().unwrap();
        assert_eq!(o.open_count(), 0);
        let opened = o.open("probe", None, now) - 1;
        assert!(opened > 10_000, "relocations and erases open spans too");
        assert_eq!(o.closed_count() as u64 + o.dropped(), opened);
        assert_eq!(o.closed_count(), 64);
    }

    #[test]
    fn a_full_span_ring_keeps_the_slowest_reads_of_the_run() {
        // A fill; 1,100 reads alone, so reads have a threshold before
        // anything slows them; then reads with a 5 % trickle of overwrites
        // of 64 hot pages: now and then an erase holds up the reads queued
        // on its LUN.
        let run = |capacity: usize| {
            let mut cfg = ControllerConfig::default();
            cfg.obs.span_capacity = capacity;
            let mut d = Driver::tiny(cfg);
            let n = d.c.logical_pages();
            let mut rng = eagletree_core::SimRng::new(28);
            let fill = (0..n).map(|lpn| (RequestKind::Write, lpn));
            let calm: Vec<_> = (0..1_100).map(|_| (RequestKind::Read, rng.gen_range(n))).collect();
            let mixed: Vec<_> = (0..10_000)
                .map(|_| match rng.gen_bool(0.05) {
                    true => (RequestKind::Write, rng.gen_range(64)),
                    false => (RequestKind::Read, rng.gen_range(n)),
                })
                .collect();
            let ops: Vec<_> = fill.chain(calm).chain(mixed).collect();
            d.submit_windowed(&ops, 16).unwrap();
            d
        };
        let reference = run(1 << 20);
        let all = reference.c.obs().unwrap();
        assert_eq!(all.dropped(), 0, "the reference ring keeps every span");
        let mut reads: Vec<_> = all.spans().filter(|s| s.kind == "AppRead").collect();
        reads.sort_by_key(|s| (std::cmp::Reverse(s.end.since(s.start)), s.id));
        let slowest: Vec<u64> = reads[..10].iter().map(|s| s.id).collect();
        // A ring of the most recent 256 spans would lose some of them.
        let ids: Vec<u64> = all.spans().map(|s| s.id).collect();
        assert!(slowest.iter().any(|id| !ids[ids.len() - 256..].contains(id)));

        let d = run(256);
        let o = d.c.obs().unwrap();
        assert_eq!(o.closed_count() as u64 + o.dropped(), ids.len() as u64);
        assert!(ids.len() >= 50 * 256);
        let kept: Vec<u64> = o.spans().map(|s| s.id).collect();
        for id in slowest {
            assert!(kept.contains(&id), "read #{id}, among the 10 slowest, was not retained");
        }
    }

    #[test]
    fn what_the_ledger_saw_last_binds_a_page() {
        let mut l = Ledger::default();
        // lpn 1: write acked, then trimmed.
        l.submitted(&write(0, 1));
        l.completed(&ack(0));
        l.submitted(&trim(1, 1));
        // lpn 2: trimmed, then a write submitted and acked.
        l.submitted(&trim(2, 2));
        l.submitted(&write(3, 2));
        l.completed(&ack(3));
        // lpn 3: write acked, then trimmed.
        l.submitted(&write(4, 3));
        l.completed(&ack(4));
        l.submitted(&trim(5, 3));
        // lpn 5: a write in flight across a trim, acked after it.
        l.submitted(&write(6, 5));
        l.submitted(&trim(7, 5));
        l.completed(&ack(6));
        // lpn 4: only read; lpn 0: never touched.
        l.completed(&ack(8));
        assert_eq!(l.must_be_mapped(), [2]);
        assert_eq!(l.must_be_unmapped(6), [0, 1, 3, 4]);
    }

    #[test]
    fn the_driver_keeps_its_ledger() {
        let mut d = Driver::tiny(ControllerConfig::default());
        let writes = [1, 2, 4].map(|lpn| (RequestKind::Write, lpn));
        d.submit_windowed(&writes, 1).unwrap();
        d.submit(RequestKind::Trim, 2);
        // Submitted at the very instant the write of lpn 4 was acknowledged.
        d.submit(RequestKind::Trim, 4);
        d.submit(RequestKind::Write, 3);
        assert_eq!(d.ledger.must_be_mapped(), [1], "lpn 3 is not acknowledged yet");
        d.run().unwrap();
        assert_eq!(d.ledger.must_be_mapped(), [1, 3]);
        let unmapped = d.ledger.must_be_unmapped(d.c.logical_pages());
        // lpn 4's trim came after its write's acknowledgment.
        assert_eq!(unmapped[..4], [0, 2, 4, 5]);
        assert_eq!(d.check_promises(), Ok(2));
    }

    #[test]
    fn the_live_check_waives_the_unmapped_test_while_a_write_is_in_flight() {
        // A buffered write acknowledges inside `submit`, and the ledger
        // sees it at the next advance; no program runs before then.
        let cfg = ControllerConfig { write_buffer_pages: 8, ..ControllerConfig::default() };
        let mut d = Driver::tiny(cfg);
        d.submit(RequestKind::Write, 9);
        assert!(d.c.is_buffered(9) && d.next_wake().is_none(), "nothing flushes yet");
        assert_eq!(d.check_promises(), Ok(0), "lpn 9 may be mapped at any instant");
        d.advance_to(d.now);
        assert_eq!(d.check_promises(), Ok(1), "kept in the buffer");
    }

    #[test]
    fn the_cut_check_sees_a_lost_write_and_a_moved_page() {
        let written = |order: [Lpn; 4]| {
            let mut d = Driver::tiny(ControllerConfig::default());
            d.submit_windowed(&order.map(|lpn| (RequestKind::Write, lpn)), 1).unwrap();
            d
        };
        let d = written([0, 1, 2, 3]);
        let promised = d.promised();
        assert_eq!(promised.check(&d.c), Ok(4));
        let fresh = Driver::tiny(ControllerConfig::default());
        let lost = promised.check(&fresh.c).unwrap_err();
        assert!(lost.starts_with("acknowledged write of lpn 0 lost"), "{lost}");
        // The same pages, written in another order, sit elsewhere.
        let moved = promised.check(&written([3, 2, 1, 0]).c);
        let said = moved.as_ref().is_err_and(|e| e.starts_with("lpn 0 moved from ppn"));
        assert!(said, "a page that moved passes: {moved:?}");
    }

    #[test]
    fn a_write_the_lost_data_ledger_names_may_be_gone_after_a_cut() {
        // Every read is uncorrectable, the OOB reads of a remount too.
        let cfg = ControllerConfig {
            fault: Some(eagletree_flash::FaultConfig {
                raw_bits_base: 1e4,
                ..eagletree_flash::FaultConfig::default()
            }),
            ..ControllerConfig::default()
        };
        let mut d = Driver::tiny(cfg.clone());
        d.submit(RequestKind::Write, 5);
        d.run().unwrap();
        d.submit(RequestKind::Read, 5);
        d.run().unwrap();
        assert_eq!(d.c.lost_data().collect::<Vec<_>>(), [5]);
        assert_eq!(d.check_promises(), Ok(1), "a ledgered page may still be mapped");
        let promised = d.promised();
        let image = d.power_cut();
        let (c2, _) = Controller::remount(image, cfg, crate::RecoveryMode::FullScan).unwrap();
        assert!(c2.peek_mapping(5).is_none(), "its OOB is unreadable too");
        assert_eq!(promised.check(&c2), Ok(0));
    }
}
