//! The minimal host of a bare [`Controller`]: request ids, a clock, agenda
//! stepping and a ledger of what the device acknowledged. Every controller
//! test and the E22 crash sweep drive the device with this and nothing else.

use std::collections::BTreeMap;

use eagletree_core::SimTime;
use eagletree_flash::{Geometry, PageState, TimingSpec};

use crate::config::ControllerConfig;
use crate::controller::Controller;
use crate::types::{Completion, IoTags, Lpn, RequestId, RequestKind, SsdRequest};

/// What the host was promised, per logical page: the reference model the
/// property suites check a device against. The [`Driver`] maintains it
/// from what it submits and what comes back.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Completion instant of the last acknowledged write per lpn.
    write_ack: BTreeMap<Lpn, SimTime>,
    /// Instant of the last trim per lpn (a trim acks when submitted).
    trim_ack: BTreeMap<Lpn, SimTime>,
    /// Writes submitted and not yet acknowledged.
    inflight: BTreeMap<RequestId, Lpn>,
}

impl Ledger {
    fn submitted(&mut self, req: &SsdRequest, now: SimTime) {
        match req.kind {
            RequestKind::Write => {
                self.inflight.insert(req.id, req.lpn);
            }
            RequestKind::Trim => {
                self.trim_ack.insert(req.lpn, now);
            }
            RequestKind::Read => {}
        }
    }

    fn completed(&mut self, comp: &Completion) {
        if let Some(lpn) = self.inflight.remove(&comp.id) {
            let at = self.write_ack.entry(lpn).or_insert(comp.at);
            *at = (*at).max(comp.at);
        }
    }

    /// Logical pages with at least one acknowledged write, ascending.
    pub fn acked_writes(&self) -> impl Iterator<Item = Lpn> + '_ {
        self.write_ack.keys().copied()
    }

    /// Logical pages whose last acknowledgment was strictly a write: the
    /// device must map them, across a power cut too. A write ack and a
    /// trim at the same instant bind neither this set nor
    /// [`Ledger::must_be_unmapped`].
    pub fn must_be_mapped(&self) -> Vec<Lpn> {
        let acks = self.write_ack.iter();
        acks.filter(|&(lpn, w)| self.trim_ack.get(lpn).is_none_or(|t| w > t))
            .map(|(&lpn, _)| lpn)
            .collect()
    }

    /// Logical pages below `logical_pages` never write-acknowledged, or
    /// whose last acknowledgment was strictly a trim: a live device must
    /// not map them. Only meaningful with no write in flight and on a
    /// ledger never [`Ledger::clear`]ed.
    pub fn must_be_unmapped(&self, logical_pages: u64) -> Vec<Lpn> {
        assert!(self.inflight.is_empty(), "a write in flight may map its page at any instant");
        (0..logical_pages)
            .filter(|lpn| match (self.write_ack.get(lpn), self.trim_ack.get(lpn)) {
                (None, _) => true,
                (Some(w), Some(t)) => t > w,
                (Some(_), None) => false,
            })
            .collect()
    }

    /// Whether `lpn`'s data is there to read: mapped to a `Valid` page
    /// that no power cut tore.
    pub fn survives(c: &Controller, lpn: Lpn) -> bool {
        c.peek_mapping(lpn).is_some_and(|ppn| {
            let addr = c.array().geometry().page_at(ppn);
            c.array().page_state(addr) == PageState::Valid && !c.array().is_torn(addr)
        })
    }

    /// Forget every acknowledgment so far (writes still in flight stay
    /// known): what comes after is measured on its own.
    pub fn clear(&mut self) {
        self.write_ack.clear();
        self.trim_ack.clear();
    }
}

/// A controller with the least a host needs around it. Fields are public
/// and there is no `Drop`: a crash test takes the ledger and moves `c`
/// out with `c.power_cut(now)`.
///
/// ```
/// use eagletree_controller::{ControllerConfig, Driver, RequestKind};
///
/// let mut d = Driver::tiny(ControllerConfig::default());
/// d.submit(RequestKind::Write, 7);
/// d.run();
/// assert_eq!(d.ledger.must_be_mapped(), [7]);
/// assert!(d.c.peek_mapping(7).is_some());
/// ```
pub struct Driver {
    /// The device under test.
    pub c: Controller,
    /// The instant of the last agenda step; submissions happen at it.
    pub now: SimTime,
    /// Every completion handed out so far, in order.
    pub done: Vec<Completion>,
    /// What those completions (and the trims submitted) promised.
    pub ledger: Ledger,
    next_id: RequestId,
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
        let id = self.next_id;
        self.next_id += 1;
        let req = SsdRequest { id, kind, lpn, tags };
        self.ledger.submitted(&req, self.now);
        self.c.submit(req, self.now);
        id
    }

    /// Hand out what the device has completed up to `now`.
    fn collect(&mut self) -> &[Completion] {
        let from = self.done.len();
        self.done.extend(self.c.advance(self.now));
        for comp in &self.done[from..] {
            self.ledger.completed(comp);
        }
        &self.done[from..]
    }

    /// Process the next agenda instant and return its completions; `None`
    /// once the agenda is dry (requests that completed inside `submit`
    /// are then still to be handed out — [`Driver::run`] does).
    pub fn step(&mut self) -> Option<&[Completion]> {
        self.now = self.c.next_event_time()?;
        Some(self.collect())
    }

    /// Up to `budget` agenda instants; returns the budget left over, so
    /// `0` means the agenda may hold more.
    pub fn step_n(&mut self, mut budget: u64) -> u64 {
        while budget > 0 && self.step().is_some() {
            budget -= 1;
        }
        budget
    }

    /// Run the agenda dry and hand out every completion.
    pub fn run(&mut self) {
        while self.step().is_some() {}
        self.collect();
    }

    /// Submit `reqs` in windows of `qd`, running the agenda dry between
    /// windows (a bounded device queue, approximately).
    pub fn submit_windowed(&mut self, reqs: &[(RequestKind, Lpn)], qd: usize) {
        for window in reqs.chunks(qd) {
            for &(kind, lpn) in window {
                self.submit(kind, lpn);
            }
            self.run();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(id: RequestId, lpn: Lpn) -> SsdRequest {
        SsdRequest { id, kind: RequestKind::Write, lpn, tags: IoTags::none() }
    }

    fn trim(lpn: Lpn) -> SsdRequest {
        SsdRequest { id: 99, kind: RequestKind::Trim, lpn, tags: IoTags::none() }
    }

    fn us(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000)
    }

    #[test]
    fn a_trim_completes_inside_submit_and_only_run_hands_it_out() {
        let mut d = Driver::tiny(ControllerConfig::default());
        let id = d.submit(RequestKind::Trim, 3);
        assert!(d.step().is_none(), "a trim schedules nothing");
        assert!(d.done.is_empty());
        d.run();
        assert_eq!(d.done, [Completion { id, at: SimTime::ZERO }]);
    }

    #[test]
    fn ids_count_from_zero_in_submit_order() {
        let mut d = Driver::tiny(ControllerConfig::default());
        let kinds = [RequestKind::Write, RequestKind::Read, RequestKind::Trim, RequestKind::Write];
        let ids: Vec<_> = kinds.iter().map(|&k| d.submit(k, 5)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(d.submit_tagged(RequestKind::Read, 6, IoTags::none().with_priority(0)), 4);
        d.run();
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
            while let Some(done) = d.step().map(<[Completion]>::len) {
                // Nobody calls `take_finished`: what waits is what this
                // `advance` returned, however many went before.
                assert_eq!(d.c.obs().unwrap().uncollected(), done);
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
    fn the_later_acknowledgment_binds_and_a_tie_binds_neither() {
        let mut l = Ledger::default();
        // lpn 1: write acked at 10, trimmed at 10.
        l.submitted(&write(0, 1), us(0));
        l.completed(&Completion { id: 0, at: us(10) });
        l.submitted(&trim(1), us(10));
        // lpn 2: trimmed at 10, a write acked at 20.
        l.submitted(&trim(2), us(10));
        l.submitted(&write(1, 2), us(10));
        l.completed(&Completion { id: 1, at: us(20) });
        // lpn 3: write acked at 10, trimmed at 20.
        l.submitted(&write(2, 3), us(0));
        l.completed(&Completion { id: 2, at: us(10) });
        l.submitted(&trim(3), us(20));
        // lpn 4: only read; lpn 0: never touched.
        l.completed(&Completion { id: 7, at: us(20) });
        assert_eq!(l.acked_writes().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(l.must_be_mapped(), [2]);
        assert_eq!(l.must_be_unmapped(5), [0, 3, 4]);
    }

    #[test]
    fn clear_forgets_acknowledgments_but_not_writes_in_flight() {
        let mut l = Ledger::default();
        l.submitted(&write(0, 1), us(0));
        l.completed(&Completion { id: 0, at: us(10) });
        l.submitted(&trim(2), us(10));
        l.submitted(&write(1, 3), us(10));
        l.clear();
        assert_eq!(l.acked_writes().count(), 0);
        assert!(l.must_be_mapped().is_empty());
        l.completed(&Completion { id: 1, at: us(20) });
        assert_eq!(l.must_be_mapped(), [3]);
    }

    #[test]
    fn the_driver_keeps_its_ledger() {
        let mut d = Driver::tiny(ControllerConfig::default());
        let writes = [1, 2, 4].map(|lpn| (RequestKind::Write, lpn));
        d.submit_windowed(&writes, 1);
        d.submit(RequestKind::Trim, 2);
        // Submitted at the very instant the write of lpn 4 was acknowledged.
        d.submit(RequestKind::Trim, 4);
        d.submit(RequestKind::Write, 3);
        assert_eq!(d.ledger.must_be_mapped(), [1], "lpn 3 is not acknowledged yet");
        d.run();
        assert_eq!(d.ledger.must_be_mapped(), [1, 3]);
        let unmapped = d.ledger.must_be_unmapped(d.c.logical_pages());
        assert!(unmapped.contains(&0) && unmapped.contains(&2));
        assert!(!unmapped.contains(&1) && !unmapped.contains(&4));
        for lpn in 0..5 {
            assert_eq!(Ledger::survives(&d.c, lpn), lpn == 1 || lpn == 3, "lpn {lpn}");
        }
    }
}
