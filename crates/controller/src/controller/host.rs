//! The host IO path: a request from `submit` to its completion.
//!
//! Owns [`HostIo`] — the in-flight application requests, the battery-
//! backed write buffer with its background-flush count, the hot-data
//! detector that classifies host writes into streams, and the completions
//! waiting for the next [`Controller::advance`]. Reads and unbuffered
//! writes resolve their mapping here (parking on a translation fetch when
//! DFTL needs one) and enter the pending set as the request's first flash
//! op; trims, buffered writes and buffer read hits complete on the spot.

use eagletree_core::{IdTable, SimTime, NO_SPAN};
use eagletree_flash::{Geometry, MemoryKind, MemoryManager, OobTag};

use super::dispatch::{HostWrite, PendKind, WriteWhat};
use super::mapio::Waiter;
use super::Controller;
use crate::alloc::Stream;
use crate::buffer::WriteBuffer;
use crate::config::{ControllerConfig, TemperatureMode, WriteAllocPolicy};
use crate::ftl::MapLookup;
use crate::temperature::MultiBloomDetector;
use crate::types::{
    Completion, IoTags, Lpn, OpClass, Ppn, RequestId, RequestKind, SsdRequest, Temperature,
};

struct AppIo {
    req: SsdRequest,
    pinned: bool,
    /// The request's lifecycle span ([`NO_SPAN`] with obs off).
    span: u64,
}

pub(super) struct HostIo {
    /// The requests in flight, by id: every host hands ids out in
    /// increasing order, and [`Controller::submit`] holds it to that.
    app: IdTable<AppIo>,
    pub(super) buffer: Option<WriteBuffer>,
    flushes_inflight: u32,
    detector: MultiBloomDetector,
    pub(super) completions: Vec<Completion>,
}

impl HostIo {
    /// Reserve the write buffer's battery-backed RAM (when configured) and
    /// re-install `buffered` — the acknowledged-but-unflushed writes a
    /// crash image's battery held (none on a fresh device), as far as they
    /// still fall inside the exported `logical_pages`.
    pub(super) fn new(
        cfg: &ControllerConfig,
        geometry: &Geometry,
        logical_pages: u64,
        mem: &mut MemoryManager,
        buffered: Vec<Lpn>,
    ) -> Result<Self, String> {
        let mut buffer = if cfg.write_buffer_pages > 0 {
            mem.reserve(
                MemoryKind::BatteryBackedRam,
                "write-buffer",
                cfg.write_buffer_pages * geometry.page_size as u64,
            )?;
            Some(WriteBuffer::new(cfg.write_buffer_pages as usize, logical_pages))
        } else {
            None
        };
        if let Some(b) = &mut buffer {
            for lpn in buffered {
                if lpn < logical_pages {
                    b.write(lpn);
                }
            }
        }
        Ok(HostIo {
            app: IdTable::default(),
            buffer,
            flushes_inflight: 0,
            detector: MultiBloomDetector::default_detector(),
            completions: Vec::new(),
        })
    }

    pub(super) fn is_idle(&self) -> bool {
        self.app.is_empty()
    }

    fn io(&self, id: RequestId) -> &AppIo {
        self.app.get(id).expect("request in flight")
    }

    /// The logical page in-flight request `id` addresses.
    pub(super) fn lpn_of(&self, id: RequestId) -> Lpn {
        self.io(id).req.lpn
    }

    /// The lifecycle span of in-flight request `id`.
    pub(super) fn span_of(&self, id: RequestId) -> u64 {
        self.io(id).span
    }
}

impl Controller {
    /// Submit a request. Completions (possibly instant) are collected by
    /// the next [`Controller::advance`] call.
    pub fn submit(&mut self, req: SsdRequest, now: SimTime) {
        self.submit_spanned(req, NO_SPAN, now);
    }

    /// [`Controller::submit`] for a host that opened the request's
    /// lifecycle span itself (the OS layer does, at enqueue time, so the
    /// span captures queue wait): the device continues `span`, an open
    /// span of [`Controller::obs_mut`]'s collector, and closes it when it
    /// acknowledges the request. With [`NO_SPAN`] — a controller-only
    /// driver — a span covering the device portion is opened here.
    pub fn submit_spanned(&mut self, req: SsdRequest, span: u64, now: SimTime) {
        assert!(
            req.lpn < self.logical_pages,
            "lpn {} beyond logical capacity {}",
            req.lpn,
            self.logical_pages
        );
        let span = match &mut self.obs {
            Some(o) if span == NO_SPAN => o.open(req.kind.name(), None, now),
            Some(_) => span,
            None => NO_SPAN,
        };
        match req.kind {
            RequestKind::Trim => {
                if let Some(b) = &mut self.host.buffer {
                    b.remove(req.lpn);
                }
                if let Some(old) = self.ftl.trim(req.lpn) {
                    self.journal_trim(req.lpn, old);
                    self.invalidate_ppn(old);
                }
                self.stats.trims_completed += 1;
                self.ack(req.id, span, now);
            }
            RequestKind::Write if self.host.buffer.is_some() => {
                // Battery-backed buffering: durable on arrival.
                self.host.detector.record_write(req.lpn);
                self.host.buffer.as_mut().unwrap().write(req.lpn);
                self.stats.app_writes_completed += 1;
                self.ack(req.id, span, now);
                self.maybe_flush(now);
            }
            RequestKind::Read if self.is_buffered(req.lpn) => {
                // Served from the buffer: no flash IO.
                self.host.buffer.as_mut().unwrap().note_read_hit();
                self.stats.app_reads_completed += 1;
                self.ack(req.id, span, now);
            }
            RequestKind::Read | RequestKind::Write => {
                if req.kind == RequestKind::Write {
                    self.host.detector.record_write(req.lpn);
                }
                // Panics on an id that does not follow the last one.
                self.host.app.insert(
                    req.id,
                    AppIo {
                        req,
                        pinned: false,
                        span,
                    },
                );
                self.start_or_park(req.id, now);
            }
        }
        self.drain_ftl_writebacks(now);
        self.run_sched(now);
    }

    /// Resolve the mapping for an application IO and enqueue its first
    /// flash op, or park it on a translation fetch.
    pub(super) fn start_or_park(&mut self, id: RequestId, now: SimTime) {
        let SsdRequest { lpn, kind, tags, .. } = self.host.io(id).req;
        match self.ftl.lookup(lpn, true) {
            MapLookup::Ready(ppn) => {
                self.host.app.get_mut(id).expect("request in flight").pinned = true;
                match kind {
                    RequestKind::Read => {
                        if ppn.is_none() {
                            // Never written: zero-fill semantics, no flash IO.
                            self.complete_app(id, now);
                        } else {
                            self.enqueue(
                                OpClass::AppRead,
                                tags.priority,
                                now,
                                PendKind::AppRead { id, lpn },
                            );
                        }
                    }
                    RequestKind::Write => {
                        self.enqueue_host_write(HostWrite::App { id, lpn }, tags, now);
                    }
                    RequestKind::Trim => unreachable!("trims complete at submit"),
                }
            }
            MapLookup::NeedsFetch(tvpn) => {
                self.park_on_fetch(Waiter::Request(id), tvpn, now);
            }
        }
    }

    /// Kick background flushes while the buffer is at capacity.
    pub(super) fn maybe_flush(&mut self, now: SimTime) {
        let Some(b) = &mut self.host.buffer else { return };
        if !b.needs_flush() || self.host.flushes_inflight > 0 {
            return;
        }
        let candidates = b.next_flush_candidates();
        for (lpn, version) in candidates {
            self.start_flush(lpn, version, now);
        }
    }

    /// Resolve the mapping for a buffered page and enqueue its program.
    pub(super) fn start_flush(&mut self, lpn: Lpn, version: u64, now: SimTime) {
        match self.ftl.lookup(lpn, true) {
            MapLookup::Ready(_) => {
                self.host.flushes_inflight += 1;
                self.enqueue_host_write(HostWrite::Flush { lpn, version }, IoTags::none(), now);
            }
            MapLookup::NeedsFetch(tvpn) => {
                self.park_on_fetch(Waiter::Flush { lpn, version }, tvpn, now);
            }
        }
    }

    /// Queue the program of a host page. Under the hybrid mapping the
    /// log-block discipline binds the destination; streams and LUN
    /// policies do not apply. Otherwise the write joins its stream, bound
    /// to a LUN up front only for a striped application write.
    fn enqueue_host_write(&mut self, what: HostWrite, tags: IoTags, now: SimTime) {
        let kind = if self.is_hybrid() {
            PendKind::HybridWrite { what }
        } else {
            let lpn = what.lpn();
            let lun = match (what, self.cfg.write_alloc) {
                (HostWrite::App { .. }, WriteAllocPolicy::Striping) => {
                    Some(self.alloc.striped_lun(lpn))
                }
                _ => None,
            };
            PendKind::Write {
                lun,
                stream: self.stream_for(lpn, tags),
                what: WriteWhat::Host(what),
            }
        };
        self.enqueue(OpClass::AppWrite, tags.priority, now, kind);
    }

    /// The write stream for an application write: open-interface locality
    /// and temperature hints first, then the on-device detector.
    fn stream_for(&self, lpn: Lpn, tags: IoTags) -> Stream {
        if self.cfg.honor_locality {
            if let Some(g) = tags.locality_group {
                return Stream::Locality(g);
            }
        }
        let temp = match self.cfg.temperature {
            TemperatureMode::Off => return Stream::Hot,
            TemperatureMode::Detector => self.host.detector.classify(lpn),
            TemperatureMode::Hints => tags
                .temperature
                .unwrap_or_else(|| self.host.detector.classify(lpn)),
        };
        match temp {
            Temperature::Hot => Stream::Hot,
            Temperature::Cold => Stream::Cold,
        }
    }

    /// Acknowledge request `id` to the host at `now`, ending its `span`:
    /// the one place a completion is produced (instant and flash-backed
    /// alike), and so the one place a host span closes.
    fn ack(&mut self, id: RequestId, span: u64, now: SimTime) {
        self.host.completions.push(Completion { id, at: now });
        if let Some(o) = &mut self.obs {
            let closed = o.close_host(span, now);
            debug_assert!(closed, "request {id} was acknowledged without an open span");
        }
    }

    pub(super) fn complete_app(&mut self, id: RequestId, now: SimTime) {
        let io = self.host.app.remove(id).expect("completing unknown request");
        if io.pinned {
            self.ftl.unpin(io.req.lpn);
        }
        match io.req.kind {
            RequestKind::Read => self.stats.app_reads_completed += 1,
            RequestKind::Write => self.stats.app_writes_completed += 1,
            RequestKind::Trim => {}
        }
        self.ack(id, io.span, now);
    }

    /// An application write's program landed at `ppn`: commit the mapping,
    /// unless the copy lands behind a newer one ([`Self::drop_if_behind`]),
    /// and acknowledge.
    pub(super) fn app_write_done(&mut self, id: RequestId, lpn: Lpn, ppn: Ppn, now: SimTime) {
        let overtaken = self.landed(ppn);
        let tag = OobTag::Data { lpn };
        if overtaken.is_some_and(|seq| self.drop_if_behind(tag, ppn, seq, self.ftl.peek(lpn))) {
            if self.is_hybrid() {
                self.hybrid_mut().abort_append(ppn);
            }
        } else {
            if let Some(old) = self.ftl.update(lpn, ppn) {
                debug_assert_eq!(
                    self.content_at(old),
                    Some(OobTag::Data { lpn }),
                    "superseded page {old} does not hold lpn {lpn}"
                );
                self.invalidate_ppn(old);
            }
            self.drain_ftl_writebacks(now);
        }
        self.complete_app(id, now);
    }

    /// A background flush's program landed at `ppn`: commit it if the
    /// buffered `version` is still current, discard the copy otherwise.
    pub(super) fn flush_done(&mut self, lpn: Lpn, version: u64, ppn: Ppn, now: SimTime) {
        self.landed(ppn);
        self.ftl.unpin(lpn);
        self.host.flushes_inflight -= 1;
        let current = self
            .host
            .buffer
            .as_mut()
            .expect("flush without buffer")
            .flush_done(lpn, version);
        if current {
            let old = self.ftl.update(lpn, ppn);
            if let Some(old) = old {
                self.invalidate_ppn(old);
            }
            self.drain_ftl_writebacks(now);
        } else {
            // Re-dirtied or trimmed mid-flight: discard the copy.
            if self.is_hybrid() {
                self.hybrid_mut().abort_append(ppn);
            }
            self.invalidate_ppn(ppn);
        }
        self.maybe_flush(now);
    }
}
