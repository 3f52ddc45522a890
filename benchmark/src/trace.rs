//! The traced pass: spans around the calls into each layer, the
//! controller replay drive, and the isolated unit drives. All timing
//! lives here and in `stack.rs`; nothing inside the simulator is
//! instrumented.

use std::hint::black_box;
use std::time::Instant;

use eagletree_controller::{Controller, IoTags, SsdRequest};
use eagletree_core::{EventQueue, SimDuration, SimRng, SimTime};
use eagletree_flash::{FlashArray, FlashCommand, PhysicalAddr};
use eagletree_os::OsIo;

use crate::calib::Clock;
use crate::json::Json;
use crate::spec::Spec;
use crate::stack::{EndState, StageLog};

/// Spans kept in memory until the run ends. A span's parent is the span
/// that was open when it began.
pub struct Spans {
    origin: Instant,
    spans: Vec<(String, u64, u64, Option<usize>)>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .push((name.to_string(), now, now, self.open.last().copied()));
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].2 = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `{"workload", "spans": [{name, start_ns, end_ns, parent}], "calls"}`;
    /// `calls` carries the per-call-class totals (too many calls to keep a
    /// span each): `[{name, calls, total_ns}]`.
    pub fn to_json(&self, workload: &str, calls: &[(&str, u64, u64)]) -> Json {
        let spans = self.spans.iter().map(|(name, start, end, parent)| {
            Json::obj([
                ("name", Json::Str(name.clone())),
                ("start_ns", Json::Num(*start as f64)),
                ("end_ns", Json::Num(*end as f64)),
                ("parent", parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ])
        });
        let calls = calls.iter().map(|(name, n, ns)| {
            Json::obj([
                ("name", Json::Str(name.to_string())),
                ("calls", Json::Num(*n as f64)),
                ("total_ns", Json::Num(*ns as f64)),
            ])
        });
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("spans", Json::Arr(spans.collect())),
            ("calls", Json::Arr(calls.collect())),
        ])
    }
}

/// Calls and calibrated host seconds (per segment) of one controller
/// entry point.
#[derive(Default, Clone)]
pub struct CallClass {
    pub calls: u64,
    pub seg_s: Vec<f64>,
    /// ns of the open segment.
    open_ns: u64,
}

impl CallClass {
    fn time<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.open_ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

/// ns a [`CallClass`] (or the `Timed` decorator, which times the same way)
/// records for a call that does nothing: the clock reads' own cost, to be
/// taken off every timed call.
pub fn timer_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let mut probe = CallClass::default();
    let mut clock = Clock::start();
    for _ in 0..CALLS {
        probe.time(true, || black_box(()));
    }
    // Only the part of a clock read that lands between the two reads ends
    // up inside a measurement; that is what `open_ns` holds.
    probe.open_ns as f64 / CALLS as f64 * clock.scale()
}

/// Requests per replay segment. The request stream is fixed, so segment
/// `k` is the same work in every replay.
const REPLAY_SEGMENT: usize = 2048;

#[derive(Default)]
pub struct Replay {
    pub submit: CallClass,
    pub advance: CallClass,
    pub next_event: CallClass,
    /// Requests completed over all stages.
    pub completions: u64,
    /// Allocation calls during the measured stage.
    pub allocs: u64,
    pub end_state: Option<EndState>,
}

impl Replay {
    fn close_segment(&mut self, scale: f64) {
        for c in [&mut self.submit, &mut self.advance, &mut self.next_event] {
            c.seg_s
                .push(std::mem::take(&mut c.open_ns) as f64 / 1e9 * scale);
        }
    }
}

/// Regenerate every thread's IO stream and pair it with the recorded
/// dispatch instants: the per-stage request lists, in dispatch order.
/// `None` when some IO never completed.
pub fn request_streams(stages: &[StageLog]) -> Option<Vec<Vec<(u64, OsIo)>>> {
    let mut out = Vec::new();
    for stage in stages {
        let mut reqs: Vec<(u64, u64, usize, OsIo)> = Vec::new();
        for (i, th) in stage.threads.iter().enumerate() {
            let stream = th.spec.stream(th.pages);
            if stream.len() != th.times.len() {
                return None; // some IO never completed: nothing to replay
            }
            for (io, &(dispatched, enqueued)) in stream.into_iter().zip(&th.times) {
                reqs.push((
                    dispatched,
                    enqueued,
                    i,
                    OsIo {
                        lpn: th.base + io.lpn,
                        ..io
                    },
                ));
            }
        }
        // Dispatch order across threads. Within a thread the sort is
        // stable, so generation order survives. IOs of different threads
        // dispatched at the same instant fall back to enqueue order, which
        // is what a flat FIFO does; WFQ may order such ties differently.
        reqs.sort_by_key(|&(dispatched, enqueued, thread, _)| (dispatched, enqueued, thread));
        out.push(reqs.into_iter().map(|(at, _, _, io)| (at, io)).collect());
    }
    Some(out)
}

/// Host ns per generated IO: the measured threads' `IoGen::next_io`
/// loops, outside the stack.
pub fn gen_ns_per_io(stage: &StageLog) -> f64 {
    let (ios, ns) = calibrated_ns(|| {
        stage
            .threads
            .iter()
            .map(|th| black_box(th.spec.stream(th.pages)).len())
            .sum::<usize>()
    });
    ns / ios.max(1) as f64
}

/// Run a unit drive short enough to be one segment; calibrated ns it took.
fn calibrated_ns<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let mut clock = Clock::start();
    let t = Instant::now();
    let out = work();
    let ns = t.elapsed().as_nanos() as f64;
    (out, ns * clock.scale())
}

/// A controller under direct drive, with one timer per entry point.
struct Driver {
    ctrl: Controller,
    r: Replay,
    now: SimTime,
    next_id: u64,
    timed: bool,
}

impl Driver {
    /// `Os::pump`: hand over every request dispatched at `now`, then
    /// collect instant completions, until nothing more completes.
    fn pump(&mut self, reqs: &[(u64, OsIo)], next_req: &mut usize) {
        loop {
            while let Some(&(_, io)) = reqs.get(*next_req).filter(|r| r.0 <= self.now.as_nanos()) {
                let req = SsdRequest {
                    id: self.next_id,
                    kind: io.kind,
                    lpn: io.lpn,
                    tags: IoTags::none(),
                };
                let (ctrl, now) = (&mut self.ctrl, self.now);
                self.r.submit.time(self.timed, || ctrl.submit(req, now));
                self.next_id += 1;
                *next_req += 1;
            }
            if self.advance() == 0 {
                return;
            }
        }
    }

    /// `advance(now)`; returns how many requests completed.
    fn advance(&mut self) -> usize {
        let (ctrl, now) = (&mut self.ctrl, self.now);
        let done = self.r.advance.time(self.timed, || ctrl.advance(now));
        for c in &done {
            // The OS collects each finished span's stage breakdown.
            if let Some(o) = self.ctrl.obs_mut() {
                o.take_finished(c.id);
            }
        }
        self.r.completions += done.len() as u64;
        done.len()
    }
}

/// Drive a fresh controller directly through `submit` / `advance` /
/// `next_event_time` with the recorded request streams, in the OS main
/// loop's call pattern: pump, then repeatedly advance to the next wake-up
/// and pump again. Only the last stage is timed.
pub fn replay(spec: &Spec, stages: &[Vec<(u64, OsIo)>], spans: &mut Spans) -> Replay {
    let ctrl = Controller::new(
        spec.setup.geometry,
        spec.setup.timing,
        spec.setup.ctrl.clone(),
    )
    .expect("the full-stack run built this configuration");
    let mut d = Driver {
        ctrl,
        r: Replay::default(),
        now: SimTime::ZERO,
        next_id: 0,
        timed: false,
    };
    for (s, reqs) in stages.iter().enumerate() {
        d.timed = s + 1 == stages.len();
        let span = spans.begin(if d.timed {
            "replay.measured"
        } else {
            "replay.setup"
        });
        let allocs0 = crate::alloc::totals().0;
        let mut clock = Clock::start();
        let mut next_req = 0;
        d.pump(reqs, &mut next_req);
        loop {
            if d.timed && next_req / REPLAY_SEGMENT > d.r.submit.seg_s.len() {
                d.r.close_segment(clock.scale());
            }
            let ctrl = &d.ctrl;
            let wake = d.r.next_event.time(d.timed, || ctrl.next_event_time());
            // A faithful replay finds every request due exactly at a
            // controller wake-up; stepping to an earlier due request keeps
            // a diverged one moving so the divergence can be reported.
            let due = reqs
                .get(next_req)
                .map(|&(at, _)| SimTime::from_nanos(at).max(d.now));
            d.now = match (wake, due) {
                (Some(w), Some(t)) => w.min(t),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => break,
            };
            d.advance();
            d.pump(reqs, &mut next_req);
        }
        if d.timed {
            d.r.close_segment(clock.scale());
            d.r.allocs = crate::alloc::totals().0 - allocs0;
        }
        spans.end(span);
    }
    d.r.end_state = Some(EndState::of(&d.ctrl));
    d.r
}

/// Host ns per event-queue operation: the hold model (every pop schedules
/// a successor) at one pending event per LUN, on the backend the stack is
/// configured with, with flash-latency-sized delays.
pub fn queue_ns_per_op(spec: &Spec) -> f64 {
    const POPS: u64 = 200_000;
    let g = spec.setup.geometry;
    let t = spec.setup.timing;
    let delays = [t.read_lun_time(), t.t_xfer, t.t_prog, t.erase_lun_time()];
    let mut q: EventQueue<u64> = EventQueue::with_kind(spec.setup.ctrl.queue);
    let mut rng = SimRng::new(0xCA1E);
    for i in 0..g.total_luns() as u64 {
        q.schedule(SimTime::ZERO + delays[(i % 4) as usize], i);
    }
    let ((), ns) = calibrated_ns(|| {
        let mut acc = 0u64;
        for i in 0..POPS {
            let e = q.pop().expect("hold model keeps the queue full");
            acc = acc.wrapping_add(e.payload);
            let jitter = SimDuration::from_nanos(rng.gen_range(1024));
            q.schedule(e.time + delays[rng.gen_range(4) as usize] + jitter, i);
        }
        black_box(acc);
    });
    ns / (2 * POPS) as f64
}

/// Host ns per flash command: `FlashArray::issue` on one LUN with the
/// run's mix of reads (array read + transfer), host programs and
/// copy-backs, in legal NAND order — fill a block page by page from its
/// neighbour, invalidate and erase the neighbour, swap. `mix` is
/// `[reads, transfers, programs, erases, copybacks]` of the measured phase.
pub fn flash_ns_per_cmd(spec: &Spec, mix: [u64; 5]) -> f64 {
    const CMDS: u64 = 200_000;
    let g = spec.setup.geometry;
    let mut a = FlashArray::new(g, spec.setup.timing);
    let page = |block: u32, page: u32| PhysicalAddr {
        channel: 0,
        lun: 0,
        plane: 0,
        block,
        page,
    };
    let mut now = SimTime::ZERO;
    let issue = |a: &mut FlashArray, cmd: FlashCommand, now: &mut SimTime| {
        let out = a.issue(cmd, *now).expect("legal NAND order");
        *now = out.lun_free_at.max(out.channel_free_at);
    };
    for p in 0..g.pages_per_block {
        issue(&mut a, FlashCommand::Program(page(0, p)), &mut now);
    }
    let writes = (mix[2] + mix[4]).max(1) as f64;
    let (copy_share, reads_per_write) = (mix[4] as f64 / writes, mix[0] as f64 / writes);
    let (mut src, mut dst) = (0u32, 1u32);
    let (mut copy_debt, mut read_debt) = (0.0, 0.0);
    let mut cmds = 0u64;
    let ((), ns) = calibrated_ns(|| {
        while cmds < CMDS {
            for p in 0..g.pages_per_block {
                copy_debt += copy_share;
                if copy_debt >= 1.0 {
                    copy_debt -= 1.0;
                    issue(
                        &mut a,
                        FlashCommand::CopyBack {
                            from: page(src, p),
                            to: page(dst, p),
                        },
                        &mut now,
                    );
                } else {
                    issue(&mut a, FlashCommand::Program(page(dst, p)), &mut now);
                }
                cmds += 1;
                read_debt += reads_per_write;
                while read_debt >= 1.0 {
                    read_debt -= 1.0;
                    issue(&mut a, FlashCommand::ReadStart(page(src, p)), &mut now);
                    issue(&mut a, FlashCommand::TransferOut(page(src, p)), &mut now);
                    cmds += 2;
                }
            }
            for p in 0..g.pages_per_block {
                a.invalidate(page(src, p));
            }
            issue(
                &mut a,
                FlashCommand::Erase(page(src, 0).block_addr()),
                &mut now,
            );
            cmds += 1;
            std::mem::swap(&mut src, &mut dst);
        }
    });
    black_box(now);
    ns / cmds as f64
}
