//! Microbenchmarks of the simulator's hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eagletree_controller::{Controller, ControllerConfig, IoTags, RequestKind, SsdRequest};
use eagletree_core::{EventQueue, QueueKind, SimDuration, SimRng, SimTime, Zipf};
use eagletree_flash::{FlashArray, FlashCommand, Geometry, PhysicalAddr, TimingSpec};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 4096), i);
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(e.payload);
            }
            black_box(acc)
        })
    });
}

/// The calendar backend against the binary-heap oracle at simulation
/// scale: 100k+ pending events in the classic hold model (every pop
/// schedules a replacement inside the horizon), where the heap pays
/// O(log n) per operation and the calendar stays amortized O(1).
fn bench_queue_backends_100k(c: &mut Criterion) {
    const PENDING: u64 = 100_000;
    const HORIZON: u64 = 1 << 24;
    for kind in [QueueKind::Heap, QueueKind::Calendar] {
        c.bench_function(&format!("queue_hold_100k_{kind}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_kind(kind);
                q.hint_horizon(SimDuration::from_nanos(HORIZON));
                let mut rng = SimRng::new(0xCA1E);
                for i in 0..PENDING {
                    q.schedule(SimTime::from_nanos(rng.gen_range(HORIZON)), i);
                }
                let mut acc = 0u64;
                for i in 0..2 * PENDING {
                    let e = q.pop().expect("hold model keeps the queue full");
                    acc = acc.wrapping_add(e.payload);
                    q.schedule(e.time + SimDuration::from_nanos(1 + rng.gen_range(HORIZON)), i);
                }
                black_box(acc)
            })
        });
    }
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = Zipf::new(100_000, 0.99);
    let mut rng = SimRng::new(42);
    c.bench_function("zipf_sample", |b| b.iter(|| black_box(zipf.sample(&mut rng))));
}

fn bench_flash_issue(c: &mut Criterion) {
    c.bench_function("flash_program_page_cycle", |b| {
        b.iter(|| {
            let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
            let mut now = SimTime::ZERO;
            for p in 0..16 {
                let addr = PhysicalAddr {
                    channel: 0,
                    lun: 0,
                    plane: 0,
                    block: 0,
                    page: p,
                };
                let out = a.issue(FlashCommand::Program(addr), now).unwrap();
                now = out.lun_free_at;
            }
            black_box(now)
        })
    });
}

fn bench_full_sim(c: &mut Criterion) {
    c.bench_function("controller_1k_random_writes", |b| {
        b.iter(|| {
            let mut ctrl = Controller::new(
                Geometry::tiny(),
                TimingSpec::slc(),
                ControllerConfig::default(),
            )
            .unwrap();
            let logical = ctrl.logical_pages();
            let mut rng = SimRng::new(7);
            let mut now = SimTime::ZERO;
            for id in 0..1000u64 {
                ctrl.submit(
                    SsdRequest {
                        id,
                        kind: RequestKind::Write,
                        lpn: rng.gen_range(logical),
                        tags: IoTags::none(),
                    },
                    now,
                );
                if id % 16 == 15 {
                    while let Some(t) = ctrl.next_event_time() {
                        now = t;
                        ctrl.advance(t);
                    }
                }
            }
            while let Some(t) = ctrl.next_event_time() {
                now = t;
                ctrl.advance(t);
            }
            black_box(now)
        })
    });
}

/// Dispatch cost vs queue depth: submit random writes in windows of `qd`
/// and drain. Pre-ready-queues this scaled quadratically in `qd`; now the
/// per-op cost must be flat.
fn bench_dispatch_qd(c: &mut Criterion) {
    for qd in [1u64, 64, 512] {
        c.bench_function(&format!("dispatch_random_writes_qd{qd}"), |b| {
            b.iter(|| {
                let mut ctrl = Controller::new(
                    Geometry::demo(),
                    TimingSpec::slc(),
                    ControllerConfig::default(),
                )
                .unwrap();
                let logical = ctrl.logical_pages();
                let mut rng = SimRng::new(0xD15B);
                let mut now = SimTime::ZERO;
                for id in 0..2048u64 {
                    ctrl.submit(
                        SsdRequest {
                            id,
                            kind: RequestKind::Write,
                            lpn: rng.gen_range(logical),
                            tags: IoTags::none(),
                        },
                        now,
                    );
                    if id % qd == qd - 1 {
                        while let Some(t) = ctrl.next_event_time() {
                            now = t;
                            ctrl.advance(t);
                        }
                    }
                }
                while let Some(t) = ctrl.next_event_time() {
                    now = t;
                    ctrl.advance(t);
                }
                black_box(now)
            })
        });
    }
}

/// Dispatch with a GC backlog: the repo benchmark's 4×4×128×64 device,
/// filled sequentially and aged with one logical capacity of random
/// overwrites (built once, on first use), then 4096 random overwrites per
/// iteration in a closed loop at queue depth 512. Reclaim keeps every live
/// page of every victim block queued as a relocation, which
/// `dispatch_random_writes_qd*` — a fresh device — never has.
fn bench_dispatch_aged(c: &mut Criterion) {
    const QD: usize = 512;
    const IOS: u64 = 4096;
    let geometry = Geometry {
        channels: 4,
        luns_per_channel: 4,
        planes_per_lun: 1,
        blocks_per_plane: 128,
        pages_per_block: 64,
        page_size: 4096,
    };
    let mut cfg = ControllerConfig::default();
    cfg.wl.static_enabled = false;
    // `window` writes in flight, each completion submitting the next.
    fn closed_loop(
        ctrl: &mut Controller,
        now: &mut SimTime,
        next_id: &mut u64,
        ios: u64,
        window: usize,
        mut lpn: impl FnMut() -> u64,
    ) {
        let (mut submitted, mut inflight) = (0u64, 0usize);
        loop {
            while inflight < window && submitted < ios {
                let req = SsdRequest {
                    id: *next_id,
                    kind: RequestKind::Write,
                    lpn: lpn(),
                    tags: IoTags::none(),
                };
                ctrl.submit(req, *now);
                *next_id += 1;
                submitted += 1;
                inflight += 1;
            }
            let Some(t) = ctrl.next_event_time() else { break };
            *now = t;
            inflight -= ctrl.advance(t).len();
        }
    }
    let mut aged = None;
    c.bench_function("dispatch_aged_gc_backlog", |b| {
        let (ctrl, now, next_id, rng) = aged.get_or_insert_with(|| {
            let mut ctrl = Controller::new(geometry, TimingSpec::slc(), cfg.clone()).unwrap();
            let logical = ctrl.logical_pages();
            let (mut now, mut next_id) = (SimTime::ZERO, 0u64);
            let mut seq = 0..logical;
            closed_loop(&mut ctrl, &mut now, &mut next_id, logical, 32, || seq.next().unwrap());
            let mut rng = SimRng::new(0xA6ED);
            closed_loop(&mut ctrl, &mut now, &mut next_id, logical, 1, || rng.gen_range(logical));
            (ctrl, now, next_id, rng)
        });
        let logical = ctrl.logical_pages();
        b.iter(|| {
            closed_loop(ctrl, now, next_id, IOS, QD, || rng.gen_range(logical));
            black_box(ctrl.stats().gc_moves)
        })
    });
}

/// GC-trigger-heavy steady state: fill the device, then overwrite so every
/// few writes force victim selection. Exercises the incremental victim
/// index rather than the dispatch loop (qd stays modest).
fn bench_gc_steady_state(c: &mut Criterion) {
    c.bench_function("gc_steady_state_overwrite", |b| {
        b.iter(|| {
            let mut ctrl = Controller::new(
                Geometry::tiny(),
                TimingSpec::slc(),
                ControllerConfig::default(),
            )
            .unwrap();
            let logical = ctrl.logical_pages();
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            let drain = |ctrl: &mut Controller, now: &mut SimTime| {
                while let Some(t) = ctrl.next_event_time() {
                    *now = t;
                    ctrl.advance(t);
                }
            };
            // Fill sequentially, then overwrite 2x the logical space.
            for lpn in 0..logical {
                ctrl.submit(
                    SsdRequest {
                        id,
                        kind: RequestKind::Write,
                        lpn,
                        tags: IoTags::none(),
                    },
                    now,
                );
                id += 1;
                if id.is_multiple_of(32) {
                    drain(&mut ctrl, &mut now);
                }
            }
            drain(&mut ctrl, &mut now);
            let mut rng = SimRng::new(0x6C57);
            for _ in 0..logical * 2 {
                ctrl.submit(
                    SsdRequest {
                        id,
                        kind: RequestKind::Write,
                        lpn: rng.gen_range(logical),
                        tags: IoTags::none(),
                    },
                    now,
                );
                id += 1;
                if id.is_multiple_of(32) {
                    drain(&mut ctrl, &mut now);
                }
            }
            drain(&mut ctrl, &mut now);
            black_box(ctrl.stats().gc_erases)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_queue_backends_100k,
    bench_zipf,
    bench_flash_issue,
    bench_full_sim,
    bench_dispatch_qd,
    bench_dispatch_aged,
    bench_gc_steady_state
);
criterion_main!(benches);
