//! Visual traces (§2.3): "massive visual traces showing exactly how every
//! IO was handled throughout the simulator components."
//!
//! Runs a fill → overwrite → read burst on a 2×2-LUN SSD with the span
//! collector enabled, prints per-op lifecycle spans (with their stage
//! breakdowns, causes and interference annotations), then the ASCII Gantt
//! chart of per-LUN span occupancy — the text-mode equivalent of the demo
//! GUI's trace pane. Watch application reads (r) and writes (w) interleave
//! with GC (G) and erases (E), and the "stalled-behind" annotations pin
//! host tail latency on the internal op that caused it. The same spans
//! export as Chrome-trace/Perfetto JSON via `Obs::to_perfetto` (see the
//! bench harness `--trace` flag for file output).
//!
//! ```sh
//! cargo run --release --example visual_trace
//! ```

use eagletree::prelude::*;

fn main() {
    let mut setup = Setup::tiny();
    setup.ctrl.obs.span_capacity = 100_000;
    setup.ctrl.gc.greediness = 2;
    setup.os.queue_depth = 16;
    let mut os = setup.build();

    // Fill a stripe, then overwrite it to provoke GC, then read it back.
    let fill = os.add_thread(Box::new(
        Pumped::new(SeqWriteGen::new(Region::new(0, 512), 512), 16, 1).named("fill"),
    ));
    let over = os.add_thread_after(
        Box::new(
            Pumped::new(RandWriteGen::new(Region::new(0, 512), 1_500), 16, 2).named("overwrite"),
        ),
        vec![fill],
    );
    let _read = os.add_thread_after(
        Box::new(Pumped::new(RandReadGen::new(Region::new(0, 512), 200), 8, 3).named("read")),
        vec![over],
    );
    os.run().expect("every thread finishes");

    let obs = os.obs().expect("observability enabled");
    println!(
        "captured {} spans ({} open; {} dropped: {} folded into per-kind latency histograms, {} evicted)\n",
        obs.closed_count(),
        obs.open_count(),
        obs.dropped(),
        obs.dropped() - obs.evicted(),
        obs.evicted()
    );

    println!("--- first 25 spans (stage-attributed lifecycles) ---");
    for line in obs.render_spans(25).lines() {
        println!("{line}");
    }

    println!("\n--- interference: host ops stalled behind GC / internal work ---");
    let mut shown = 0;
    for s in obs.spans() {
        if let Some((sid, kind)) = s.stalled_behind {
            println!(
                "{:>12}  #{:<6} {:<9} waited on {kind}#{sid} ({} total, {} pending)",
                s.start,
                s.id,
                s.kind,
                SimDuration::from_nanos(s.stages.total()),
                SimDuration::from_nanos(s.stages.get(Stage::SchedPending)),
            );
            shown += 1;
            if shown == 10 {
                break;
            }
        }
    }
    if shown == 0 {
        println!("(none this run)");
    }

    // Gantt of the first 2 ms and of a 2 ms window deep in the overwrite
    // phase (where GC activity shows up).
    let lanes = os.controller().obs_lane_names();
    let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
    println!("\n--- occupancy: first 2 ms (fill phase) ---");
    print!("{}", obs.render_gantt(ms(0), ms(2), 96, &lanes));
    let mid = os.now().as_nanos() / 2 / 1_000_000;
    println!("\n--- occupancy: 2 ms mid-run (overwrite + GC) ---");
    print!("{}", obs.render_gantt(ms(mid), ms(mid + 2), 96, &lanes));
    println!(
        "\nlegend: r=app-read w=app-write G=GC L=wear-level M=merge m=mapping E=erase S=scrub .=idle"
    );
}
