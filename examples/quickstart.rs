//! Quickstart: build a demo SSD, run a mixed workload, inspect every layer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use eagletree::prelude::*;

fn main() {
    // 1. Configure the stack. Setup bundles all four layers; every field
    //    is a plain struct you can tweak.
    let mut setup = Setup::demo();
    setup.ctrl.gc.greediness = 2;
    setup.ctrl.sched = SchedPolicy::reads_first();
    setup.os.queue_depth = 32;
    setup.ctrl.obs.timeline_interval_us = 20_000;

    println!(
        "SSD: {} channels x {} LUNs, {} pages of {} B ({} MiB), {:?} flash",
        setup.geometry.channels,
        setup.geometry.luns_per_channel,
        setup.geometry.total_pages(),
        setup.geometry.page_size,
        setup.geometry.capacity_bytes() >> 20,
        setup.timing.cell,
    );

    // 2. Build and attach threads. Precondition the device first so
    //    measurements start from a well-defined state (§2.3).
    let mut os = setup.build();
    let fill = os.add_thread(precondition::sequential_fill(32));

    let writer = os.add_thread_after(
        Box::new(
            Pumped::new(
                ZipfGen::new(Region::whole(), 20_000, 0.99, ZipfKind::Writes),
                16,
                7,
            )
            .named("zipf-writer"),
        ),
        vec![fill],
    );
    let reader = os.add_thread_after(
        Box::new(
            Pumped::new(RandReadGen::new(Region::whole(), 10_000), 8, 11).named("reader"),
        ),
        vec![fill],
    );

    // 3. Run the virtual-time simulation to completion.
    os.run();

    // 4. Inspect: per-thread stats …
    for (name, tid) in [("writer", writer), ("reader", reader)] {
        let s = os.thread_stats(tid);
        println!(
            "{name:>6}: {:>6} IOs, {:>9.0} IOPS, mean {:>8.1} us, p99 {:>8.1} us",
            s.completed(),
            s.throughput_iops(),
            if name == "writer" {
                s.write_lat_us.mean()
            } else {
                s.read_lat_us.mean()
            },
            if name == "writer" {
                s.write_latency.p99().as_micros_f64()
            } else {
                s.read_latency.p99().as_micros_f64()
            },
        );
    }

    // … and the controller's internals.
    let ctrl = os.controller();
    let counters = ctrl.array().counters();
    println!(
        "flash ops: {} reads, {} programs, {} erases, {} copybacks",
        counters.reads, counters.programs, counters.erases, counters.copybacks
    );
    println!(
        "write amplification {:.3}, GC erases {}, WL erases {}",
        ctrl.write_amplification(),
        ctrl.stats().gc_erases,
        ctrl.stats().wl_erases,
    );
    let wear = eagletree::controller::wear_summary(ctrl.array());
    println!(
        "wear: min {} / mean {:.1} / max {} erases (stddev {:.2})",
        wear.min_erases, wear.mean_erases, wear.max_erases, wear.stddev_erases
    );
    println!("virtual time elapsed: {}", os.now());

    // … and how throughput evolved across virtual time (§2.3's
    // metric-vs-time graphs): the telemetry timeline's `iops` column.
    if let Some(tl) = os.timeline() {
        let col = tl.columns().iter().position(|c| *c == "iops").expect("iops column");
        let iops: Vec<f64> = tl.rows().iter().map(|(_, row)| row[col]).collect();
        println!("IOPS per 20ms: {}", sparkline(&downsample(&iops, 60)));
    }
}
