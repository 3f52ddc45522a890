//! One benchmark run of one workload, as the driver invokes it:
//! `--trace 0` measures the end-to-end metrics over [`ROUNDS`] rounds,
//! `--trace 1` runs the traced pass and reports the per-layer metrics.
//!
//! Host time is combined across repetitions by [`best`]. The sandbox
//! slows down by up to 2× for seconds at a time (shared host cores);
//! interference only ever adds time, so for work that is identical from
//! repetition to repetition the minimum is the estimate least touched by
//! it, and taking it per segment lets a run recover the undisturbed time
//! even when no single repetition was undisturbed from start to end.

use crate::calib::REF_SPIN_MS;
use crate::json::Json;
use crate::spec::{self, Spec, NOMINAL_SECONDS, ROUNDS};
use crate::stack::{self, Plan, Round};
use crate::suite::median;
use crate::trace::{self, CallClass, Replay, Spans};

const MIB: f64 = (1 << 20) as f64;
/// How far a replay's controller and flash counters may be from the
/// full-stack run's when several threads shared the device: the order in
/// which WFQ dispatched IOs of different threads at one instant cannot be
/// seen from outside `Os`, so such a replay is close, not identical. With
/// one thread there is no such choice and the replay must be identical.
const REPLAY_TOLERANCE: f64 = 0.05;
/// Repetitions of each timed pass of a traced run.
const TRACED_REPEATS: usize = 2;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra facts for `run`: fingerprint, calibration spins, per-round values.
    pub detail: Json,
    /// Everything that makes the run incorrect, one line each.
    pub problems: Vec<String>,
    /// Span file contents (traced runs).
    pub spans: Option<Json>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Seconds of the same segmented work repeated: the sum over segments of
/// the fastest repetition of each.
fn best<'a>(repeats: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let repeats: Vec<&Vec<f64>> = repeats.into_iter().collect();
    let segments = repeats.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..segments)
        .map(|k| repeats.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn scale(seconds: u64, smoke: bool) -> f64 {
    seconds as f64 / NOMINAL_SECONDS as f64 / if smoke { 50.0 } else { 1.0 }
}

fn detail(rounds: &[&Round]) -> Json {
    let r = rounds[0];
    let spins: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.spins.iter().copied())
        .collect();
    let per_io = |x: u64| Json::Num(x as f64 / r.ios as f64);
    let totals = |f: fn(&Round) -> &Vec<f64>| {
        Json::Arr(
            rounds
                .iter()
                .map(|r| Json::Num(f(r).iter().sum()))
                .collect(),
        )
    };
    Json::obj([
        ("fingerprint", Json::Str(format!("{:016x}", r.fingerprint))),
        (
            "spin_min_ms",
            Json::Num(spins.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("spin_median_ms", Json::Num(median(&spins))),
        ("events_per_io", per_io(r.counts.events)),
        ("flash_cmds_per_io", per_io(r.counts.flash.iter().sum())),
        ("allocs_per_io", per_io(r.counts.allocs)),
        ("quiescent_at_end", Json::Bool(r.quiescent)),
        ("segments", Json::Num(r.host_s.len() as f64)),
        ("round_host_s", totals(|r| &r.host_s)),
        (
            "round_wall_s",
            Json::Arr(rounds.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        ("round_setup_s", totals(|r| &r.setup_s)),
    ])
}

/// Rounds of one seed must be the same simulation, segment for segment.
fn check_same(problems: &mut Vec<String>, what: &str, a: &Round, b: &Round) {
    if a.fingerprint != b.fingerprint {
        problems.push(format!(
            "{what}: simulated results differ ({:016x} vs {:016x})",
            a.fingerprint, b.fingerprint
        ));
    }
    if a.host_s.len() != b.host_s.len() || a.setup_s.len() != b.setup_s.len() {
        problems.push(format!("{what}: segment counts differ"));
    }
}

fn check_failed(problems: &mut Vec<String>, rounds: &[&Round]) -> u64 {
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!(
            "{failed} IOs did not happen or left the device inconsistent"
        ));
    }
    failed
}

pub fn untraced(name: &str, seed: u64, seconds: u64, smoke: bool) -> Option<Outcome> {
    let spec = spec::workload(name, seed, scale(seconds, smoke))?;
    let mut spans = Spans::new();
    let mut plan = Plan::default();
    let rounds: Vec<Round> = (0..if smoke { 1 } else { ROUNDS })
        .map(|_| stack::round(&spec, false, &mut plan, &mut spans))
        .collect();
    let rounds: Vec<&Round> = rounds.iter().collect();
    let mut problems = Vec::new();
    for r in &rounds[1..] {
        check_same(&mut problems, "rounds", rounds[0], r);
        if r.counts.allocs != rounds[0].counts.allocs {
            problems.push(format!(
                "rounds: allocation counts differ ({} vs {})",
                rounds[0].counts.allocs, r.counts.allocs
            ));
        }
    }
    let failed = check_failed(&mut problems, &rounds);
    let sim = &rounds[0].sim;
    let host_s = best(rounds.iter().map(|r| &r.host_s));
    let metrics = vec![
        ("host_ios_per_s", rounds[0].ios as f64 / host_s),
        ("setup_s", best(rounds.iter().map(|r| &r.setup_s))),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_iops", sim.iops),
        ("sim_p50_us", sim.p50_us),
        ("sim_p999_us", sim.p999_us),
        ("sim_write_amp", sim.write_amp),
    ];
    Some(Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed,
        metrics,
        detail: detail(&rounds),
        problems,
        spans: None,
    })
}

/// The measured stage's log of a traced round.
fn measured(r: &Round) -> &stack::StageLog {
    r.stages
        .last()
        .expect("a traced round logs its measured stage")
}

pub fn traced(name: &str, seed: u64, seconds: u64, smoke: bool) -> Option<Outcome> {
    let spec = spec::workload(name, seed, scale(seconds, smoke))?;
    let mut spans = Spans::new();
    let run_span = spans.begin("run");
    let mut problems = Vec::new();
    let mut plan = Plan::default();

    // Every timed pass runs TRACED_REPEATS times, the kinds interleaved so
    // that a slow spell of the machine does not land on one kind alone.
    // The unit drives are short; one repetition after every pass spreads
    // them over the whole run.
    let (mut traced, mut untraced, mut obs_off, mut replays) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::<Replay>::new());
    let mut streams = None;
    let (mut queue_ns, mut flash_ns, mut gen_ns, mut timer_ns) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..if smoke { 1 } else { TRACED_REPEATS } {
        let s = spans.begin("full_stack.traced");
        traced.push(stack::round(&spec, true, &mut plan, &mut spans));
        spans.end(s);
        let s = spans.begin("full_stack.untraced");
        untraced.push(stack::round(&spec, false, &mut plan, &mut spans));
        spans.end(s);
        // With observability on, its cost is the distance to the same
        // run with it off — which must also be the same simulation.
        if spec.obs_enabled() {
            let s = spans.begin("full_stack.obs_off");
            obs_off.push(stack::round(
                &spec.without_obs(),
                false,
                &mut plan,
                &mut spans,
            ));
            spans.end(s);
        }
        let a = &traced[0];
        if streams.is_none() {
            streams = trace::request_streams(&a.stages);
        }
        if let Some(stages) = &streams {
            let s = spans.begin("replay");
            replays.push(trace::replay(&spec, stages, &mut spans));
            spans.end(s);
        }
        let s = spans.begin("drives");
        queue_ns = queue_ns.min(trace::queue_ns_per_op(&spec));
        flash_ns = flash_ns.min(trace::flash_ns_per_cmd(&spec, untraced[0].counts.flash));
        gen_ns = gen_ns.min(trace::gen_ns_per_io(measured(a)));
        timer_ns = timer_ns.min(trace::timer_ns());
        spans.end(s);
    }
    spans.end(run_span);

    let (a, b) = (&traced[0], &untraced[0]);
    let rounds: Vec<&Round> = traced.iter().chain(&untraced).chain(&obs_off).collect();
    for r in &rounds[1..] {
        check_same(&mut problems, "passes", a, r);
    }
    let failed = check_failed(&mut problems, &rounds);

    // ---- replay fidelity: the controller, driven directly, must have done
    // the work it did under the OS.
    let expected: u64 = a
        .stages
        .iter()
        .flat_map(|s| &s.threads)
        .map(|t| t.spec.ios)
        .sum();
    let mut replay_dev: f64 = if replays.is_empty() { 1.0 } else { 0.0 };
    if replays.is_empty() {
        problems.push("replay: the traced run left IOs uncompleted".into());
    }
    for r in &replays {
        let end = r
            .end_state
            .as_ref()
            .expect("a finished replay has an end state");
        if end.rendered != a.end_state.rendered {
            // Any difference is a deviation; size it against the measured
            // phase's work (preconditioning replays exactly).
            replay_dev = replay_dev
                .max(a.end_state.deviation(end, &a.setup_state))
                .max(f64::EPSILON);
        }
        if r.completions != expected {
            problems.push(format!(
                "replay: {} of {expected} requests completed",
                r.completions
            ));
        }
    }
    let single_thread = measured(a).threads.len() == 1;
    if replay_dev > if single_thread { 0.0 } else { REPLAY_TOLERANCE } {
        problems.push(format!(
            "replay: controller counters differ from the full-stack run by {replay_dev:.4}"
        ));
    }

    // ---- the budget: unit cost × count for flash and the event queue,
    // the replay for the controller, the decorator for the workloads, and
    // subtraction for what has no boundary of its own.
    let ios = b.ios as f64;
    let c = &b.counts;
    let sim = &b.sim;
    let round_s = |rs: &[Round]| best(rs.iter().map(|r| &r.host_s));
    let host_ns = round_s(&untraced) * 1e9 / ios;
    let calls = |f: fn(&Replay) -> &CallClass| replays.first().map_or(0, |r| f(r).calls);
    // Seconds in a call class, the clock reads' own cost taken off.
    let class_s = |f: fn(&Replay) -> &CallClass| {
        let recorded = best(replays.iter().map(|r| &f(r).seg_s));
        (recorded - calls(f) as f64 * timer_ns / 1e9).max(0.0)
    };
    let (submit_s, advance_s, next_s) = (
        class_s(|r| &r.submit),
        class_s(|r| &r.advance),
        class_s(|r| &r.next_event),
    );
    let ctrl_ns = (submit_s + advance_s + next_s) * 1e9 / ios;
    let workload_calls = measured(a).workload_calls;
    let wl_s = best(traced.iter().map(|r| &measured(r).workload_s));
    let wl_s = (wl_s - workload_calls as f64 * timer_ns / 1e9).max(0.0);
    let wl_ns = wl_s * 1e9 / ios;
    let flash_cmds = c.flash.iter().sum::<u64>() as f64 / ios;
    let queue_ops = c.queue_ops as f64 / ios;
    let queue_share = queue_ops * queue_ns / host_ns;
    let flash_share = flash_cmds * flash_ns / host_ns;
    let ctrl_self_share = (ctrl_ns / host_ns - queue_share - flash_share).max(0.0);
    let os_self_ns = (host_ns - ctrl_ns - wl_ns).max(0.0);
    let wl_share = wl_ns / host_ns;
    let lookups = c.cmt_hits + c.cmt_misses;
    let luns = spec.setup.geometry.total_luns() as f64;
    let per_call = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    let obs_cost = |on: f64, off: f64| if obs_off.is_empty() { 0.0 } else { on - off };
    let t = &spec.setup.timing;
    let flash_busy_ns = [
        t.read_lun_time(),
        t.t_xfer,
        t.t_prog,
        t.erase_lun_time(),
        t.copyback_lun_time(),
    ];
    let lun_busy_ns: u64 = c
        .flash
        .iter()
        .zip(flash_busy_ns)
        .map(|(n, d)| n * d.as_nanos())
        .sum();

    let metrics = vec![
        ("core.events_per_io", c.events as f64 / ios),
        ("core.queue_ops_per_io", queue_ops),
        ("core.events_per_s", c.events as f64 / (host_ns * ios / 1e9)),
        ("core.queue_ns_per_op", queue_ns),
        ("core.queue_share", queue_share),
        (
            "core.obs_overhead_share",
            obs_cost(1.0, round_s(&obs_off) * 1e9 / ios / host_ns),
        ),
        ("core.obs_spans_per_io", c.obs_spans as f64 / ios),
        ("core.obs_dropped_spans", c.obs_dropped as f64),
        (
            "core.obs_heap_mb",
            obs_cost(
                c.heap_peak as f64,
                obs_off.first().map_or(0.0, |o| o.counts.heap_peak as f64),
            ) / MIB,
        ),
        ("flash.cmds_per_io", flash_cmds),
        ("flash.reads_per_io", c.flash[0] as f64 / ios),
        (
            "flash.programs_per_io",
            (c.flash[2] + c.flash[4]) as f64 / ios,
        ),
        ("flash.erases_per_kio", c.flash[3] as f64 * 1e3 / ios),
        (
            "flash.lun_util",
            lun_busy_ns as f64 / (luns * sim.makespan_ns.max(1) as f64),
        ),
        ("flash.issue_ns_per_cmd", flash_ns),
        ("flash.share", flash_share),
        ("controller.ns_per_io", ctrl_ns),
        ("controller.submit_ns_per_io", submit_s * 1e9 / ios),
        (
            "controller.advance_ns_per_call",
            per_call(advance_s, calls(|r| &r.advance)),
        ),
        (
            "controller.advance_calls_per_io",
            calls(|r| &r.advance) as f64 / ios,
        ),
        (
            "controller.next_event_ns_per_call",
            per_call(next_s, calls(|r| &r.next_event)),
        ),
        ("controller.share", ctrl_ns / host_ns),
        ("controller.self_share", ctrl_self_share),
        (
            "controller.allocs_per_io",
            replays.first().map_or(0.0, |r| r.allocs as f64 / ios),
        ),
        ("controller.gc_moves_per_io", c.gc_moves as f64 / ios),
        (
            "controller.gc_erases_per_kio",
            c.gc_erases as f64 * 1e3 / ios,
        ),
        (
            "controller.internal_ops_per_io",
            c.internal_ops as f64 / ios,
        ),
        ("controller.sched_wait_us.app_write", c.app_write_wait_us),
        // Without a cached mapping table every lookup is answered from RAM.
        (
            "controller.ftl.cmt_hit_rate",
            if lookups == 0 {
                1.0
            } else {
                c.cmt_hits as f64 / lookups as f64
            },
        ),
        (
            "controller.ftl.map_fetches_per_io",
            c.map_fetches as f64 / ios,
        ),
        (
            "controller.ftl.map_writebacks_per_io",
            c.map_writebacks as f64 / ios,
        ),
        ("controller.quiescent_at_end", b.quiescent as u64 as f64),
        ("controller.replay_dev", replay_dev),
        ("os.self_ns_per_io", os_self_ns),
        ("os.self_share", os_self_ns / host_ns),
        ("os.queue_wait_us_mean", sim.queue_wait_us),
        ("os.sim_read_p50_us", sim.read_p50_us),
        ("os.sim_read_p999_us", sim.read_p999_us),
        ("os.sim_write_p50_us", sim.write_p50_us),
        ("os.sim_write_p999_us", sim.write_p999_us),
        ("os.tenant_jain", sim.tenant_jain),
        ("os.worst_reader_p99_us", sim.worst_reader_p99_us),
        ("workloads.ns_per_io", wl_ns),
        ("workloads.calls_per_io", workload_calls as f64 / ios),
        ("workloads.share", wl_share),
        ("workloads.gen_ns_per_io", gen_ns),
        (
            "experiments.measure_ms",
            untraced
                .iter()
                .map(|r| r.measure_ms)
                .fold(f64::INFINITY, f64::min),
        ),
        ("process.allocs_per_io", c.allocs as f64 / ios),
        ("process.alloc_bytes_per_io", c.alloc_bytes as f64 / ios),
        ("process.heap_peak_mb", c.heap_peak as f64 / MIB),
        ("process.cpu_over_wall", b.cpu_over_wall),
        (
            "process.wall_ios_per_s",
            ios / median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<f64>>()),
        ),
        (
            "process.calib_ratio",
            median(
                &untraced
                    .iter()
                    .flat_map(|r| r.spins.iter().copied())
                    .collect::<Vec<f64>>(),
            ) / REF_SPIN_MS,
        ),
        (
            "trace.overhead_share",
            1.0 - round_s(&untraced) / round_s(&traced),
        ),
        (
            "trace.unattributed_share",
            1.0 - queue_share - flash_share - ctrl_self_share - os_self_ns / host_ns - wl_share,
        ),
        ("trace.timer_ns", timer_ns),
        ("trace.spans", spans.len() as f64),
    ];

    let ns = |s: f64| (s * 1e9) as u64;
    let call_rows = [
        ("workloads.call", workload_calls, ns(wl_s)),
        ("controller.submit", calls(|r| &r.submit), ns(submit_s)),
        ("controller.advance", calls(|r| &r.advance), ns(advance_s)),
        (
            "controller.next_event_time",
            calls(|r| &r.next_event),
            ns(next_s),
        ),
    ];
    Some(Outcome {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed,
        metrics,
        detail: detail(&[b]),
        problems,
        spans: Some(spans.to_json(&spec.name, &call_rows)),
    })
}

/// The known-failing input sizing this benchmark found (see README):
/// DFTL with a 5% mapping cache, sequential fill, then one logical space
/// of uniform random writes at window 32. Returns `(completed, planned)`
/// of the random-write thread.
pub fn wedge_reproducer() -> (u64, u64) {
    let mut spec: Spec = spec::workload("zipf_mixed_dftl", 0, 1.0).expect("a benchmark workload");
    let logical = spec.logical_pages();
    let age = &mut spec.precondition[1];
    (age.gen, age.seed, age.window) = (spec::Gen::RandWrite, 0xA6E, 32);
    spec.tenants.clear();
    let r = stack::round(&spec, false, &mut Plan::default(), &mut Spans::new());
    (logical - r.failed.min(logical), logical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_takes_each_segment_from_its_fastest_repetition() {
        let (a, b, c) = (
            vec![1.0, 5.0, 2.0],
            vec![3.0, 1.0, 2.5],
            vec![2.0, 2.0, 9.0],
        );
        assert_eq!(best([&a, &b, &c]), 1.0 + 1.0 + 2.0);
        assert_eq!(best([&a]), 8.0);
        assert_eq!(best([]), 0.0);
    }
}
