//! Experiment harness: regenerate the paper's figures/tables.
//!
//! ```text
//! harness [IDS|all] [--scale smoke|demo|full] [--jobs [N]] [--csv] [--json PATH]
//!         [--trace PATH] [--timeline PATH]
//! ```
//!
//! Examples:
//! * `harness all --scale demo` — every experiment at demo size.
//! * `harness e3 e9 --scale full` — GC greediness and advanced commands.
//! * `harness game --csv` — the scheduling game as CSV.
//! * `harness all --scale smoke --json BENCH_now.json` — machine-readable
//!   results (event count + result rows per experiment), the layout of
//!   the committed `BENCH_pr22.json`.
//! * `harness all --scale smoke --jobs 0` — run independent experiments on
//!   parallel threads (`0` = all available cores). Every simulation is
//!   self-contained and deterministic and event counts are measured with a
//!   per-thread counter, so the `--json` file is byte-identical to a
//!   sequential run's.
//! * `harness --trace trace.json --timeline timeline.csv` — run the
//!   instrumented observability capture (a reader/flooder contention run
//!   with lifecycle spans and the time-sliced timeline enabled) and write
//!   the Chrome-trace/Perfetto JSON and the telemetry (CSV, or JSON when
//!   the path ends in `.json`). These flags run *in addition to* any
//!   requested experiments; alone, they skip the suite entirely.
//!
//! Row columns are emitted exactly as the experiments produce them: the
//! media-reliability columns (`uber`, `corrected_bits`, `retries`, …)
//! appear only in rows of fault-model-enabled runs (E25/E26), and the
//! stage-attribution columns (`st_queue_us`, `p999_outliers`, …) only in
//! rows of observability-enabled runs (E27) — other experiments emit no
//! such keys at all. Every cell is deterministic, and the result gate
//! (`diff -u BENCH_pr22.json NEW.json`) covers all of them. The harness
//! never reads the host clock: host-time measurement lives in the
//! `benchmark/` package.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use eagletree_bench::{run_one, to_json, ExperimentResult};
use eagletree_experiments::{suite, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Demo;
    let mut csv = false;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    let mut jobs = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("demo") => Scale::Demo,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!("unknown scale {other:?} (smoke|demo|full)");
                        std::process::exit(2);
                    }
                };
            }
            "--csv" => csv = true,
            "--json" => json_path = Some(path_arg(&args, &mut i)),
            "--trace" => trace_path = Some(path_arg(&args, &mut i)),
            "--timeline" => timeline_path = Some(path_arg(&args, &mut i)),
            "--jobs" => {
                // Optional numeric value; bare `--jobs` or `--jobs 0`
                // mean "all available cores".
                let n = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .inspect(|_| i += 1)
                    .unwrap_or(0);
                jobs = if n == 0 {
                    std::thread::available_parallelism().map_or(1, |p| p.get())
                } else {
                    n
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: harness [IDS|all] [--scale smoke|demo|full] [--jobs [N]] [--csv] [--json PATH] [--trace PATH] [--timeline PATH]"
                );
                eprintln!("experiments:");
                for e in suite::all() {
                    eprintln!("  {:>4}  {} ({})", e.id, e.title, e.hook);
                }
                return;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    // `--trace`/`--timeline` with no experiment ids means "just capture".
    let capture_only =
        ids.is_empty() && (trace_path.is_some() || timeline_path.is_some());
    if !capture_only && (ids.is_empty() || ids.iter().any(|s| s == "all")) {
        ids = suite::all().iter().map(|e| e.id.to_string()).collect();
    }
    let experiments: Vec<_> = ids
        .iter()
        .map(|id| {
            let id = if id.eq_ignore_ascii_case("game") { "G1" } else { id };
            suite::by_id(id).unwrap_or_else(|| {
                eprintln!("unknown experiment `{id}` — try --help");
                std::process::exit(2);
            })
        })
        .collect();
    let print = |r: &ExperimentResult| {
        for (label, ops) in &r.table.stuck {
            eprintln!(
                "warning: {} {label}: the run stopped with {ops} ops the device can never issue",
                r.table.id
            );
        }
        if csv {
            println!("# {} — {}", r.table.id, r.table.title);
            print!("{}", r.table.to_csv());
        } else if json_path.is_none() {
            println!("{}", r.table.render());
        }
    };
    let results = if jobs > 1 {
        // Buffered: tables print afterwards in suite order.
        let results = run_parallel(&experiments, scale, jobs);
        results.iter().for_each(&print);
        results
    } else {
        // Streamed: each table prints as its experiment finishes.
        run_sequential(&experiments, scale, &print)
    };
    if trace_path.is_some() || timeline_path.is_some() {
        eprintln!("capturing observability artifacts ({scale:?}) …");
        let a = eagletree_experiments::obs_capture(scale);
        eprintln!(
            "  {} spans ({} dropped), {} timeline rows",
            a.spans,
            a.dropped,
            a.timeline_csv.lines().count().saturating_sub(1)
        );
        let write = |path: &str, body: &str, what: &str| {
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path} ({what})");
        };
        if let Some(p) = &trace_path {
            write(p, &a.perfetto, "Perfetto trace — load in ui.perfetto.dev");
        }
        if let Some(p) = &timeline_path {
            if p.ends_with(".json") {
                write(p, &a.timeline_json, "timeline JSON");
            } else {
                write(p, &a.timeline_csv, "timeline CSV");
            }
        }
    }
    if let Some(path) = json_path {
        let doc = to_json(scale, &results);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} ({} experiments)", results.len());
    }
}

/// The path after the flag at `args[*i]`, stepping `i` onto it; exits 2
/// when there is none.
fn path_arg(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("{} needs a path", args[*i - 1]);
        std::process::exit(2);
    })
}

fn run_sequential(
    experiments: &[eagletree_experiments::Experiment],
    scale: Scale,
    print: &dyn Fn(&ExperimentResult),
) -> Vec<ExperimentResult> {
    let mut results = Vec::new();
    for e in experiments {
        eprintln!("running {} ({:?}) …", e.id, scale);
        let result = run_one(e, scale);
        eprintln!("  done ({} events)", result.events_simulated);
        print(&result);
        results.push(result);
    }
    results
}

/// Run the experiments on `jobs` scoped worker threads pulling from a
/// shared work list. Each simulation is self-contained, so results —
/// including per-experiment event counts, measured per worker thread —
/// are identical to the sequential run.
fn run_parallel(
    experiments: &[eagletree_experiments::Experiment],
    scale: Scale,
    jobs: usize,
) -> Vec<ExperimentResult> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ExperimentResult>>> =
        experiments.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(experiments.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(e) = experiments.get(i) else { break };
                eprintln!("running {} ({:?}) …", e.id, scale);
                let result = run_one(e, scale);
                eprintln!("  {} done", e.id);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}
