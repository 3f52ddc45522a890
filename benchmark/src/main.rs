//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! eagletree-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--spans PATH]
//! eagletree-benchmark run [--seed N] [--repeats N] [--seconds S] [--smoke] --out PATH
//! eagletree-benchmark compare A.json B.json
//! eagletree-benchmark wedge
//! ```
//!
//! The first form is one run of one workload and is what `BENCHMARK.json`
//! names; its last line of output is the result object. `run` spawns it.

// The repo's clippy.toml keeps the wall clock out of the simulator crates;
// this package is where host time is measured, from outside them.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod calib;
mod json;
mod run;
mod schema;
mod spec;
mod stack;
mod suite;
mod trace;

use std::process::ExitCode;

use json::Json;
use schema::Schema;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `--flag value` pairs and bare `--switches` after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None if self.0.iter().any(|a| a == flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// One run of one workload: print every reported metric with its unit,
/// then the detail line `run` reads, then the result object.
fn one(flags: &Flags, schema: &Schema) -> Result<bool, String> {
    let workload = flags.value("--workload").ok_or("--workload is required")?;
    let seed = flags.number("--seed", 1)?;
    let seconds = flags.number("--seconds", schema.run_seconds)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1 to 60"));
    }
    let trace = match flags.number("--trace", 0)? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace {n}: expected 0 or 1")),
    };
    let smoke = flags.switch("--smoke");
    let outcome = if trace {
        run::traced(workload, seed, seconds, smoke)
    } else {
        run::untraced(workload, seed, seconds, smoke)
    }
    .ok_or_else(|| {
        format!(
            "unknown workload `{workload}`; known: {}",
            schema.workloads.join(", ")
        )
    })?;

    let reported = schema.reported(trace);
    if let Some(stray) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !reported.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "metric `{}` is not declared in BENCHMARK.json",
            stray.0
        ));
    }
    let mut metrics = Vec::new();
    for m in reported {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v);
        let value = value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric `{}` has no finite value", m.name))?;
        println!("{:<38} {value:>16.4} {}", m.name, m.unit);
        metrics.push((
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }
    for p in &outcome.problems {
        println!("problem: {p}");
    }
    if let (Some(path), Some(spans)) = (flags.value("--spans"), &outcome.spans) {
        std::fs::write(path, spans.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("detail {}", outcome.detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let schema = Schema::load();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), args[1..].to_vec()),
        _ => ("one".to_string(), args),
    };
    let flags = Flags(rest);
    let outcome = match command.as_str() {
        "one" => one(&flags, &schema),
        "run" => (|| {
            let args = suite::RunArgs {
                seed: flags.number("--seed", 1)?,
                repeats: flags.number("--repeats", 5)?.max(1) as usize,
                seconds: flags.number("--seconds", schema.run_seconds)?,
                smoke: flags.switch("--smoke"),
                out: flags
                    .value("--out")
                    .ok_or("run: --out PATH is required")?
                    .to_string(),
            };
            suite::run(&args, &schema)
        })(),
        "compare" => match &flags.0[..] {
            [a, b] => suite::compare(a, b, &schema),
            _ => Err("compare: expected two run files".to_string()),
        },
        "wedge" => {
            let (completed, planned) = run::wedge_reproducer();
            println!("DFTL random-age reproducer: {completed} of {planned} writes completed");
            Ok(completed == planned)
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("eagletree-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
