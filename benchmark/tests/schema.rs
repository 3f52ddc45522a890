//! Schema self-test: `BENCHMARK.json` keeps to the benchmark contract, and
//! a smoke-scale `run` prints exactly the workloads and metrics it names,
//! with their units, and passes its own checks (determinism, obs
//! invariance, replay fidelity).

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::BTreeSet;
use std::process::Command;

fn spec() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("`{key}` missing or not a string in {v:?}"))
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_keeps_to_the_contract() {
    let doc = spec();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = doc.get("command").unwrap().arr();
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.str().expect("command parts are strings");
        assert!(
            part.len() <= 200 && !part.starts_with('/') && !part.split('/').any(|c| c == ".."),
            "{part}"
        );
    }
    assert_eq!(
        doc.get("paths").unwrap().arr(),
        [Json::Str("benchmark".into())]
    );
    let seconds = doc.get("run_seconds").and_then(Json::num).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = doc.get("workloads").unwrap().arr();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(
            is_name(text(w, "name")) && names.insert(text(w, "name")),
            "{w:?}"
        );
        assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
    }

    let end_to_end = doc.get("end_to_end").unwrap().arr();
    let per_layer = doc.get("per_layer").unwrap().arr();
    assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
    for (m, bounded) in end_to_end
        .iter()
        .map(|m| (m, true))
        .chain(per_layer.iter().map(|m| (m, false)))
    {
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(m), expected, "{m:?}");
        assert!(
            is_name(text(m, "name")) && names.insert(text(m, "name")),
            "{m:?}"
        );
        assert!(is_unit(text(m, "unit")), "{m:?}");
        assert!(["higher", "lower"].contains(&text(m, "better")), "{m:?}");
        if bounded {
            let bound = m.get("bound").and_then(Json::num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|m| m.get("bound")?.num())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::num),
        Some(largest),
        "setup_s carries the largest bound"
    );
    assert!(include_str!("../../BENCHMARK.json").len() <= 64 << 10);
}

/// `{name: unit}` of a result object's metrics; every value a finite number.
fn reported(result: &Json) -> Vec<(String, String)> {
    match result.get("metrics").expect("metrics") {
        Json::Obj(kv) => kv
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::num)
                    .unwrap_or_else(|| panic!("{name} has no numeric value"));
                assert!(value.is_finite(), "{name}");
                (name.clone(), text(m, "unit").to_string())
            })
            .collect(),
        other => panic!("metrics is {other:?}"),
    }
}

fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .unwrap()
        .arr()
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn smoke_run_reports_exactly_what_benchmark_json_names() {
    let out = format!("{}/smoke.json", env!("CARGO_TARGET_TMPDIR"));
    let run = Command::new(env!("CARGO_BIN_EXE_eagletree-benchmark"))
        .args([
            "run",
            "--smoke",
            "--repeats",
            "1",
            "--seed",
            "7",
            "--out",
            &out,
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let doc = spec();
    let file = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("the run file parses");
    let workloads = match file.get("workloads").unwrap() {
        Json::Obj(kv) => kv,
        other => panic!("workloads is {other:?}"),
    };
    let named: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .arr()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(
        workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
        named
    );

    for (name, w) in workloads {
        let runs = w.get("runs").unwrap().arr();
        assert_eq!(runs.len(), 1, "{name}");
        for (result, list) in [
            (runs[0].get("result").unwrap(), "end_to_end"),
            (w.get("traced").unwrap(), "per_layer"),
        ] {
            assert_eq!(
                keys(result),
                ["correct", "attempted", "failed", "metrics"],
                "{name}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{name} {list}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::num),
                Some(0.0),
                "{name} {list}"
            );
            assert!(result.get("attempted").and_then(Json::num).unwrap() >= 1.0);
            // Same names, same order, same units — in both directions.
            assert_eq!(reported(result), declared(&doc, list), "{name} {list}");
        }
        let end_to_end = runs[0].get("result").unwrap().get("metrics").unwrap();
        for m in doc.get("end_to_end").unwrap().arr() {
            let value = end_to_end
                .get(text(m, "name"))
                .and_then(|v| v.get("value"))
                .and_then(Json::num)
                .unwrap();
            assert!(
                value != 0.0,
                "{name}: end-to-end metric {} is 0",
                text(m, "name")
            );
        }
        let spans =
            Json::parse(&std::fs::read_to_string(format!("{out}.spans.{name}.json")).unwrap())
                .expect("span file parses");
        assert_eq!(
            spans.get("workload").and_then(Json::str),
            Some(name.as_str())
        );
        for span in spans.get("spans").unwrap().arr() {
            assert_eq!(keys(span), ["name", "start_ns", "end_ns", "parent"]);
        }
    }
}
