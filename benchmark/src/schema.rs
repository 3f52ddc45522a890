//! `BENCHMARK.json`, compiled in: the one list of workload names, metric
//! names, units, directions and bounds. Everything the benchmark prints is
//! looked up here, so the file and the output cannot drift apart.

use crate::json::Json;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Schema {
    pub run_seconds: u64,
    /// Workload names, in the order `run` interleaves them.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Schema {
    pub fn load() -> Schema {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let text = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::str)
                .expect("string field")
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            doc.get(key)
                .expect("metric list")
                .arr()
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::num),
                })
                .collect()
        };
        Schema {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::num)
                .expect("run_seconds") as u64,
            workloads: doc
                .get("workloads")
                .expect("workloads")
                .arr()
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metric list a run with this `--trace` value reports.
    pub fn reported(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
