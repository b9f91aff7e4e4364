//! `BENCHMARK.json`, compiled in: the one place the metric names, units,
//! directions, bounds and the run length are stated. The runner filters its
//! result line by it and `compare` applies its bounds.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the base by which it may worsen (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not an array"))?;
    items
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{field}`"))
            };
            let lower_is_better = match text("better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            Ok(MetricSpec {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: `workloads` is not an array")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Names of the metrics a run in this mode reports in its result line.
    pub fn listed(&self, traced: bool) -> Vec<String> {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        metrics.iter().map(|m| m.name.clone()).collect()
    }
}
