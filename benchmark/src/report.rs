//! One reported metric line, and the names `BENCHMARK.json` promises.

use crate::json::{obj, Json};
use crate::sampler::{Sample, Stats};

/// One `workload metric value unit n` line.
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// The value: a median when `n > 1`.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// First and third quartile of the samples, when there are several.
    pub quartiles: Option<(f64, f64)>,
    /// `*_ns` lines only: differences below this mean nothing.
    pub noise_floor: Option<f64>,
    /// `*_ns` lines only: the value is under five noise floors.
    pub below_noise: bool,
}

impl Line {
    /// A single measured or counted value.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Line {
        Line {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            quartiles: None,
            noise_floor: None,
            below_noise: false,
        }
    }

    /// The median of several samples, with its quartiles.
    pub fn median(name: &str, unit: &'static str, stats: &Stats) -> Line {
        Line {
            n: stats.n,
            quartiles: Some((stats.q1, stats.q3)),
            ..Line::single(name, unit, stats.median)
        }
    }

    /// A sampler probe, in nanoseconds per operation.
    pub fn probe(name: &str, sample: &Sample) -> Line {
        Line {
            noise_floor: Some(sample.noise_floor_ns),
            below_noise: sample.below_noise,
            ..Line::median(name, "ns", &sample.ns)
        }
    }

    /// `workload metric value unit n`, flagged when under the noise floor.
    pub fn print(&self, workload: &str) {
        let flag = if self.below_noise {
            "  # below 5x noise floor"
        } else {
            ""
        };
        println!(
            "{workload} {} {} {} {}{flag}",
            self.name, self.value, self.unit, self.n
        );
    }

    /// The entry `results.json` keeps.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("value".to_string(), Json::from(self.value)),
            ("unit".to_string(), self.unit.into()),
            ("n".to_string(), self.n.into()),
        ];
        if let Some((q1, q3)) = self.quartiles {
            members.push(("q1".to_string(), q1.into()));
            members.push(("q3".to_string(), q3.into()));
        }
        if let Some(floor) = self.noise_floor {
            members.push(("noise_floor".to_string(), floor.into()));
            members.push(("below_noise".to_string(), self.below_noise.into()));
        }
        Json::Obj(members)
    }

    /// The entry the result line carries: `{"value": .., "unit": ..}`.
    pub fn to_result_json(&self) -> Json {
        obj([("value", self.value.into()), ("unit", self.unit.into())])
    }
}

/// The share of attempted operations that failed; printed by both runs. It is
/// 0 on a healthy run, and `BENCHMARK.json` may bound only metrics that are
/// never 0, so there it sits under `per_layer` and in the result line's
/// `attempted` / `failed`.
pub const FAILED_OPS_SHARE: &str = "failed_ops_share";
