//! Runs the built binary in `--quick` mode (tiny cells, one repeat) and holds
//! its output against `BENCHMARK.json`: every metric the file names is
//! printed exactly once per workload, under a well-formed name and with the
//! declared unit, the result line has exactly the four keys of the protocol,
//! and the traced run's `trace.json` and `layers.json` parse.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use cb_benchmark::json::Json;
use cb_benchmark::spec::{MetricSpec, Spec};

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the benchmark binary; returns its standard output lines.
fn run(args: &[&str], out: &Path) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_cb-benchmark"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{args:?} exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("output is UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `workload -> metric -> (value, unit, n)` from the `workload metric value
/// unit n` lines; panics on a metric printed twice for one workload.
fn metric_lines(lines: &[String]) -> BTreeMap<String, BTreeMap<String, (f64, String, usize)>> {
    let mut seen: BTreeMap<String, BTreeMap<String, (f64, String, usize)>> = BTreeMap::new();
    for line in lines.iter().filter(|l| !l.starts_with('{')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert!(fields.len() >= 5, "malformed metric line {line:?}");
        let (workload, metric) = (fields[0], fields[1]);
        assert!(well_formed(metric), "metric name {metric:?}");
        let value: f64 = fields[2]
            .parse()
            .unwrap_or_else(|_| panic!("value in {line:?}"));
        assert!(value.is_finite(), "{line:?}");
        let n: usize = fields[4]
            .parse()
            .unwrap_or_else(|_| panic!("n in {line:?}"));
        let previous = seen
            .entry(workload.to_string())
            .or_default()
            .insert(metric.to_string(), (value, fields[3].to_string(), n));
        assert!(previous.is_none(), "{workload} prints {metric} twice");
    }
    seen
}

fn assert_all_printed(
    spec: &Spec,
    listed: &[MetricSpec],
    seen: &BTreeMap<String, BTreeMap<String, (f64, String, usize)>>,
) {
    assert_eq!(
        seen.keys().collect::<Vec<_>>(),
        {
            let mut names: Vec<&String> = spec.workloads.iter().collect();
            names.sort();
            names
        },
        "one block of lines per workload"
    );
    for (workload, metrics) in seen {
        for m in listed {
            let (_, unit, n) = metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{workload} does not print {}", m.name));
            assert_eq!(unit, &m.unit, "{workload} {}", m.name);
            assert!(*n >= 1);
        }
    }
}

/// The result line of one workload, checked against the protocol.
fn assert_result_line(result: &Json, listed: &[MetricSpec]) {
    let keys = |json: &Json| -> Vec<String> {
        let members = json.as_obj().expect("an object");
        members.iter().map(|(k, _)| k.clone()).collect()
    };
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = result.get("metrics").unwrap();
    let mut got = keys(metrics);
    let mut expected: Vec<String> = listed.iter().map(|m| m.name.clone()).collect();
    got.sort_unstable();
    expected.sort_unstable();
    assert_eq!(got, expected, "exactly the metrics BENCHMARK.json lists");
    for m in listed {
        let entry = metrics.get(&m.name).unwrap();
        assert_eq!(keys(entry), ["value", "unit"], "{}", m.name);
        assert!(
            entry.get("value").and_then(Json::as_f64).is_some(),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(m.unit.as_str())
        );
    }
}

/// The per-workload result lines out of the summary a full `run` ends with.
fn workload_results(lines: &[String]) -> Json {
    let summary = Json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    summary
        .get("workloads")
        .expect("per-workload results")
        .clone()
}

#[test]
fn benchmark_json_is_well_formed() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    assert_eq!(
        spec.workloads,
        [
            "oltp_rw_cached",
            "oltp_scan_tinypool",
            "openloop_si_hot",
            "chaos_recovery",
            "perfect_cdb3"
        ]
    );
    assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    let mut names: Vec<&str> = Vec::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(well_formed(&m.name) && m.name.len() <= 64, "{}", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16,
            "{} unit {:?}",
            m.name,
            m.unit
        );
        names.push(&m.name);
    }
    for w in &spec.workloads {
        names.push(w);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(setup.lower_is_better && setup.unit == "s");
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    assert!((1..=128).contains(&spec.per_layer.len()));
}

#[test]
fn quick_untraced_run_prints_every_end_to_end_metric_once_per_workload() {
    let spec = Spec::load().unwrap();
    let out = out_dir("quick_untraced");
    let lines = run(&["run", "--quick", "--seed", "31"], &out);
    let seen = metric_lines(&lines);
    assert_all_printed(&spec, &spec.end_to_end, &seen);
    for (workload, metrics) in &seen {
        assert_eq!(metrics["failed_ops_share"].0, 0.0, "{workload}");
        for m in &spec.end_to_end {
            assert!(metrics[&m.name].0 > 0.0, "{workload} {} is never 0", m.name);
        }
    }
    let results = workload_results(&lines);
    for w in &spec.workloads {
        assert_result_line(results.get(w).expect(w), &spec.end_to_end);
    }

    let merged = std::fs::read_to_string(out.join("results.json")).expect("results.json");
    let merged = Json::parse(&merged).expect("results.json parses");
    let provenance = merged.get("provenance").expect("provenance");
    assert_ne!(
        provenance.get("commit"),
        Some(&Json::Str("HEAD".to_string()))
    );
    assert_eq!(provenance.get("seed").and_then(Json::as_f64), Some(31.0));
    for key in [
        "commit",
        "dirty",
        "rustc",
        "nproc",
        "seconds",
        "timer_overhead_ns",
    ] {
        assert!(provenance.get(key).is_some(), "provenance lacks {key}");
    }
    for w in &spec.workloads {
        let entry = merged.get("workloads").and_then(|ws| ws.get(w)).expect(w);
        assert!(
            entry.get("params").is_some() && entry.get("n").is_some(),
            "{w}"
        );
        assert!(entry
            .get("harness")
            .and_then(|h| h.get("harness.cpu_share"))
            .is_some());
    }
}

#[test]
fn quick_traced_run_prints_every_per_layer_metric_once_and_writes_a_trace() {
    let spec = Spec::load().unwrap();
    let out = out_dir("quick_traced");
    let lines = run(&["run", "--quick", "--traced", "--seed", "32"], &out);
    let seen = metric_lines(&lines);
    assert_all_printed(&spec, &spec.per_layer, &seen);
    let results = workload_results(&lines);
    for w in &spec.workloads {
        assert_result_line(results.get(w).expect(w), &spec.per_layer);

        let metrics = &seen[w];
        assert!(
            metrics["harness.allocs_per_txn"].0 > 0.0,
            "{w}: the allocator counts"
        );
        assert!(metrics["harness.timer_overhead_ns"].0 > 0.0, "{w}");
        assert_eq!(metrics["chaos.violations"].0, 0.0, "{w}");
        assert!(metrics["harness.attributed_share"].0 > 0.0, "{w}");
        for (name, (_, unit, n)) in metrics {
            if name.ends_with("_ns") && name != "harness.timer_overhead_ns" && *n > 1 {
                assert_eq!(unit, "ns", "{name}");
                assert!(*n >= 15, "{w} {name}: at least 15 timed batches, got {n}");
            }
        }

        let dir = out.join(w);
        let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
        let trace = Json::parse(&trace).expect("trace.json parses");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let named = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
        };
        assert!(named(&format!("workload.{w}")), "{w}: the workload span");
        for span in [
            "core.deploy.new",
            "probe.engine.btree.get_ns",
            "core.schema.load_dataset",
        ] {
            assert!(named(span), "{w}: span {span}");
        }
        let root = events
            .iter()
            .position(|e| e.get("name").and_then(Json::as_str) == Some(&format!("workload.{w}")))
            .unwrap();
        assert!(
            events.iter().enumerate().all(|(i, e)| i == root
                || e.get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(Json::as_f64)
                    .is_some()),
            "{w}: every other span hangs below the workload span"
        );
        let layers = std::fs::read_to_string(dir.join("layers.json")).expect("layers.json");
        let layers = Json::parse(&layers).expect("layers.json parses");
        for layer in layers.get("layers").and_then(Json::as_arr).expect("layers") {
            let num = |k: &str| layer.get(k).and_then(Json::as_f64).unwrap();
            assert!(num("self_s") >= 0.0 && num("self_s") <= num("total_s") + 1e-12);
        }
        let detail = std::fs::read_to_string(dir.join("results_traced.json")).unwrap();
        let detail = Json::parse(&detail).expect("results_traced.json parses");
        let probe = detail
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|e| e.get("metrics"))
            .and_then(|m| m.get("engine.btree.get_ns"))
            .expect("probe entry");
        assert!(
            probe.get("noise_floor").and_then(Json::as_f64).is_some(),
            "{w}: noise floor"
        );
        assert!(probe.get("below_noise").and_then(Json::as_bool).is_some());
    }
}
