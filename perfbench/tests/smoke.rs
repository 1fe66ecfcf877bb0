//! Smoke test of the benchmark command: a short run of every workload
//! prints exactly the metrics `BENCHMARK.json` declares, with their units,
//! and no failed operation, and the traced run's counts repeat exactly
//! between two runs of one seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`; a
//! debug build is too slow for the certify-suite corpus.

use std::collections::BTreeMap;
use std::process::Command;

use giallar_core::json::{self, Value};

const WORKLOADS: [&str; 3] = ["registry", "certify-suite", "served"];

/// The (name, unit) pairs `BENCHMARK.json` declares under `key`, in order.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let declaration = json::parse(&text).expect("BENCHMARK.json parses");
    let metrics = declaration.get(key).and_then(Value::as_array).expect(key);
    metrics.iter().map(|metric| (string(metric, "name"), string(metric, "unit"))).collect()
}

fn string(value: &Value, key: &str) -> String {
    value.get(key).and_then(Value::as_str).expect(key).to_string()
}

/// Counts that describe the inputs and the work, not its speed: they must
/// read the same in every traced run of one seed.
const EXACT_COUNTS: [&str; 17] = [
    "registry.obligations",
    "cache.hits",
    "cache.misses",
    "cache.bytes",
    "batch.items",
    "batch.groups",
    "batch.unique_ratio",
    "backend.circuit_equivalence_count",
    "backend.arithmetic_count",
    "backend.trivial_count",
    "qasm.bytes",
    "transpile.out_gates",
    "transpile.out_2q_gates",
    "transpile.out_depth",
    "certify.wires",
    "json.bytes",
    "engine.certify_hit_ratio",
];

struct Result {
    correct: bool,
    attempted: i64,
    failed: i64,
    /// The printed metrics in printed order: name, value, unit.
    metrics: Vec<(String, f64, String)>,
}

impl Result {
    fn names_and_units(&self) -> Vec<(String, String)> {
        self.metrics.iter().map(|(name, _, unit)| (name.clone(), unit.clone())).collect()
    }

    fn values(&self) -> BTreeMap<&str, f64> {
        self.metrics.iter().map(|(name, value, _)| (name.as_str(), *value)).collect()
    }
}

/// Runs the benchmark and parses its last line.
fn run(workload: &str, trace: &str) -> Result {
    let output = Command::new(env!("CARGO_BIN_EXE_giallar-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .output()
        .expect("the benchmark runs");
    assert!(output.status.success(), "{workload}: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("a JSON result");
    let Some(Value::Object(metrics)) = last.get("metrics") else { panic!("no metrics object") };
    let metrics = metrics
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Value::as_float).expect("a value");
            (name.clone(), value, string(metric, "unit"))
        })
        .collect();
    Result {
        correct: last.get("correct").and_then(Value::as_bool).expect("correct"),
        attempted: last.get("attempted").and_then(Value::as_int).expect("attempted"),
        failed: last.get("failed").and_then(Value::as_int).expect("failed"),
        metrics,
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn every_workload_prints_every_end_to_end_metric_without_failures() {
    for workload in WORKLOADS {
        let result = run(workload, "0");
        assert!(result.correct && result.failed == 0, "{workload}: failed operations");
        assert!(result.attempted >= 1);
        assert_eq!(result.names_and_units(), declared("end_to_end"), "{workload}: metric set");
        for (name, value, _) in &result.metrics {
            assert!(*value > 0.0, "{workload}: {name} reads {value}");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn traced_runs_repeat_their_counts_exactly() {
    for workload in WORKLOADS {
        let first = run(workload, "1");
        let second = run(workload, "1");
        for result in [&first, &second] {
            assert!(result.correct && result.failed == 0, "{workload}: failed operations");
            assert_eq!(result.names_and_units(), declared("per_layer"), "{workload}: metric set");
            assert_eq!(result.values()["trace.mismatches"], 0.0, "{workload}: traced work differs");
        }
        let (first, second) = (first.values(), second.values());
        for name in EXACT_COUNTS {
            assert_eq!(first[name], second[name], "{workload}: {name}");
        }
    }
}
