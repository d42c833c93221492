//! The benchmark's own tests, run at `--size tiny`.
//!
//! Every workload must print every metric `BENCHMARK.json` names, with
//! its unit, verify its outputs, and report attempted and failed
//! operations; deterministic metrics must repeat bit for bit under one
//! seed and move under another.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use ampom_obs::json::{parse, JsonValue};

const WORKLOADS: [&str; 4] = ["sim-paper", "sim-scatter", "live-loopback", "cluster-life"];

/// Seed the tiny-size fingerprints are pinned for.
const PINNED_SEED: u64 = 1;

fn benchmark_json() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    parse(&text).expect("BENCHMARK.json parses")
}

fn fields(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Obj(f) => f,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn items(v: &JsonValue) -> &[JsonValue] {
    match v {
        JsonValue::Arr(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).expect(key)
}

/// Runs one tiny workload; returns its report lines and result object.
fn run(workload: &str, seed: u64, trace: bool) -> (Vec<String>, JsonValue) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let last = lines.pop().expect("a result line");
    let result = parse(&last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    if trace {
        assert!(
            dir.join(".perfbench")
                .join(format!("spans-{workload}-{seed}.jsonl"))
                .is_file(),
            "{workload}: the traced run writes its spans"
        );
    }
    (lines, result)
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let names: Vec<&str> = items(bench.get("workloads").expect("workloads"))
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS, "BENCHMARK.json names the four workloads");
    for (catalogue, trace) in [("end_to_end", false), ("per_layer", true)] {
        let specs = items(bench.get(catalogue).expect(catalogue));
        for workload in WORKLOADS {
            let (_, result) = run(workload, PINNED_SEED, trace);
            let keys: Vec<&str> = fields(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            let metrics = fields(result.get("metrics").unwrap());
            assert_eq!(metrics.len(), specs.len(), "{workload} {catalogue}");
            for (spec, (name, m)) in specs.iter().zip(metrics) {
                assert_eq!(text(spec, "name"), name, "{workload} {catalogue} order");
                assert_eq!(text(spec, "unit"), text(m, "unit"), "{workload} {name}");
                let value = m.get("value").and_then(JsonValue::as_f64).unwrap();
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is never 0");
                }
            }
        }
    }
}

#[test]
fn workload_specific_metrics_are_named_with_unit_and_direction() {
    let expected: [(&str, &[&str]); 4] = [
        ("sim-paper", &["faults_per_s: ", "migrant_slowdown: "]),
        ("sim-scatter", &["faults_per_s: ", "migrant_slowdown: "]),
        (
            "live-loopback",
            &[
                "fault_p50_us: ",
                "fault_p99_us: ",
                "writeback_p50_us: ",
                "pages_per_s: ",
            ],
        ),
        (
            "cluster-life",
            &["ticks_per_s: ", "jobs_per_hour: ", "job_p99_slowdown: "],
        ),
    ];
    for (workload, names) in expected {
        let (lines, _) = run(workload, PINNED_SEED + 1, false);
        for name in names {
            let line = lines
                .iter()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("{workload} prints {name}"));
            assert!(line.contains(" is better; "), "{line}");
        }
    }
    let (lines, _) = run("live-loopback", PINNED_SEED + 1, false);
    assert!(
        lines
            .iter()
            .filter(|l| l.starts_with("fault_p"))
            .all(|l| l.contains(" samples)")),
        "latency percentiles state their sample counts"
    );
}

/// Per-layer metrics that are pure functions of the seed.
fn deterministic(workload: &str, result: &JsonValue) -> Vec<(String, f64)> {
    let prefixes: &[&str] = match workload {
        "cluster-life" => &["cluster.", "core.lifecycle"],
        _ => &["workloads.refs", "core.", "net.", "mem."],
    };
    fields(result.get("metrics").unwrap())
        .iter()
        .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)))
        .filter(|(k, _)| !k.contains("_ns"))
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(JsonValue::as_f64).unwrap(),
            )
        })
        .collect()
}

#[test]
fn deterministic_metrics_repeat_under_a_seed_and_move_under_another() {
    for workload in ["sim-paper", "sim-scatter", "cluster-life"] {
        let slowdown = |seed| metric(&run(workload, seed, false).1, "slowdown").to_bits();
        assert_eq!(slowdown(7), slowdown(7), "{workload}: slowdown repeats");
        assert_ne!(
            slowdown(7),
            slowdown(8),
            "{workload}: slowdown moves with the seed"
        );

        let counts = |seed| deterministic(workload, &run(workload, seed, true).1);
        let a = counts(7);
        assert!(!a.is_empty());
        assert_eq!(a, counts(7), "{workload}: counts repeat bit for bit");
        assert_ne!(a, counts(8), "{workload}: counts move with the seed");
    }
}
