//! Smoke test of the benchmark binary: every workload at a few rounds.

use serde::Value;
use std::process::Command;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 3] = ["paper-seq", "large-d-sim", "figure-sweep"];

struct Raw(Value);

impl serde::Deserialize for Raw {
    fn deserialize(value: &Value) -> Result<Self, serde::de::Error> {
        Ok(Raw(value.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Raw>(text).expect("valid JSON").0
}

fn get<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

/// (name, unit) of every metric in one `BENCHMARK.json` list.
fn metrics(list: &str) -> Vec<(String, String)> {
    get(&parse(MANIFEST), list)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| get(m, k).as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns its stdout lines and the parsed result line.
fn bench(args: &[String]) -> (Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(String::from).collect();
    let result = parse(lines.last().expect("a result line"));
    (lines, result)
}

fn count(result: &Value, key: &str) -> u64 {
    match get(result, key) {
        Value::U64(n) => *n,
        other => panic!("`{key}` is not a count: {other:?}"),
    }
}

/// Arguments for one short invocation: a single cycle of 3-round runs.
fn quick(workload: &str, trace: &str) -> Vec<String> {
    let args = [
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "0",
        "--steps",
        "3",
    ];
    args.iter()
        .chain(&["--trace", trace])
        .map(|a| a.to_string())
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = metrics(list);
        for workload in WORKLOADS {
            let (lines, result) = bench(&quick(workload, trace));
            assert_eq!(get(&result, "correct"), &Value::Bool(true), "{workload}");
            assert_eq!(count(&result, "failed"), 0);
            let reported = get(&result, "metrics").as_map().expect("metrics map");
            assert_eq!(reported.len(), expected.len(), "{workload} trace {trace}");
            for (name, unit) in &expected {
                let line = lines
                    .iter()
                    .find(|l| l.split_whitespace().next() == Some(name))
                    .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
                assert!(line.ends_with(&format!(" {unit}")), "{line}");
                let m = get(get(&result, "metrics"), name);
                assert_eq!(get(m, "unit").as_str(), Some(unit.as_str()));
                assert!(
                    matches!(get(m, "value"), Value::F64(_)),
                    "{workload} {name}"
                );
            }
        }
    }
}

#[test]
fn a_wrong_pin_fails_exactly_its_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let pins = dir.join("wrong-pins.txt");
    // Run index 1 runs once at `--seconds 0` (index 0 also warms up).
    std::fs::write(&pins, "paper-seq 1 3 1 0x0000000000000001\n").expect("write pins");
    let mut args = quick("paper-seq", "0");
    args.extend(["--pins".into(), pins.display().to_string()]);
    let (lines, result) = bench(&args);
    assert_eq!(get(&result, "correct"), &Value::Bool(false));
    assert_eq!(count(&result, "failed"), 1);
    let attempted = count(&result, "attempted");
    let failed_line = lines
        .iter()
        .find(|l| l.starts_with("  failed_runs"))
        .expect("failed_runs line");
    let share: f64 = failed_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (share - 1.0 / attempted as f64).abs() < 1e-4,
        "{failed_line}"
    );
}

#[test]
fn traced_runs_reproduce_the_untraced_digests() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced");
    for workload in WORKLOADS {
        let mut args = quick(workload, "1");
        args.extend(["--out".into(), dir.display().to_string()]);
        let (_, result) = bench(&args);
        // The traced pass checks each traced digest against the untraced
        // one of the same run seed; a mismatch is a failed run.
        assert_eq!(get(&result, "correct"), &Value::Bool(true), "{workload}");
        assert_eq!(count(&result, "failed"), 0, "{workload}");
        let calls = get(
            get(get(&result, "metrics"), "gars.aggregate_calls"),
            "value",
        );
        assert_eq!(calls, &Value::F64(1.0), "{workload}: the traced pass ran");
        let saved = std::fs::read_to_string(dir.join(format!("{workload}-seed1-trace1.json")))
            .expect("result file written");
        assert!(get(&parse(&saved), "host").as_map().is_some());
    }
}
