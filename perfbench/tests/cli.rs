//! End-to-end tests of the benchmark binary at the quick size: every
//! workload, untraced and traced, passes its checks and prints exactly
//! the metrics `BENCHMARK.json` lists.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_vampos-perfbench");
/// The workloads `BENCHMARK.json` lists.
const LISTED: [&str; 2] = ["fleet-n16", "mesh-rolling"];
/// Every workload the binary runs: the listed ones, `fleet-n16`'s
/// telemetry companion and `fleet-n256`, which must keep working on their
/// own.
const WORKLOADS: [&str; 4] = [
    "fleet-n16",
    "fleet-n256",
    "fleet-n16-traced",
    "mesh-rolling",
];

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values of the objects in the top-level array `key`.
fn listed_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
        .collect()
}

/// `(name, value, unit)` of every metric on the result line.
fn result_metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = &line[line.find("\"metrics\": {").expect("metrics object")..];
    body.split("}, ")
        .filter_map(|entry| {
            let name_end = entry.find("\": {\"value\": ")?;
            let name = entry[..name_end].rsplit('"').next()?.to_owned();
            let rest = &entry[name_end + "\": {\"value\": ".len()..];
            let (value, rest) = rest.split_once(", \"unit\": \"")?;
            let unit = rest[..rest.find('"')?].to_owned();
            Some((name, value.parse().ok()?, unit))
        })
        .collect()
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

fn check_run(workload: &str, trace: &str, listed: &[String]) {
    let (code, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--quick",
    ]);
    assert_eq!(code, 0, "{workload} --trace {trace}:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    let metrics = result_metrics(last);
    let names: Vec<String> = metrics.iter().map(|(n, _, _)| n.clone()).collect();
    assert_eq!(names, listed, "{workload} --trace {trace}");
    for (name, value, _) in &metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if trace == "0" {
            assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
    }
}

#[test]
fn every_workload_prints_the_listed_end_to_end_metrics() {
    let listed = listed_names(&benchmark_json(), "end_to_end");
    for w in WORKLOADS {
        check_run(w, "0", &listed);
    }
}

#[test]
fn every_workload_prints_the_listed_per_layer_metrics() {
    let listed = listed_names(&benchmark_json(), "per_layer");
    for w in WORKLOADS {
        check_run(w, "1", &listed);
    }
}

#[test]
fn benchmark_json_names_the_listed_workloads() {
    assert_eq!(listed_names(&benchmark_json(), "workloads"), LISTED);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"][..],
        &["--workload", "fleet-n16", "--trace", "2"][..],
    ] {
        let (code, stdout) = run(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(!stdout.contains("\"correct\""), "{args:?}: {stdout}");
    }
}
