//! Self-test of the benchmark: a tiny-SF run of every workload must
//! print every end-to-end metric of `BENCHMARK.json` with its unit and
//! fail no operation; a traced run must print every per-layer metric.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// (name, unit) pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("metric list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .map(|i| i + key.len() + 5)?;
        Some(entry[at..at + entry[at..].find('"')?].to_string())
    };
    body.split('}')
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mduck-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--sf", "0.0002"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_metrics(result: &str, metrics: &[(String, String)], what: &str) {
    assert!(result.starts_with("{\"correct\":true,"), "{what}: {result}");
    assert!(result.contains("\"failed\":0,"), "{what}: {result}");
    for (name, unit) in metrics {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = result
            .find(&entry)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        let rest = &result[at + entry.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        assert!(value.parse::<f64>().is_ok(), "{what}: {name} = {value}");
        assert!(
            rest.starts_with(&format!("{value},\"unit\":\"{unit}\"}}")),
            "{what}: {name} unit"
        );
    }
    assert_eq!(
        result.matches("\"value\":").count(),
        metrics.len(),
        "{what}: extra metrics"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let e2e = declared("end_to_end");
    assert_eq!(e2e.len(), 16);
    for workload in ["bm-suite", "bm-lookup", "bm-ingest"] {
        assert_metrics(&run(workload, 0), &e2e, workload);
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let layers = declared("per_layer");
    assert!(layers.len() > 60);
    assert_metrics(&run("bm-ingest", 1), &layers, "bm-ingest traced");
}
