//! Tiny-scale runs of every workload: the printed metric names and units
//! must be exactly the ones `BENCHMARK.json` declares, and every answer
//! must check out.

use std::process::Command;

use plt_serve::json::Json;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const PLAN: &str = include_str!("../workloads.json");

fn declared(kind: &str) -> Vec<(String, String)> {
    let bench = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    bench
        .get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let bench = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload at a tiny scale; returns the result line.
fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_plt-e2e-bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            if trace { "1" } else { "0" },
            "--scale",
            "0.02",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn printed(result: &Json) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has a value"
                );
                (name.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("metrics object missing"),
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    for workload in workloads() {
        for trace in [false, true] {
            let result = run(&workload, trace);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert!(result.get("failed").and_then(Json::as_u64).is_some());
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(printed(&result), want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn every_per_layer_metric_records_what_it_moves() {
    let plan = Json::parse(PLAN).expect("workloads.json parses");
    let mapping = plan.get("per_layer").expect("per_layer mapping");
    for (name, _) in declared("per_layer") {
        let entry = mapping
            .get(&name)
            .unwrap_or_else(|| panic!("{name} has no mapping"));
        for key in ["moves", "heavy_on", "bypassed_by"] {
            assert!(
                entry.get(key).and_then(Json::as_str).is_some(),
                "{name}.{key}"
            );
        }
    }
    let params = plan.get("workloads").expect("workload parameters");
    for w in workloads() {
        let p = params
            .get(&w)
            .unwrap_or_else(|| panic!("{w} has no parameters"));
        for key in ["why", "generator", "loop", "min_support", "setups"] {
            assert!(p.get(key).is_some(), "{w}.{key}");
        }
    }
}
