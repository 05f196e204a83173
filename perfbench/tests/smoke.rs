//! Every workload at a smoke scale through the same code the benchmark
//! runs: checks pass, every declared metric is reported with its unit,
//! digests are reproducible, and the dist workload matches in-process.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::bench::{measure, trace, Budget, Report};
use perfbench::json::Json;
use perfbench::workloads::{Backend, Env, Spec, Task, WORKLOADS};

/// Traced runs toggle the process-wide telemetry registry; run one test
/// at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Users per smoke run. Top-k needs more users than frequency estimation
/// before its F1 clears the benchmark's floor.
fn smoke_users(spec: &Spec) -> u64 {
    match spec.task {
        Task::TopK(..) => 400_000,
        Task::Freq(_) => 20_000,
    }
}

fn env() -> Env {
    Env {
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
        worker: PathBuf::from(env!("CARGO_BIN_EXE_mcim-perfbench")),
    }
}

fn smoke(spec: Spec) -> Spec {
    Spec {
        users: smoke_users(&spec),
        ..spec
    }
}

fn quick(min_runs: usize) -> Budget {
    Budget {
        seconds: 0.0,
        min_runs,
        setups: 1,
    }
}

/// `(name, unit)` of every metric a `BENCHMARK.json` list declares.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(list)
        .and_then(Json::arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Asserts the result object holds exactly the declared metrics with their
/// units, and that each one also printed as a metric line.
fn assert_reports(report: &Report, list: &str) {
    let object = Json::parse(&report.json()).unwrap();
    let metrics = object.get("metrics").and_then(Json::obj).unwrap();
    let expected = declared(list);
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit").and_then(Json::str).unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(got, expected, "{}: {list}", report.workload);
    let lines = report.lines();
    for (name, unit) in &expected {
        let prefix = format!("{} {name} ", report.workload);
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&prefix) && l.contains(&format!(" {unit} runs="))),
            "{}: no line for {name}",
            report.workload
        );
    }
    assert_eq!(
        object.get("correct"),
        Some(&Json::Bool(true)),
        "{:?}",
        report.notes
    );
    assert_eq!(object.get("failed").and_then(Json::num), Some(0.0));
    let error_rate = report
        .extra
        .iter()
        .find(|m| m.name == "error_rate")
        .unwrap();
    assert_eq!(error_rate.value, 0.0);
}

fn digest(report: &Report) -> String {
    report
        .notes
        .iter()
        .find_map(|n| n.strip_prefix("output_digest "))
        .unwrap()
        .to_string()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let env = env();
    for spec in WORKLOADS.map(smoke) {
        let report = measure(spec, 5, &env, &quick(3)).unwrap();
        assert_eq!(report.attempted, 3);
        assert_reports(&report, "end_to_end");
        let (traced, tracer) = trace(spec, 5, &env, &quick(2)).unwrap();
        assert_reports(&traced, "per_layer");
        assert!(!tracer.spans().is_empty(), "{}", spec.name);
    }
}

#[test]
fn digests_repeat_per_seed_and_dist_matches_in_process() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let env = env();
    for spec in WORKLOADS.map(smoke) {
        let once = digest(&measure(spec, 11, &env, &quick(3)).unwrap());
        assert_eq!(
            once,
            digest(&measure(spec, 11, &env, &quick(3)).unwrap()),
            "{}",
            spec.name
        );
        assert_ne!(
            once,
            digest(&measure(spec, 12, &env, &quick(3)).unwrap()),
            "{}",
            spec.name
        );
        if spec.backend == Backend::Dist {
            let local = Spec {
                backend: Backend::InProcess,
                ..spec
            };
            assert_eq!(once, digest(&measure(local, 11, &env, &quick(3)).unwrap()));
        }
    }
}
