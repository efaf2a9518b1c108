//! Drives the built binary end to end at smoke scale: all four workload
//! shapes, the traced pass, every check, `result.json`, the trace files,
//! `compare`, and the single-workload form an automated driver calls.
//! One test, because every step writes under `benchmarks/out/smoke/`.

use dws::metrics::export::parse;
use dws::metrics::JsonValue;
use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "flagship",
    "steal_storm",
    "steal_storm_2t",
    "observed_faulty",
];

/// Run the binary from the repo root, where `BENCHMARK.json` is.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dws-benchmark"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("the benchmark binary runs")
}

fn read_json(path: &str) -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(path);
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .expect("well-formed JSON")
}

fn names(list: &JsonValue) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(obj: &JsonValue) -> Vec<String> {
    match obj {
        JsonValue::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other}"),
    }
}

/// A per-layer figure of one workload in a `result.json`.
fn layer(result: &JsonValue, workload: &str, metric: &str) -> f64 {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|s| s.get("per_layer"))
        .and_then(|l| l.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_num)
        .unwrap_or_else(|| panic!("{workload} {metric}"))
}

/// What only one workload runs is zero on the others.
fn assert_layers_only_where_they_run(result: &JsonValue, w: &str) {
    for m in [
        "fault.evals",
        "fault.dropped",
        "metrics.spans",
        "metrics.snapshots",
    ] {
        assert_eq!(layer(result, w, m) > 0.0, w == "observed_faulty", "{w} {m}");
    }
    for m in [
        "engine.barrier_wait_share",
        "engine.exchange_ms",
        "engine.speedup_2t",
    ] {
        assert_eq!(layer(result, w, m) > 0.0, w == "steal_storm_2t", "{w} {m}");
    }
}

/// The committed full-scale result bears out what the workloads were
/// chosen for: where the host time goes, and which machinery runs where.
#[test]
fn committed_baseline_holds_the_predictions() {
    let result = read_json("benchmarks/baseline/result.json");
    assert_eq!(result.get("smoke"), Some(&JsonValue::Bool(false)));
    assert_eq!(
        result.get("failed_runs").and_then(JsonValue::as_num),
        Some(0.0)
    );
    assert!(layer(&result, "flagship", "uts.floor_share") >= 0.5);
    assert!(layer(&result, "steal_storm", "uts.floor_share") <= 0.1);
    for w in WORKLOADS {
        assert_layers_only_where_they_run(&result, w);
    }
}

#[test]
fn smoke_run_drives_every_path_and_agrees_with_itself() {
    full_run_writes_every_metric_and_trace();
    single_workload_form_ends_with_the_result_object();
}

fn full_run_writes_every_metric_and_trace() {
    let spec = read_json("BENCHMARK.json");
    assert_eq!(names(spec.get("workloads").unwrap()), WORKLOADS);

    let out = run(&["--smoke", "--seed", "11"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = read_json("benchmarks/out/smoke/result.json");
    assert_eq!(
        result.get("failed_runs").and_then(JsonValue::as_num),
        Some(0.0)
    );
    for key in ["nproc", "cpu_model", "rustc", "git_rev", "dirty"] {
        assert!(result.get("host").unwrap().get(key).is_some(), "host.{key}");
    }
    for w in WORKLOADS {
        let section = result.get("workloads").unwrap().get(w).expect(w);
        assert_eq!(section.get("correct"), Some(&JsonValue::Bool(true)), "{w}");
        // The storm on two threads is held against the storm on one, the
        // observed run against the same run unobserved.
        let checks = names(section.get("checks").unwrap());
        assert_eq!(
            checks.iter().any(|c| c == "twin_identical"),
            w == "steal_storm_2t" || w == "observed_faulty",
            "{w}"
        );
        // Every metric BENCHMARK.json names is there, and printed by name.
        for m in names(spec.get("end_to_end").unwrap()) {
            let row = section
                .get("end_to_end")
                .unwrap()
                .get(&m)
                .unwrap_or_else(|| panic!("{w} {m}"));
            // A smoke run can be shorter than a tick of the CPU clock.
            let least = if m == "cpu_s" { 0.0 } else { f64::MIN_POSITIVE };
            assert!(
                row.get("value").and_then(JsonValue::as_num).unwrap() >= least,
                "{w} {m}"
            );
            assert!(stdout.contains(&m), "{m} not printed");
        }
        // Probe rows are the same for every workload and listed once.
        let probes = result.get("probes").unwrap();
        for m in names(spec.get("per_layer").unwrap()) {
            let row = section
                .get("per_layer")
                .unwrap()
                .get(&m)
                .or_else(|| probes.get(&m))
                .unwrap_or_else(|| panic!("{w} {m}"));
            assert!(
                row.get("value")
                    .and_then(JsonValue::as_num)
                    .unwrap()
                    .is_finite(),
                "{w} {m}"
            );
        }
        assert_layers_only_where_they_run(&result, w);
        let trace = read_json(&format!("benchmarks/out/smoke/trace.{w}.json"));
        let spans = names(trace.get("spans").unwrap());
        for call in [
            "Job::place",
            "VictimPolicy::build",
            "run_experiment_streamed",
            "occupancy",
        ] {
            assert!(spans.iter().any(|s| s == call), "{w}: no span for {call}");
        }
    }
    let probe_spans = names(
        read_json("benchmarks/out/smoke/trace.probes.json")
            .get("spans")
            .unwrap(),
    );
    assert!(probe_spans.iter().all(|s| s.starts_with("probe:")) && !probe_spans.is_empty());

    // The same result held against itself: nothing regresses.
    let path = "benchmarks/out/smoke/result.json";
    let cmp = run(&["compare", path, path]);
    assert_eq!(
        cmp.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&cmp.stdout)
    );
}

fn single_workload_form_ends_with_the_result_object() {
    let spec = read_json("BENCHMARK.json");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&[
            "--workload",
            "observed_faulty",
            "--seed",
            "12",
            "--seconds",
            "0.05",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = parse(stdout.lines().last().expect("some output")).expect("a JSON last line");
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(last.get("failed").and_then(JsonValue::as_num), Some(0.0));
        assert!(last.get("attempted").and_then(JsonValue::as_num).unwrap() >= 1.0);
        assert_eq!(
            keys(last.get("metrics").unwrap()),
            names(spec.get(list).unwrap())
        );
    }
    let bad = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!bad.status.success());
}
