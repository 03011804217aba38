//! The whole benchmark at `--smoke` sizes: result schema, metric coverage,
//! and exact repeatability of the counts for one seed.
//!
//! One test function: the runs share `benchmark/out`, so they must not
//! overlap.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_linrv-benchmark");
const WORKLOADS: [&str; 4] = [
    "enforce-long",
    "observe-long",
    "pool-short",
    "offline-check",
];
const END_TO_END: [&str; 9] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_tail_us",
    "verdict_ms",
    "peak_rss_mb",
    "cpu_ms_per_kop",
    "scaling_exp",
    "detect_lag_ops",
];
/// Counts that one seed must reproduce exactly.
const EXACT_LAYERS: [&str; 5] = [
    "core.drv.view_len_p50",
    "core.drv.view_len_max",
    "core.verifier.tuple_pairs",
    "trace.jsonl.bytes_per_event",
    "trace.binary.bytes_per_event",
];

fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        output.status.code(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

fn all(seed: &str, out: &Path) -> Json {
    let out = out.to_str().expect("UTF-8 path");
    let (code, printed) = run(&[
        "all",
        "--smoke",
        "--seconds",
        "0",
        "--seed",
        seed,
        "--out",
        out,
    ]);
    assert_eq!(code, Some(0), "{printed}");
    Json::parse(&std::fs::read_to_string(out).expect("results were written"))
        .expect("results are JSON")
}

fn names(json: &Json) -> BTreeSet<String> {
    json.obj().expect("an object").keys().cloned().collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The exact counts of a results file: `detect_lag_ops`, the exact per-layer
/// counts and the input counts of every workload.
fn exact_counts(results: &Json) -> Vec<(String, f64)> {
    let mut counts = Vec::new();
    for workload in WORKLOADS {
        let entry = results
            .get("workloads")
            .and_then(|w| w.get(workload))
            .expect("every workload reports");
        let lag = entry
            .get("end_to_end")
            .and_then(|m| m.get("detect_lag_ops"))
            .and_then(|m| m.get("value"));
        counts.push((
            format!("{workload}/detect_lag_ops"),
            lag.and_then(Json::num).expect("a number"),
        ));
        for layer in EXACT_LAYERS {
            let value = entry
                .get("per_layer")
                .and_then(|l| l.get(layer))
                .and_then(Json::num);
            counts.push((format!("{workload}/{layer}"), value.expect("a number")));
        }
        for (name, value) in entry.get("counts").and_then(Json::obj).expect("counts") {
            counts.push((format!("{workload}/{name}"), value.num().expect("a number")));
        }
    }
    counts
}

#[test]
fn smoke_suite_reports_every_metric_and_repeats_its_counts() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    let manifest =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the root of the repository");
    let manifest = Json::parse(&manifest).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> BTreeSet<String> {
        manifest
            .get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|entry| Some(entry.get("name")?.str()?.to_string()))
            .collect()
    };
    let per_layer = listed("per_layer");
    assert!(per_layer.len() <= 128 && per_layer.iter().all(|name| name_ok(name)));
    assert_eq!(
        listed("end_to_end"),
        END_TO_END.iter().map(|name| name.to_string()).collect()
    );
    assert_eq!(
        listed("workloads"),
        WORKLOADS.iter().map(|name| name.to_string()).collect()
    );

    // --- the full set, twice with one seed and once with another.
    let first = all("42", &dir.join("smoke-a.json"));
    let again = all("42", &dir.join("smoke-b.json"));
    let other = all("43", &dir.join("smoke-c.json"));
    for key in [
        "schema",
        "seed",
        "smoke",
        "nproc",
        "load_1min",
        "total_s",
        "workloads",
    ] {
        assert!(first.get(key).is_some(), "results lack {key}");
    }
    assert_eq!(names(first.get("workloads").unwrap()), listed("workloads"));
    for workload in WORKLOADS {
        let entry = first
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap();
        assert_eq!(
            entry.get("failed").and_then(Json::num),
            Some(0.0),
            "{workload} failed an oracle"
        );
        assert!(entry.get("attempted").and_then(Json::num).unwrap() >= 1.0);
        assert!(entry.get("comparable").and_then(Json::bool).is_some());
        assert!(entry.get("why_not").is_some() && entry.get("run_s").is_some());
        let end_to_end = entry.get("end_to_end").unwrap();
        assert_eq!(names(end_to_end), listed("end_to_end"), "{workload}");
        for metric in END_TO_END {
            let reported = end_to_end.get(metric).unwrap();
            for key in ["unit", "value", "median", "q1", "q3", "n", "values"] {
                assert!(
                    reported.get(key).is_some(),
                    "{workload}/{metric} lacks {key}"
                );
            }
            let value = reported.get("value").and_then(Json::num).unwrap();
            assert!(
                value.is_finite() && value != 0.0,
                "{workload}/{metric} = {value}"
            );
        }
        let layers = entry.get("per_layer").unwrap();
        assert_eq!(
            names(layers),
            per_layer,
            "{workload} reports every per-layer metric, and only those"
        );
        assert!(
            layers
                .obj()
                .unwrap()
                .values()
                .all(|v| v.num().is_some_and(f64::is_finite)),
            "{workload}"
        );
    }
    let counts = exact_counts(&first);
    assert_eq!(counts, exact_counts(&again), "one seed, one set of counts");
    let changed: Vec<_> = counts
        .iter()
        .zip(exact_counts(&other))
        .filter(|(a, b)| **a != *b)
        .collect();
    assert!(
        WORKLOADS.iter().all(|workload| changed
            .iter()
            .any(|((name, _), _)| name.starts_with(workload))),
        "another seed changes the inputs of every workload: {changed:?}"
    );

    // --- the span file of a traced run.
    let spans = std::fs::read_to_string(dir.join("pool-short.spans.jsonl"))
        .expect("a span file per workload");
    let span = Json::parse(spans.lines().next().expect("at least one span"))
        .expect("one JSON object per line");
    assert_eq!(
        names(&span),
        ["end_ns", "id", "name", "op", "parent", "start_ns"]
            .map(String::from)
            .into()
    );

    // --- compare: a row for every workload and metric.
    let (code, table) = run(&[
        "compare",
        dir.join("smoke-a.json").to_str().unwrap(),
        dir.join("smoke-b.json").to_str().unwrap(),
    ]);
    assert!(matches!(code, Some(0 | 1)), "{table}");
    let rows = table
        .lines()
        .filter(|line| WORKLOADS.iter().any(|w| line.starts_with(w)))
        .count();
    assert!(rows >= WORKLOADS.len() * END_TO_END.len(), "{table}");

    // --- the form the driver runs: the last line is the result object.
    for (trace, expected) in [("0", listed("end_to_end")), ("1", per_layer)] {
        let (code, printed) = run(&[
            "--workload",
            "offline-check",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert_eq!(code, Some(0), "{printed}");
        let result = Json::parse(printed.lines().last().unwrap()).expect("the last line is JSON");
        assert_eq!(
            names(&result),
            ["attempted", "correct", "failed", "metrics"]
                .map(String::from)
                .into()
        );
        assert_eq!(
            result.get("correct").and_then(Json::bool),
            Some(true),
            "{printed}"
        );
        assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
        let metrics = result.get("metrics").unwrap();
        assert_eq!(names(metrics), expected);
        for metric in metrics.obj().unwrap().values() {
            assert_eq!(names(metric), ["unit", "value"].map(String::from).into());
        }
    }
    let (code, _) = run(&[
        "--workload",
        "no-such-workload",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    assert_eq!(code, Some(2));
}
