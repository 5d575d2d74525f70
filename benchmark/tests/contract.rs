//! `BENCHMARK.json`, the tables in `spec.rs` and what a run prints must be
//! one and the same thing.

use benchmark::json::{self, Json};
use benchmark::spec;
use std::path::Path;
use std::process::Command;

fn well_formed(name: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_spec_and_within_the_contract_limits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `benchmark spec > BENCHMARK.json`"
    );

    assert!((1..=60).contains(&spec::RUN_SECONDS));
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    assert!(spec::COMMAND.len() <= 32);
    let mut names: Vec<&str> = Vec::new();
    for w in &spec::WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        names.push(w.name);
    }
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for m in &spec::END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(unit_ok(m.unit) && ["lower", "higher"].contains(&m.better));
        names.push(m.name);
    }
    for m in &spec::PER_LAYER {
        assert!(unit_ok(m.unit) && ["lower", "higher"].contains(&m.better));
        names.push(m.name);
    }
    for name in &names {
        assert!(well_formed(name, 64), "bad name {name:?}");
    }
    let unique: std::collections::BTreeSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(spec::END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

/// One `--smoke` run; returns the parsed last line of its output.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--smoke", "--workload", workload, "--seed", "7"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("running the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = json::parse(stdout.lines().last().unwrap_or("")).expect("last line is JSON");
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    if trace {
        let file = out.join(format!("trace-{workload}-7.json"));
        let spans = json::parse(&std::fs::read_to_string(file).expect("trace file"))
            .expect("trace file parses");
        assert!(!spans.get("spans").expect("spans").as_arr().is_empty());
    }
    doc
}

fn value(doc: &Json, metric: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{metric} missing"))
}

/// `(name, unit)` of every metric a run printed, in order.
fn printed(doc: &Json) -> Vec<(String, String)> {
    doc.get("metrics")
        .expect("metrics")
        .fields()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (name.clone(), unit.to_string())
        })
        .collect()
}

/// Counts that depend on the seed alone, not on timing.
const EXACT: [&str; 6] = [
    "exhash.global_depth",
    "exhash.splits",
    "exhash.doublings",
    "vmsim.walk_steps_per_lookup.trad",
    "vmsim.tlb_miss_per_lookup.shortcut",
    "server.protocol_errors",
];

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let end_to_end: Vec<(String, String)> = spec::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let per_layer: Vec<(String, String)> = spec::PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    for w in &spec::WORKLOADS {
        let plain = smoke(w.name, false);
        assert_eq!(printed(&plain), end_to_end, "{} --trace 0", w.name);
        for m in &spec::END_TO_END {
            assert!(value(&plain, m.name) > 0.0, "{} {} is 0", w.name, m.name);
        }
        let traced = smoke(w.name, true);
        assert_eq!(printed(&traced), per_layer, "{} --trace 1", w.name);

        // A metric of a layer off this workload's path reads 0 (a run
        // that measured one anyway, or skipped one it carries, exits
        // non-zero: `smoke` would have failed above).
        for m in spec::PER_LAYER.iter().filter(|m| m.on & w.bit == 0) {
            assert_eq!(value(&traced, m.name), 0.0, "{} {}", w.name, m.name);
        }

        // Same command line, same operations: what does not depend on
        // timing repeats, the operation count first of all.
        let again = smoke(w.name, false);
        let traced_again = smoke(w.name, true);
        let attempted = |doc: &Json| doc.get("attempted").and_then(Json::as_f64);
        assert_eq!(attempted(&plain), attempted(&again), "{}", w.name);
        assert_eq!(attempted(&traced), attempted(&traced_again), "{}", w.name);
        assert_eq!(
            value(&plain, "mem_bytes_per_key"),
            value(&again, "mem_bytes_per_key"),
            "{}",
            w.name
        );
        for metric in EXACT {
            assert_eq!(
                value(&traced, metric),
                value(&traced_again, metric),
                "{} {metric}",
                w.name
            );
        }
    }
}
