//! `benchmark selfcheck`: run every workload `--runs` times in fresh
//! processes, each with another seed as the driver does, and hold every
//! end-to-end metric, `setup_s` included, to one rule: the spread
//! `(q3 - q1) / median` of its values must stay below a third of its
//! bound, and the medians of two interleaved halves of the runs must
//! agree within the bound. `attempted` must be the same number in every
//! run of a workload. Ends with one traced run per workload. Everything
//! lands in `<out>/selfcheck.json` — `BASELINE.json` is a copy of one
//! such file.

use crate::json::{self, Json};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::util::{median, quartiles};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub struct Cfg {
    pub runs: usize,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// The parsed last line of one child run.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn run_child(cfg: &Cfg, workload: &str, seed: usize, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out_dir);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let number = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
    Ok(RunResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics: doc
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect(),
    })
}

pub fn run(cfg: &Cfg) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    let mut traced = Vec::new();
    let mut all_ok = true;
    println!(
        "| workload | metric | median | q1 | q3 | spread | bound/3 | half A vs B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for workload in &WORKLOADS {
        let mut results = Vec::with_capacity(cfg.runs);
        for seed in 1..=cfg.runs {
            let result = run_child(cfg, workload.name, seed, false)?;
            eprintln!(
                "{} seed {seed}: correct {} attempted {} failed {}",
                workload.name, result.correct, result.attempted, result.failed
            );
            all_ok &= result.correct && result.failed == 0.0;
            results.push(result);
        }
        // Operation counts are fixed by the command line, not by how fast
        // the machine happened to be.
        if results.iter().any(|r| r.attempted != results[0].attempted) {
            println!("{}: `attempted` differs between runs", workload.name);
            all_ok = false;
        }
        for metric in &END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .map(|r| {
                    r.metrics
                        .iter()
                        .find(|(name, _)| name == metric.name)
                        .map_or(f64::NAN, |(_, v)| *v)
                })
                .collect();
            let (q1, mid, q3) = quartiles(&values);
            let spread = (q3 - q1) / mid;
            let half = |offset: usize| -> Vec<f64> {
                values.iter().skip(offset).step_by(2).copied().collect()
            };
            let shift = (median(&half(0)) - median(&half(1))).abs() / mid;
            let ok = spread <= metric.bound / 3.0
                && shift <= metric.bound
                && values.iter().all(|v| *v > 0.0);
            all_ok &= ok;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.2} | {} |",
                workload.name,
                metric.name,
                mid,
                q1,
                q3,
                spread,
                metric.bound / 3.0,
                shift,
                metric.bound,
                if ok { "ok" } else { "NOISY" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.name)),
                ("metric", Json::str(metric.name)),
                ("unit", Json::str(metric.unit)),
                ("median", Json::Num(mid)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("spread", Json::Num(spread)),
                ("half_shift", Json::Num(shift)),
                ("bound", Json::Num(metric.bound)),
                ("ok", Json::Bool(ok)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]));
        }
        let result = run_child(cfg, workload.name, 1, true)?;
        all_ok &= result.correct;
        traced.push((
            workload.name,
            Json::obj(result.metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ));
    }
    let doc = Json::obj([
        ("runs", Json::Num(cfg.runs as f64)),
        ("seconds", Json::Num(f64::from(crate::spec::RUN_SECONDS))),
        ("smoke", Json::Bool(cfg.smoke)),
        (
            "host",
            crate::host::host_block(&crate::host::Placement::detect()),
        ),
        ("end_to_end", Json::Arr(rows)),
        ("traced_seed_1", Json::obj(traced)),
    ]);
    let path = cfg.out_dir.join("selfcheck.json");
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {}; selfcheck {}",
        path.display(),
        if all_ok { "passed" } else { "FAILED" }
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
