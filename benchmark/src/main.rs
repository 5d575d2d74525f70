//! The repo's one benchmark. See `README.md` next to this crate.
//!
//! ```text
//! benchmark run --workload W --seed S [--seconds N] [--trace 0|1] [--smoke]
//! benchmark selfcheck [--runs 10] [--smoke]
//! benchmark spec                      # prints BENCHMARK.json
//! ```

use benchmark::arms::{Report, RunCfg};
use benchmark::json::Json;
use benchmark::trace::Trace;
use benchmark::{churn, host, point, selfcheck, spec, wire};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark run --workload W --seed S [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
       benchmark selfcheck [--runs N] [--smoke] [--out DIR]
       benchmark spec
workloads: point_hot point_cold grow_churn server_mixed";

/// `--flag value` pairs and bare `--smoke`, in any order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--smoke" => flags.push((flag.clone(), None)),
                "--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--runs" => {
                    let value = it.next().ok_or(format!("{flag} needs a value"))?;
                    flags.push((flag.clone(), Some(value.clone())));
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Flags(flags))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(f, _)| f == flag) {
            None => Ok(default),
            Some((_, value)) => value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{flag}: cannot read its value")),
        }
    }
}

/// The `metrics` object of the result line: every declared metric in
/// declared order. One the workload is declared to carry (`carried`) must
/// have been measured, one it is not must not have been, and reads 0.
fn metrics_json<'a>(
    declared: impl Iterator<Item = (&'a str, &'a str, bool)>,
    values: &std::collections::BTreeMap<&'static str, f64>,
) -> Result<Json, String> {
    let mut fields = Vec::new();
    for (name, unit, carried) in declared {
        let value = match (values.get(name), carried) {
            (Some(value), true) => *value,
            (None, false) => 0.0,
            (None, true) => return Err(format!("{name} was not measured")),
            (Some(_), false) => return Err(format!("{name} is not declared for this workload")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        fields.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    if let Some(stray) = values.keys().find(|k| !fields.iter().any(|(n, _)| n == *k)) {
        return Err(format!("{stray} is not a declared metric"));
    }
    Ok(Json::obj(fields))
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let smoke = flags.has("--smoke");
    let cfg = RunCfg {
        workload: flags.value("--workload", String::new())?,
        seed: flags.value("--seed", 1u64)?,
        seconds: flags.value(
            "--seconds",
            if smoke {
                0.5
            } else {
                f64::from(spec::RUN_SECONDS)
            },
        )?,
        trace: flags.value("--trace", 0u8)? != 0,
        smoke,
        out_dir: flags.value("--out", PathBuf::from("benchmark/out"))?,
        placement: host::Placement::detect(),
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    let host = host::host_block(&cfg.placement);
    println!("host {}", host.line());

    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == cfg.workload)
        .ok_or(format!("unknown workload {:?}", cfg.workload))?;
    let began = std::time::Instant::now();
    let mut trace = Trace::new(cfg.trace);
    let mut report = Report::default();
    let root = trace.open("run", "bench", None);
    match workload.bit {
        spec::HOT => point::run(&cfg, true, &mut trace, root, &mut report),
        spec::COLD => point::run(&cfg, false, &mut trace, root, &mut report),
        spec::CHURN => churn::run(&cfg, &mut trace, root, &mut report),
        _ => wire::run(&cfg, &mut trace, root, &mut report),
    }
    trace.close(root, report.attempted);

    if cfg.trace {
        let layer = &mut report.per_layer;
        layer.insert("trace.overhead_frac", trace.overhead_frac());
        layer.insert("trace.spans", trace.span_count() as f64);
        layer.insert("trace.wall_s", began.elapsed().as_secs_f64());
        layer.extend(trace.self_ms_by_layer());
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
        let meta = vec![
            ("workload", Json::str(cfg.workload.as_str())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("host", host),
        ];
        trace
            .write(&path, meta)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace {}", path.display());
    }

    let correct = report.failed == 0 && report.broken.is_empty();
    for what in &report.broken {
        println!("guard FAILED: {what}");
    }
    let metrics = if cfg.trace {
        metrics_json(
            spec::PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.on & workload.bit != 0)),
            &report.per_layer,
        )?
    } else {
        metrics_json(
            spec::END_TO_END.iter().map(|m| (m.name, m.unit, true)),
            &report.end_to_end,
        )?
    };
    for (name, metric) in metrics.fields() {
        let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:40} {value:>16.4} {unit}");
    }
    println!("attempted {}  failed {}", report.attempted, report.failed);
    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", last.line());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => Flags::parse(rest).and_then(|flags| match cmd.as_str() {
            "run" => run(&flags),
            "selfcheck" => selfcheck::run(&flags_for_selfcheck(&flags)?),
            "spec" => {
                print!("{}", spec::benchmark_json().pretty());
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown command {other}")),
        }),
        None => Err("no command".to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn flags_for_selfcheck(flags: &Flags) -> Result<selfcheck::Cfg, String> {
    Ok(selfcheck::Cfg {
        runs: flags.value("--runs", 10usize)?,
        smoke: flags.has("--smoke"),
        out_dir: flags.value("--out", PathBuf::from("benchmark/out"))?,
    })
}
