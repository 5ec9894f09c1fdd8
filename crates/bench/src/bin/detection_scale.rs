//! Machine-readable detection-quality harness.
//!
//! Replays the hostile-traffic scenario suite (`farm-scenario`) through
//! the full FARM stack and the sFlow/Sonata baselines, scores every
//! (scenario, task, system) triple against the planted ground truth,
//! and writes `BENCH_detection.json` in a stable schema
//! (`farm-bench/detection_scale/v1`). All numbers are virtual-time
//! deterministic: identical seeds produce byte-identical output.
//!
//! ```text
//! detection_scale [--smoke] [--seed N]... [--scenario NAME]...
//!                 [--out PATH] [--check BASELINE] [--max-regression X]
//! ```
//!
//! `--check` re-reads a committed baseline and exits non-zero when any
//! matching (scenario, scale, seed, task, system) entry lost more than
//! 0.1 absolute precision or recall, or its mean time-to-detect grew by
//! more than `--max-regression` (default 2.0) — the CI
//! `detection-smoke` gate.

use std::process::ExitCode;

use farm_bench::detection::{bench_doc, drive, SCHEMA};
use farm_scenario::{ScenarioClass, ScenarioScale, ScenarioSpec};
use farm_telemetry::json::Json;

struct Args {
    smoke: bool,
    seeds: Vec<u64>,
    scenarios: Vec<ScenarioClass>,
    out: String,
    check: Option<String>,
    max_regression: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        seeds: Vec::new(),
        scenarios: Vec::new(),
        out: "BENCH_detection.json".to_string(),
        check: None,
        max_regression: 2.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => args
                .seeds
                .push(val("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--scenario" => {
                let name = val("--scenario")?;
                let class = ScenarioClass::from_name(&name)
                    .ok_or_else(|| format!("unknown scenario `{name}`"))?;
                args.scenarios.push(class);
            }
            "--out" => args.out = val("--out")?,
            "--check" => args.check = Some(val("--check")?),
            "--max-regression" => {
                args.max_regression = val("--max-regression")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seeds.is_empty() {
        args.seeds.push(42);
    }
    if args.scenarios.is_empty() {
        args.scenarios = ScenarioClass::ALL.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("detection_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = if args.smoke {
        ScenarioScale::Smoke
    } else {
        ScenarioScale::Full
    };

    let mut runs = Vec::new();
    let mut ok = true;
    for &seed in &args.seeds {
        for &class in &args.scenarios {
            let spec = ScenarioSpec { class, scale, seed };
            let run = match drive(&spec) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("detection_scale: {} seed {seed}: {e}", class.name());
                    ok = false;
                    continue;
                }
            };
            println!(
                "== {} ({}, seed {seed}): {} events, {} flows, {} ms virtual ==",
                run.class, run.scale, run.events, run.distinct_flows, run.virtual_ms
            );
            for t in &run.tasks {
                println!(
                    "  {:<14} {:<6} precision {:.2} recall {:.2} ttd {} (alarms {}, windows {})",
                    t.task,
                    t.system,
                    t.score.precision,
                    t.score.recall,
                    t.score
                        .mean_ttd_ms
                        .map_or("-".to_string(), |v| format!("{v:.0} ms")),
                    t.score.alarms,
                    t.score.windows,
                );
            }
            runs.push(run);
        }
    }

    let doc = bench_doc(&runs);
    if let Err(e) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("detection_scale: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    if let Some(baseline_path) = &args.check {
        match check_regression(&doc, baseline_path, args.max_regression) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("detection_scale: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares against a committed baseline: each entry sharing (scenario,
/// scale, seed, task, system) must keep precision and recall within 0.1
/// absolute of the baseline and mean TTD within `max_regression ×`.
fn check_regression(
    doc: &Json,
    baseline_path: &str,
    max_regression: f64,
) -> Result<String, String> {
    let body = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = Json::parse(&body).map_err(|e| format!("bad baseline JSON: {e}"))?;
    if baseline.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("baseline {baseline_path} has a different schema"));
    }
    let key = |e: &Json| -> Option<(String, String, u64, String, String)> {
        Some((
            e.get("scenario")?.as_str()?.to_string(),
            e.get("scale")?.as_str()?.to_string(),
            e.get("seed")?.as_f64()? as u64,
            e.get("task")?.as_str()?.to_string(),
            e.get("system")?.as_str()?.to_string(),
        ))
    };
    let base_entries = baseline
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline has no entries")?;
    let mut compared = 0;
    for entry in doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(k) = key(entry) else { continue };
        let Some(base) = base_entries.iter().find(|b| key(b).as_ref() == Some(&k)) else {
            continue; // configuration not in the baseline (e.g. smoke vs full)
        };
        compared += 1;
        for metric in ["precision", "recall"] {
            let new_v = entry.get(metric).and_then(Json::as_f64).unwrap_or(0.0);
            let base_v = base.get(metric).and_then(Json::as_f64).unwrap_or(0.0);
            if base_v - new_v > 0.1 {
                return Err(format!(
                    "regression: {}/{}/{} {metric} {new_v:.2} vs baseline {base_v:.2}",
                    k.0, k.3, k.4
                ));
            }
        }
        let new_ttd = entry.get("mean_ttd_ms").and_then(Json::as_f64);
        let base_ttd = base.get("mean_ttd_ms").and_then(Json::as_f64);
        if let (Some(n), Some(b)) = (new_ttd, base_ttd) {
            if n / b.max(1e-9) > max_regression {
                return Err(format!(
                    "regression: {}/{}/{} mean_ttd_ms {n:.0} vs baseline {b:.0} \
                     (> {max_regression}x)",
                    k.0, k.3, k.4
                ));
            }
        }
    }
    if compared == 0 {
        return Err(format!(
            "no comparable entries between run and baseline {baseline_path}"
        ));
    }
    Ok(format!(
        "regression check vs {baseline_path}: {compared} entries within limits \
         (precision/recall drop <= 0.1, ttd <= {max_regression}x)"
    ))
}
