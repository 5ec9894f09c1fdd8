//! Machine-readable placement perf harness.
//!
//! Sweeps Fig. 10-scale instances (up to the paper's 10 200 seeds ×
//! 1 040 switches), times the heuristic per phase (greedy / LP
//! redistribution / migration) through the `SolverPhase` telemetry
//! events, verifies that the parallel solver is bit-identical to the
//! sequential one, and writes `BENCH_placement.json` in a stable schema
//! (`farm-bench/placement_scale/v2`) that future PRs append runs to.
//!
//! `--churn` adds a replay section: against a warm instance at each
//! scale it replays N single-seed churn events (resubmissions and
//! definition tweaks), timing a from-scratch `solve_heuristic` against
//! `replan_delta` through a retained `SolveState` on *identical*
//! inputs, asserting bit-equality of the two placements in-harness and
//! recording full/delta p50/p95 wall times plus frontier statistics.
//!
//! ```text
//! placement_scale [--smoke] [--churn] [--iters N] [--events N]
//!                 [--threads N] [--out PATH]
//!                 [--check BASELINE] [--max-regression X]
//! ```
//!
//! `--check` is the CI `bench-smoke` gate. It enforces three things:
//!
//! 1. every (seeds, switches, threads) entry's p50 wall time stays
//!    within `--max-regression` (default 2.0×) of the committed
//!    baseline (v1 or v2 baselines both accepted);
//! 2. every churn entry's delta-vs-full p50 speedup clears a floor —
//!    5.0× at ≥ 10 000 seeds (the ISSUE acceptance bar), 2.0× below;
//! 3. every `parallel_active` entry beats single-threaded (speedup above
//!    1.0). An entry is `parallel_active` only when `threads > 1`, the
//!    instance is at or above `parallel_threshold`, *and* the host has
//!    at least `threads` cores — a 1-core host can demonstrate
//!    determinism but not speedup, so it is exempt by construction.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use farm_bench::perf::percentile;
use farm_placement::delta::{replan_delta, ReplanDelta, SolveState};
use farm_placement::heuristic::{solve_heuristic, solve_heuristic_traced, HeuristicOptions};
use farm_placement::model::{validate, PlacementInstance, PlacementResult, PreviousPlacement};
use farm_placement::workload::{generate, WorkloadConfig};
use farm_telemetry::json::Json;
use farm_telemetry::{Event, RingBufferSink, Telemetry};

const SCHEMA: &str = "farm-bench/placement_scale/v2";
const SCHEMA_V1: &str = "farm-bench/placement_scale/v1";
const PHASES: [&str; 3] = ["greedy", "lp_redistribution", "migration"];

struct Args {
    smoke: bool,
    churn: bool,
    iters: usize,
    events: usize,
    threads: usize,
    out: String,
    check: Option<String>,
    max_regression: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        churn: false,
        iters: 5,
        events: 0, // resolved after parsing: 12 smoke / 40 full
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        out: "BENCH_placement.json".to_string(),
        check: None,
        max_regression: 2.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--churn" => args.churn = true,
            "--iters" => args.iters = val("--iters")?.parse().map_err(|e| format!("{e}"))?,
            "--events" => args.events = val("--events")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => args.threads = val("--threads")?.parse().map_err(|e| format!("{e}"))?,
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
    if args.iters == 0 {
        return Err("--iters must be at least 1".into());
    }
    if args.events == 0 {
        args.events = if args.smoke { 12 } else { 40 };
    }
    Ok(args)
}

/// One timed solve: total wall micros plus per-phase micros drained from
/// the `SolverPhase` event stream.
fn timed_solve(
    instance: &PlacementInstance,
    threads: usize,
) -> (PlacementResult, f64, BTreeMap<&'static str, f64>, u64) {
    let telemetry = Telemetry::new();
    let ring = Arc::new(RingBufferSink::new(16));
    telemetry.add_sink(ring.clone());
    let start = Instant::now();
    let result = solve_heuristic_traced(
        instance,
        HeuristicOptions::with_threads(threads),
        Some(&telemetry),
    );
    let total_us = start.elapsed().as_nanos() as f64 / 1_000.0;
    let mut phases = BTreeMap::new();
    let mut migration_items = 0;
    for ev in ring.events() {
        if let Event::SolverPhase {
            phase,
            elapsed_ns,
            items,
        } = ev
        {
            if let Some(p) = PHASES.iter().find(|p| **p == phase) {
                phases.insert(*p, elapsed_ns as f64 / 1_000.0);
                if phase == "migration" {
                    migration_items = items;
                }
            }
        }
    }
    (result, total_us, phases, migration_items)
}

fn pct_obj(samples: &[f64]) -> Json {
    Json::obj([
        ("p50", Json::Num(percentile(samples, 0.50))),
        ("p95", Json::Num(percentile(samples, 0.95))),
    ])
}

fn as_previous(
    assignment: &[Option<(farm_netsim::types::SwitchId, farm_netsim::switch::Resources)>],
) -> PreviousPlacement {
    let mut prev = PreviousPlacement::default();
    for (s, slot) in assignment.iter().enumerate() {
        if let Some((n, res)) = slot {
            prev.assignment.insert(s, (*n, *res));
        }
    }
    prev
}

fn results_identical(a: &PlacementResult, b: &PlacementResult) -> bool {
    a.assignment == b.assignment
        && a.utility.to_bits() == b.utility.to_bits()
        && a.migrations == b.migrations
        && a.dropped_tasks == b.dropped_tasks
}

/// Churn replay at one scale: warm a retained [`SolveState`] on the
/// instance, then replay `events` single-seed churn events, timing a
/// from-scratch solve against the incremental one on identical inputs.
/// Returns the JSON entry plus the delta-vs-full p50 speedup for the
/// `--check` gate (`None` when equivalence was violated).
fn churn_replay(
    inst: &PlacementInstance,
    seeds: usize,
    switches: usize,
    tasks: usize,
    events: usize,
) -> (Json, Option<f64>) {
    let opts = HeuristicOptions::default();
    let mut inst = inst.clone();
    let mut state = SolveState::new();
    let (mut last, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    // One warm no-change round so every memo entry exists before timing.
    inst.previous = Some(as_previous(&last.assignment));
    let (warm, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    last = warm;

    let mut full_us = Vec::with_capacity(events);
    let mut delta_us = Vec::with_capacity(events);
    let mut delta_phases: BTreeMap<&'static str, Vec<f64>> =
        PHASES.iter().map(|p| (*p, Vec::new())).collect();
    let mut frontiers = Vec::with_capacity(events);
    let mut reused = Vec::with_capacity(events);
    let mut fallbacks = 0usize;
    let mut identical = true;
    for i in 0..events {
        inst.previous = Some(as_previous(&last.assignment));
        // Alternate the two single-seed event kinds the control plane
        // produces most often: a resubmission (the seed loses its seat
        // and is placed fresh — caught by the LP signatures alone) and
        // a definition tweak (invisible to signatures, declared dirty).
        let s = (i * 7919) % inst.seeds.len().max(1);
        let delta = if i % 2 == 0 {
            if let Some(prev) = &mut inst.previous {
                prev.assignment.remove(&s);
            }
            ReplanDelta::default()
        } else {
            match inst.seeds[s].polls.first_mut() {
                Some(p) => {
                    p.demand.constant += 0.01;
                    ReplanDelta::seeds([s])
                }
                None => ReplanDelta::default(),
            }
        };

        let t0 = Instant::now();
        let full = solve_heuristic(&inst, opts);
        full_us.push(t0.elapsed().as_nanos() as f64 / 1_000.0);

        let telemetry = Telemetry::new();
        let ring = Arc::new(RingBufferSink::new(16));
        telemetry.add_sink(ring.clone());
        let t1 = Instant::now();
        let (dr, report) = replan_delta(&inst, opts, &mut state, &delta, Some(&telemetry));
        delta_us.push(t1.elapsed().as_nanos() as f64 / 1_000.0);
        for ev in ring.events() {
            if let Event::SolverPhase {
                phase, elapsed_ns, ..
            } = ev
            {
                if let Some(p) = PHASES.iter().find(|p| **p == phase) {
                    delta_phases
                        .get_mut(p)
                        .expect("known phase")
                        .push(elapsed_ns as f64 / 1_000.0);
                }
            }
        }

        if !results_identical(&dr, &full) {
            eprintln!(
                "placement_scale: churn event {i} at {seeds} seeds: delta diverged from full"
            );
            identical = false;
        }
        frontiers.push(report.frontier as f64);
        reused.push(report.reused as f64);
        if report.fallback_full {
            fallbacks += 1;
        }
        last = dr;
    }

    let full_p50 = percentile(&full_us, 0.50);
    let delta_p50 = percentile(&delta_us, 0.50);
    let speedup = full_p50 / delta_p50.max(1e-9);
    println!(
        "  churn: {events} events, full p50 {:.0} us, delta p50 {:.0} us, speedup {speedup:.1}x, \
         frontier p50 {:.0}, fallbacks {fallbacks}, identical={identical}",
        full_p50,
        delta_p50,
        percentile(&frontiers, 0.50),
    );
    println!(
        "  churn delta phases p50:{}",
        delta_phases
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(p, v)| format!(" {p} {:.0} us", percentile(v, 0.50)))
            .collect::<String>(),
    );
    let delta_phase_us = Json::Obj(
        PHASES
            .iter()
            .filter(|p| !delta_phases[*p].is_empty())
            .map(|p| (p.to_string(), pct_obj(&delta_phases[p])))
            .collect(),
    );
    let entry = Json::obj([
        ("seeds", Json::Num(seeds as f64)),
        ("switches", Json::Num(switches as f64)),
        ("tasks", Json::Num(tasks as f64)),
        ("events", Json::Num(events as f64)),
        ("full_us", pct_obj(&full_us)),
        ("delta_us", pct_obj(&delta_us)),
        ("delta_phase_us", delta_phase_us),
        ("speedup_delta_vs_full", Json::Num(speedup)),
        ("frontier", pct_obj(&frontiers)),
        ("reused", pct_obj(&reused)),
        ("fallback_full", Json::Num(fallbacks as f64)),
        ("identical_to_full_solve", Json::Bool(identical)),
    ]);
    (entry, identical.then_some(speedup))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("placement_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (seeds, switches, tasks) scales; full mode tops out at the paper's
    // 10 200 × 1 040 regime, smoke keeps CI fast.
    let scales: &[(usize, usize, usize)] = if args.smoke {
        &[(1_000, 128, 8)]
    } else {
        &[(1_000, 128, 8), (4_000, 512, 10), (10_200, 1_040, 10)]
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel_threshold = HeuristicOptions::default().parallel_threshold;
    let mut thread_counts = vec![1usize, 2, args.threads.max(1)];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut entries = Vec::new();
    let mut churn_entries = Vec::new();
    // (seeds, speedup) per parallel_active entry, and per churn entry —
    // gate inputs collected in-memory so `--check` does not re-parse.
    let mut active_speedups: Vec<(usize, usize, Option<f64>)> = Vec::new();
    let mut churn_speedups: Vec<(usize, Option<f64>)> = Vec::new();
    let mut ok = true;
    for &(seeds, switches, tasks) in scales {
        println!("== {seeds} seeds x {switches} switches ({tasks} tasks) ==");
        let inst = generate(&WorkloadConfig {
            n_switches: switches,
            n_tasks: tasks,
            n_seeds: seeds,
            ..WorkloadConfig::default()
        });
        let mut reference: Option<PlacementResult> = None;
        let mut seq_p50: Option<f64> = None;
        for &threads in &thread_counts {
            let mut totals = Vec::with_capacity(args.iters);
            let mut phase_samples: BTreeMap<&'static str, Vec<f64>> =
                PHASES.iter().map(|p| (*p, Vec::new())).collect();
            let mut last = None;
            let mut migration_items = 0;
            // One discarded warmup solve so the first recorded iteration
            // does not pay cold caches / first-touch allocation.
            let _ = timed_solve(&inst, threads);
            for _ in 0..args.iters {
                let (result, total_us, phases, mig) = timed_solve(&inst, threads);
                totals.push(total_us);
                for (p, us) in phases {
                    phase_samples.get_mut(p).expect("known phase").push(us);
                }
                migration_items = mig;
                last = Some(result);
            }
            let result = last.expect("at least one iter");
            if let Err(e) = validate(&inst, &result) {
                eprintln!("placement_scale: invalid placement at threads={threads}: {e:?}");
                ok = false;
            }
            let identical = match &reference {
                None => {
                    reference = Some(result.clone());
                    true
                }
                Some(r) => results_identical(r, &result),
            };
            if !identical {
                eprintln!(
                    "placement_scale: threads={threads} diverged from sequential at {seeds} seeds"
                );
                ok = false;
            }
            let p50 = percentile(&totals, 0.50);
            if threads == 1 {
                seq_p50 = Some(p50);
            }
            let speedup = seq_p50.map(|s| s / p50);
            let parallel_active =
                threads > 1 && seeds >= parallel_threshold && host_threads >= threads;
            if parallel_active {
                active_speedups.push((seeds, threads, speedup));
            }
            let r = &result;
            println!(
                "  threads={threads}: p50 {:.0} us, p95 {:.0} us, utility {:.2}, placed {}, \
                 migrations {}, identical={identical}, parallel_active={parallel_active}{}",
                p50,
                percentile(&totals, 0.95),
                r.utility,
                r.placed(),
                r.migrations,
                speedup.map_or(String::new(), |s| format!(", speedup {s:.2}x")),
            );
            let phase_us = Json::Obj(
                PHASES
                    .iter()
                    .filter(|p| !phase_samples[*p].is_empty())
                    .map(|p| (p.to_string(), pct_obj(&phase_samples[p])))
                    .collect(),
            );
            entries.push(Json::obj([
                ("seeds", Json::Num(seeds as f64)),
                ("switches", Json::Num(switches as f64)),
                ("tasks", Json::Num(tasks as f64)),
                ("threads", Json::Num(threads as f64)),
                (
                    // Hardware context: with one host core, threads>1 can
                    // only demonstrate determinism, not speedup.
                    "host_threads",
                    Json::Num(host_threads as f64),
                ),
                ("parallel_threshold", Json::Num(parallel_threshold as f64)),
                ("parallel_active", Json::Bool(parallel_active)),
                ("iters", Json::Num(args.iters as f64)),
                ("total_us", pct_obj(&totals)),
                ("phase_us", phase_us),
                ("objective", Json::Num(r.utility)),
                ("placed", Json::Num(r.placed() as f64)),
                ("migrations", Json::Num(r.migrations as f64)),
                ("migration_moves", Json::Num(migration_items as f64)),
                ("dropped_tasks", Json::Num(r.dropped_tasks.len() as f64)),
                ("identical_to_single_thread", Json::Bool(identical)),
                (
                    "speedup_vs_single_thread",
                    speedup.map_or(Json::Null, Json::Num),
                ),
            ]));
        }
        if args.churn {
            let (entry, speedup) = churn_replay(&inst, seeds, switches, tasks, args.events);
            churn_entries.push(entry);
            churn_speedups.push((seeds, speedup));
        }
    }

    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("entries", Json::Arr(entries)),
        ("churn", Json::Arr(churn_entries)),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("placement_scale: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    if args.check.is_some() {
        // Gate 2: churn speedup floors (on this run's own numbers).
        for &(seeds, speedup) in &churn_speedups {
            let floor = if seeds >= 10_000 { 5.0 } else { 2.0 };
            match speedup {
                Some(s) if s >= floor => {
                    println!("churn gate: {seeds} seeds speedup {s:.1}x >= {floor}x");
                }
                Some(s) => {
                    eprintln!(
                        "placement_scale: churn speedup {s:.1}x below the {floor}x floor at \
                         {seeds} seeds"
                    );
                    ok = false;
                }
                None => {
                    eprintln!("placement_scale: churn equivalence failed at {seeds} seeds");
                    ok = false;
                }
            }
        }
        // Gate 3: profitable parallelism wherever it actually engaged.
        for &(seeds, threads, speedup) in &active_speedups {
            match speedup {
                Some(s) if s > 1.0 => {
                    println!("parallel gate: {seeds} seeds threads={threads} speedup {s:.2}x");
                }
                Some(s) => {
                    eprintln!(
                        "placement_scale: parallel_active threads={threads} at {seeds} seeds \
                         is not profitable (speedup {s:.2}x <= 1.0)"
                    );
                    ok = false;
                }
                None => {}
            }
        }
    }

    if let Some(baseline_path) = &args.check {
        match check_regression(&doc, baseline_path, args.max_regression) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("placement_scale: {e}");
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

/// Compares the run against a committed baseline: every entry sharing
/// (seeds, switches, threads) must keep `total_us.p50` within
/// `max_regression ×` of the baseline. Accepts v1 and v2 baselines (v1
/// has no churn section; churn entries are compared when both sides
/// carry them, keyed by (seeds, switches)).
fn check_regression(
    doc: &Json,
    baseline_path: &str,
    max_regression: f64,
) -> Result<String, String> {
    let body = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = Json::parse(&body).map_err(|e| format!("bad baseline JSON: {e}"))?;
    let schema = baseline.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) && schema != Some(SCHEMA_V1) {
        return Err(format!("baseline {baseline_path} has a different schema"));
    }
    let key = |e: &Json| -> Option<(u64, u64, u64)> {
        Some((
            e.get("seeds")?.as_f64()? as u64,
            e.get("switches")?.as_f64()? as u64,
            e.get("threads")?.as_f64()? as u64,
        ))
    };
    let p50_of = |e: &Json, field: &str| {
        e.get(field)
            .and_then(|t| t.get("p50"))
            .and_then(Json::as_f64)
    };
    let base_entries = baseline
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline has no entries")?;
    let mut compared = 0;
    let mut worst: f64 = 0.0;
    for entry in doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(k) = key(entry) else { continue };
        let Some(new_p50) = p50_of(entry, "total_us") else {
            continue;
        };
        let Some(base_p50) = base_entries
            .iter()
            .find(|b| key(b) == Some(k))
            .and_then(|b| p50_of(b, "total_us"))
        else {
            continue; // scale not in the baseline (e.g. smoke vs full)
        };
        let ratio = new_p50 / base_p50.max(1e-9);
        compared += 1;
        worst = worst.max(ratio);
        if ratio > max_regression {
            return Err(format!(
                "regression: {}x{} threads={} p50 {new_p50:.0} us vs baseline {base_p50:.0} us \
                 ({ratio:.2}x > {max_regression}x)",
                k.0, k.1, k.2
            ));
        }
    }
    // Churn regression: delta p50 against the baseline's, same limit.
    let churn_key = |e: &Json| -> Option<(u64, u64)> {
        Some((
            e.get("seeds")?.as_f64()? as u64,
            e.get("switches")?.as_f64()? as u64,
        ))
    };
    let base_churn = baseline.get("churn").and_then(Json::as_arr).unwrap_or(&[]);
    for entry in doc.get("churn").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(k) = churn_key(entry) else { continue };
        let Some(new_p50) = p50_of(entry, "delta_us") else {
            continue;
        };
        let Some(base_p50) = base_churn
            .iter()
            .find(|b| churn_key(b) == Some(k))
            .and_then(|b| p50_of(b, "delta_us"))
        else {
            continue;
        };
        let ratio = new_p50 / base_p50.max(1e-9);
        compared += 1;
        worst = worst.max(ratio);
        if ratio > max_regression {
            return Err(format!(
                "churn regression: {}x{} delta p50 {new_p50:.0} us vs baseline {base_p50:.0} us \
                 ({ratio:.2}x > {max_regression}x)",
                k.0, k.1
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "no comparable entries between run and baseline {baseline_path}"
        ));
    }
    Ok(format!(
        "regression check vs {baseline_path}: {compared} entries, worst ratio {worst:.2}x \
         (limit {max_regression}x)"
    ))
}
