//! `sim_kiss` and `sim_flows`: detection-scenario replays through the
//! whole FARM stack (scenario → netsim → soil → harvester) with the
//! sFlow/Sonata baselines watching the same trace on a second fabric.
//!
//! The replay loop is the one `farm_bench::detection::drive` runs,
//! written out here so each layer call can be timed from outside: every
//! tick is a root span with `scenario.advance`, `core.apply_traffic`,
//! `core.advance` and `baselines` children.

use std::collections::HashSet;
use std::time::Instant;

use farm_baselines::sflow::{SflowConfig, SflowSystem};
use farm_baselines::sonata::{SonataConfig, SonataSystem};
use farm_bench::detection::{bench_doc, ScenarioRun, TaskOutcome};
use farm_bench::perf::Json;
use farm_core::{CollectingHarvester, Farm, FarmBuilder, FarmConfig, PlannedAction};
use farm_netsim::network::Network;
use farm_netsim::switch::SwitchModel;
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::Workload;
use farm_netsim::types::{PortId, SwitchId};
use farm_scenario::score::{score, Alarm};
use farm_scenario::{Scenario, ScenarioClass, ScenarioEnv, ScenarioScale, ScenarioSpec, TruthKey};

use crate::trace::Tracer;
use crate::{ms, set_up, Args, Outcome, Window};

/// `detection_quality` floors every FARM row must meet.
const RECALL_FLOOR: f64 = 0.9;
const PRECISION_FLOOR: f64 = 0.8;
/// Seeds whose smoke rows are committed in `BENCH_detection.json`.
const COMMITTED_BASELINE: &str = "BENCH_detection.json";
/// Rows of every replayed seed, kept so a later run of the same source
/// can check it scores the same.
const SCORES_DIR: &str = ".perfbench_out/scores";
/// Consecutive scenario seeds `sim_flows` cycles through.
const FLOW_SEEDS: u64 = 4;

/// The fabric `farm_bench::detection` replays on.
fn fabric() -> Topology {
    Topology::spine_leaf(
        2,
        4,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

/// One scenario, deployed and ready to replay.
struct Replay {
    scenario: Scenario,
    farm: Farm,
    baseline: Option<(Network, SflowSystem, SonataSystem)>,
    leaf: SwitchId,
}

/// Builds the scenario and the FARM stack and deploys the whole suite in
/// one placement round, as `farm_bench::detection::drive` does.
fn prepare(spec: &ScenarioSpec) -> Result<Replay, String> {
    let topology = fabric();
    let leaf = topology.leaves().next().ok_or("fabric has no leaves")?;
    let node = topology.node(leaf).ok_or("leaf node missing")?;
    let env = ScenarioEnv {
        switch: leaf,
        n_ports: node.model.num_ports,
        prefix: node.prefix.ok_or("leaf has no prefix")?,
    };
    let scenario = spec.build(&env);
    let mut builder = FarmBuilder::new(topology);
    for binding in &scenario.tasks {
        builder = builder.with_harvester(binding.def.name, Box::new(CollectingHarvester::new()));
    }
    let mut farm = builder.build();
    let batch: Vec<(&str, &str, _)> = scenario
        .tasks
        .iter()
        .map(|b| (b.def.name, b.def.source, b.externals.clone()))
        .collect();
    let plan = farm
        .deploy_tasks(&batch)
        .map_err(|e| format!("deploy suite: {e:?}"))?;
    let deployed: HashSet<&str> = plan
        .actions
        .iter()
        .filter_map(|a| match a {
            PlannedAction::Deploy { key, .. } => Some(key.task.as_str()),
            _ => None,
        })
        .collect();
    if let Some(b) = scenario
        .tasks
        .iter()
        .find(|b| !deployed.contains(b.def.name))
    {
        return Err(format!("planner dropped task {}", b.def.name));
    }
    let baseline = scenario.baseline_hh_bps.map(|hh_bps| {
        (
            Network::new(fabric()),
            SflowSystem::new(
                &[leaf],
                SflowConfig {
                    hh_threshold_bps: hh_bps,
                    ..SflowConfig::default()
                },
            ),
            SonataSystem::new(
                &[leaf],
                SonataConfig {
                    hh_threshold_bps: hh_bps,
                    ..SonataConfig::default()
                },
            ),
        )
    });
    Ok(Replay {
        scenario,
        farm,
        baseline,
        leaf,
    })
}

/// What one replay's ticks did, summed over the run.
#[derive(Default)]
struct Totals {
    virtual_ms: f64,
    events: u64,
    pcie_requests: u64,
    port_stats_read: u64,
    deliveries: u64,
    asic_polls: u64,
    polls_saved: u64,
}

/// Virtual length of the heavy op: one simulated second.
const SLICE: Dur = Dur::from_millis(1000);

/// Replays every tick of `r`, one root span per tick, recording each
/// tick's wall time as an op and each whole simulated second as a heavy
/// op. Between ticks the window may repeat the set-up of `spec`.
fn run_ticks(
    r: &mut Replay,
    spec: &ScenarioSpec,
    window: &mut Window,
    out: &mut Outcome,
    tracer: &mut Tracer,
    group: &mut u64,
    totals: &mut Totals,
) {
    let telemetry = r.farm.telemetry().clone();
    let counters = || {
        let s = telemetry.snapshot();
        (
            s.counter("pcie.requests"),
            s.counter("switch.port_stats_read"),
        )
    };
    let (pcie0, ports0) = counters();
    let soil0 = r.farm.soil_stats();
    let until = r.scenario.until;
    let tick = r.scenario.tick;
    let mut tick_ms = Vec::with_capacity((until.as_nanos() / tick.as_nanos().max(1)) as usize);
    let mut now = Time::ZERO;
    let mut slice_end = Time::ZERO + SLICE;
    let mut slice_ms = 0.0;
    while now < until {
        window.interlude(out, || prepare(spec));
        *group += 1;
        let g = *group;
        let started = Instant::now();
        let root = tracer.open("tick", None, g);
        let step = tick.min(until.since(now));
        let scenario = &mut r.scenario;
        let batch = tracer.time("scenario.advance", root, g, || {
            scenario.workload.advance(now, step)
        });
        totals.events += batch.len() as u64;
        let farm = &mut r.farm;
        tracer.time("core.apply_traffic", root, g, || farm.apply_traffic(&batch));
        now += step;
        tracer.time("core.advance", root, g, || farm.advance(now));
        if let Some((net, sflow, sonata)) = r.baseline.as_mut() {
            tracer.time("baselines", root, g, || {
                net.apply_traffic(&batch);
                sflow.observe_traffic(&batch, net);
                sonata.observe_traffic(&batch, net);
                sflow.advance(now, net);
                sonata.advance(now);
            });
        }
        tracer.close(root);
        let took = ms(started.elapsed());
        tick_ms.push(took);
        slice_ms += took;
        if now >= slice_end {
            out.heavy_ms.push(slice_ms);
            slice_ms = 0.0;
            slice_end += SLICE;
        }
    }
    let (pcie1, ports1) = counters();
    let soil1 = r.farm.soil_stats();
    totals.virtual_ms += until.as_nanos() as f64 / 1e6;
    totals.pcie_requests += pcie1 - pcie0;
    totals.port_stats_read += ports1 - ports0;
    totals.deliveries += soil1.deliveries - soil0.deliveries;
    totals.asic_polls += soil1.asic_polls - soil0.asic_polls;
    totals.polls_saved += soil1.polls_saved - soil0.polls_saved;
    out.op_ms.entry("tick").or_default().extend(tick_ms);
}

/// Scores FARM's alarms and the baselines' detections against the
/// planted truth, exactly as `farm_bench::detection::drive` does.
fn score_replay(r: &Replay) -> Result<Vec<TaskOutcome>, String> {
    let mut tasks = Vec::new();
    for binding in &r.scenario.tasks {
        let h: &CollectingHarvester = r
            .farm
            .harvester(binding.def.name)
            .ok_or_else(|| format!("no harvester for {}", binding.def.name))?;
        let alarms: Vec<Alarm> = h
            .received
            .iter()
            .filter_map(|m| {
                (binding.def.extract)(&m.value).map(|keys| Alarm {
                    at: m.arrival(),
                    keys,
                })
            })
            .collect();
        let windows = r.scenario.truth.of_kinds(&binding.kinds);
        tasks.push(TaskOutcome {
            task: binding.def.name.to_string(),
            system: "farm",
            grace_ms: binding.grace.as_millis(),
            score: score(&windows, &alarms, binding.grace),
        });
    }
    if let Some((_, sflow, sonata)) = &r.baseline {
        let windows = r.scenario.truth.of_kinds(&r.scenario.baseline_kinds);
        let port_alarms = |hits: &mut dyn Iterator<Item = (SwitchId, Time, PortId)>| -> Vec<Alarm> {
            hits.filter(|(sw, _, _)| *sw == r.leaf)
                .map(|(_, at, port)| Alarm {
                    at,
                    keys: [TruthKey::Port(port)].into_iter().collect(),
                })
                .collect()
        };
        // sFlow: counter-interval granularity plus one interval of export
        // latency; Sonata: window close, batch alignment and stage latency.
        let sflow_grace = Dur::from_millis(1000);
        let mut hits = sflow.detections.iter().map(|d| (d.switch, d.at, d.port));
        tasks.push(TaskOutcome {
            task: "hh_baseline".to_string(),
            system: "sflow",
            grace_ms: sflow_grace.as_millis(),
            score: score(&windows, &port_alarms(&mut hits), sflow_grace),
        });
        let sonata_grace = Dur::from_millis(5000);
        let mut hits = sonata.detections.iter().map(|d| (d.switch, d.at, d.port));
        tasks.push(TaskOutcome {
            task: "hh_baseline".to_string(),
            system: "sonata",
            grace_ms: sonata_grace.as_millis(),
            score: score(&windows, &port_alarms(&mut hits), sonata_grace),
        });
    }
    Ok(tasks)
}

/// The replay's rows in the `BENCH_detection.json` entry schema.
fn rows(spec: &ScenarioSpec, tasks: Vec<TaskOutcome>) -> Vec<Json> {
    let run = ScenarioRun {
        class: spec.class.name(),
        scale: spec.scale.name(),
        seed: spec.seed,
        events: 0,
        packets: 0,
        distinct_flows: 0,
        virtual_ms: 0,
        soil_asic_polls: 0,
        soil_polls_saved: 0,
        soil_deliveries: 0,
        tasks,
    };
    bench_doc(&[run])
        .get("entries")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default()
}

/// The committed rows for `spec`, when `BENCH_detection.json` has them.
fn committed_rows(spec: &ScenarioSpec) -> Result<Option<Vec<Json>>, String> {
    let src = match std::fs::read_to_string(COMMITTED_BASELINE) {
        Ok(s) => s,
        Err(_) => return Ok(None),
    };
    let doc = Json::parse(&src).map_err(|e| format!("{COMMITTED_BASELINE}: {e}"))?;
    let matches = |e: &&Json| {
        e.get("scenario").and_then(Json::as_str) == Some(spec.class.name())
            && e.get("scale").and_then(Json::as_str) == Some(spec.scale.name())
            && e.get("seed").and_then(Json::as_f64) == Some(spec.seed as f64)
    };
    let found: Vec<Json> = doc
        .get("entries")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(matches)
        .cloned()
        .collect();
    Ok((!found.is_empty()).then_some(found))
}

/// Where a seed's rows are kept between runs in the same checkout.
fn stored_path(spec: &ScenarioSpec) -> String {
    format!(
        "{SCORES_DIR}/{}-{}-{}.json",
        spec.class.name(),
        spec.scale.name(),
        spec.seed
    )
}

/// Rows an earlier run of the same source stored for `spec`; stores
/// `rows` when there are none. A file from other source is replaced.
fn earlier_rows(spec: &ScenarioSpec, digest: &str, rows: &[Json]) -> Option<Vec<Json>> {
    let path = stored_path(spec);
    let stored = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| Json::parse(&s).ok());
    if let Some(doc) =
        stored.filter(|d| d.get("source_digest").and_then(Json::as_str) == Some(digest))
    {
        return doc.get("rows").and_then(Json::as_arr).map(<[Json]>::to_vec);
    }
    let doc = Json::obj([
        ("source_digest", Json::Str(digest.to_string())),
        ("rows", Json::Arr(rows.to_vec())),
    ]);
    let written =
        std::fs::create_dir_all(SCORES_DIR).and_then(|()| std::fs::write(&path, doc.pretty()));
    if let Err(e) = written {
        eprintln!("perfbench: cannot store {path}: {e}");
    }
    None
}

/// Correctness of one replay's rows: FARM floors, same-seed equality
/// with the first replay of that seed in this run and in earlier runs of
/// the same source, and equality with the committed baseline where one
/// exists.
fn check_rows(
    spec: &ScenarioSpec,
    digest: &str,
    got: &[Json],
    first: &mut Vec<(u64, Vec<Json>)>,
    committed: Option<&[Json]>,
    errors: &mut Vec<String>,
) {
    let name = format!(
        "{}/{}/seed {}",
        spec.class.name(),
        spec.scale.name(),
        spec.seed
    );
    for row in got {
        if row.get("system").and_then(Json::as_str) != Some("farm") {
            continue; // sFlow/Sonata are comparison points, not gated
        }
        let task = row.get("task").and_then(Json::as_str).unwrap_or("?");
        let recall = row.get("recall").and_then(Json::as_f64).unwrap_or(0.0);
        let precision = row.get("precision").and_then(Json::as_f64).unwrap_or(0.0);
        if recall < RECALL_FLOOR || precision < PRECISION_FLOOR {
            errors.push(format!(
                "{name}: {task} recall {recall:.3} / precision {precision:.3} below floors"
            ));
        }
    }
    match first.iter().find(|(s, _)| *s == spec.seed) {
        Some((_, rows)) if rows.as_slice() != got => {
            errors.push(format!("{name}: same-seed replay scored differently"));
        }
        Some(_) => {}
        None => {
            if earlier_rows(spec, digest, got).is_some_and(|rows| rows.as_slice() != got) {
                errors.push(format!("{name}: scored differently than an earlier run"));
            }
            first.push((spec.seed, got.to_vec()));
        }
    }
    if let Some(want) = committed {
        if want != got {
            errors.push(format!("{name}: rows differ from {COMMITTED_BASELINE}"));
        }
    }
}

/// Replays until the measured window is used up, `seeds` consecutive
/// scenario seeds in turn starting at the workload seed. The first
/// replay is prepared during set-up.
fn replay_loop(
    args: &Args,
    class: ScenarioClass,
    scale: ScenarioScale,
    seeds: u64,
    tracer: &mut Tracer,
) -> Outcome {
    let spec_at = |i: u64| ScenarioSpec {
        class,
        scale,
        seed: args.seed.wrapping_add(i % seeds),
    };
    let mut out = Outcome::new("tick", "simulated second", "simulated ms");
    let Some(first_replay) = set_up(&mut out, || prepare(&spec_at(0))) else {
        return out;
    };
    let mut next = Some(first_replay);

    let mut totals = Totals::default();
    let mut first = Vec::new();
    let mut committed: Vec<(u64, Option<Vec<Json>>)> = Vec::new();
    let mut group = 0u64;
    let mut deploy_s = 0.0;
    let mut window = Window::open(args.seconds);
    let mut i = 0u64;
    while i == 0 || window.running() {
        let spec = spec_at(i);
        let mut replay = match next.take() {
            Some(r) => r,
            None => {
                group += 1;
                let started = Instant::now();
                let root = tracer.open("core.deploy", None, group);
                let r = prepare(&spec);
                tracer.close(root);
                deploy_s += started.elapsed().as_secs_f64();
                match r {
                    Ok(r) => r,
                    Err(e) => {
                        out.errors.push(format!("deploy {}: {e}", spec.seed));
                        break;
                    }
                }
            }
        };
        run_ticks(
            &mut replay,
            &spec,
            &mut window,
            &mut out,
            tracer,
            &mut group,
            &mut totals,
        );
        let scored = score_replay(&replay);
        // Reading the committed file is check work, not replay work.
        if !committed.iter().any(|(s, _)| *s == spec.seed) {
            match committed_rows(&spec) {
                Ok(rows) => committed.push((spec.seed, rows)),
                Err(e) => out.errors.push(e),
            }
        }
        let want = committed
            .iter()
            .find(|(s, _)| *s == spec.seed)
            .and_then(|(_, r)| r.as_deref());
        match scored {
            Ok(tasks) => {
                let before = out.errors.len();
                check_rows(
                    &spec,
                    &args.source_digest,
                    &rows(&spec, tasks),
                    &mut first,
                    want,
                    &mut out.errors,
                );
                let failed = out.errors.len() > before;
                out.tally("replay", failed);
            }
            Err(e) => {
                out.tally("replay", true);
                out.errors.push(e);
            }
        }
        i += 1;
    }
    out.wall_s = window.wall_s();
    out.work = totals.virtual_ms;

    let compared: Vec<u64> = committed
        .iter()
        .filter(|(_, r)| r.is_some())
        .map(|(s, _)| *s)
        .collect();
    out.info("replays", Json::Num(i as f64));
    out.info(
        "scenario_seeds",
        Json::Arr(first.iter().map(|(s, _)| Json::Num(*s as f64)).collect()),
    );
    out.info(
        "seeds_checked_against_committed_rows",
        Json::Arr(compared.iter().map(|s| Json::Num(*s as f64)).collect()),
    );
    out.info("traffic_events", Json::Num(totals.events as f64));
    out.info(
        "placement_threads",
        Json::Num(FarmConfig::default().placement_threads as f64),
    );

    if tracer.on() {
        let layers = tracer.layers();
        let total_s = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e9);
        let apply_ns = total_s("core.apply_traffic") * 1e9;
        let advance_us = total_s("core.advance") * 1e6;
        let requested = totals.asic_polls + totals.polls_saved;
        out.layer("scenario.advance_s", total_s("scenario.advance"), "s");
        out.layer("core.apply_traffic_s", total_s("core.apply_traffic"), "s");
        out.layer(
            "netsim.ns_per_event",
            apply_ns / totals.events.max(1) as f64,
            "ns",
        );
        out.layer("pcie.requests", totals.pcie_requests as f64, "count");
        out.layer(
            "switch.port_stats_read",
            totals.port_stats_read as f64,
            "count",
        );
        out.layer("core.advance_s", total_s("core.advance"), "s");
        out.layer(
            "soil.us_per_delivery",
            advance_us / totals.deliveries.max(1) as f64,
            "us",
        );
        out.layer("soil.deliveries", totals.deliveries as f64, "count");
        out.layer("soil.asic_polls", totals.asic_polls as f64, "count");
        out.layer(
            "soil.aggregation_ratio",
            totals.polls_saved as f64 / requested.max(1) as f64,
            "ratio",
        );
        out.layer("baselines.s", total_s("baselines"), "s");
        out.layer("core.deploy_s", deploy_s, "s");
        // Tick roots and the scoring after each replay belong to no layer.
        out.unowned = vec!["tick"];
    }
    out
}

pub fn sim_kiss(args: &Args, tracer: &mut Tracer) -> Outcome {
    replay_loop(
        args,
        ScenarioClass::FlashCrowd,
        ScenarioScale::Smoke,
        1,
        tracer,
    )
}

pub fn sim_flows(args: &Args, tracer: &mut Tracer) -> Outcome {
    replay_loop(
        args,
        ScenarioClass::MultiVector,
        ScenarioScale::Full,
        FLOW_SEEDS,
        tracer,
    )
}
