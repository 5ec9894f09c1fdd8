//! Detection-quality replay driver.
//!
//! Replays a [`farm_scenario`] hostile-traffic scenario through the full
//! FARM stack (netsim → soil → harvester) *and* through the sFlow/Sonata
//! baseline models on an identical second fabric, then scores every
//! system's alarms against the scenario's planted ground truth. Shared
//! by the `detection_scale` benchmark binary and the
//! `detection_quality` integration tests so both always measure the
//! same pipeline.

use std::collections::HashSet;

use farm_baselines::sflow::{SflowConfig, SflowSystem};
use farm_baselines::sonata::{SonataConfig, SonataSystem};
use farm_core::{CollectingHarvester, FarmBuilder};
use farm_netsim::network::Network;
use farm_netsim::switch::SwitchModel;
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::Workload;
use farm_netsim::types::FlowKey;
use farm_scenario::score::{score, Alarm, TaskScore};
use farm_scenario::{ScenarioEnv, ScenarioSpec, TruthKey};

use farm_telemetry::json::Json;

/// Scoring outcome of one (task, system) pair on one scenario.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Task name (`hh`, `ddos`, …) or baseline name (`hh_baseline`).
    pub task: String,
    /// `farm`, `sflow`, or `sonata`.
    pub system: &'static str,
    /// Post-window grace used when scoring, in milliseconds.
    pub grace_ms: u64,
    pub score: TaskScore,
}

/// Everything one scenario replay produced.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    pub class: &'static str,
    pub scale: &'static str,
    pub seed: u64,
    /// Traffic-event count of the replayed trace.
    pub events: u64,
    /// Packet count of the replayed trace.
    pub packets: u64,
    /// Distinct flow keys in the trace (full multi_vector exceeds 1 M).
    pub distinct_flows: u64,
    /// Virtual length of the replay, milliseconds.
    pub virtual_ms: u64,
    /// Fabric-wide ASIC polls issued by the soils.
    pub soil_asic_polls: u64,
    /// Polls avoided by soil poll-aggregation.
    pub soil_polls_saved: u64,
    /// Trigger deliveries executed by the soils.
    pub soil_deliveries: u64,
    pub tasks: Vec<TaskOutcome>,
}

/// The fabric every scenario replays on (paper-scale models, small
/// enough for CI).
fn fabric() -> Topology {
    Topology::spine_leaf(
        2,
        4,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

/// Builds and replays `spec`, scoring FARM tasks and (where the scenario
/// asks for them) the sFlow/Sonata baselines.
pub fn drive(spec: &ScenarioSpec) -> Result<ScenarioRun, String> {
    let topology = fabric();
    let leaf = topology.leaves().next().ok_or("fabric has no leaves")?;
    let node = topology.node(leaf).ok_or("leaf node missing")?;
    let env = ScenarioEnv {
        switch: leaf,
        n_ports: node.model.num_ports,
        prefix: node.prefix.ok_or("leaf has no prefix")?,
    };
    let mut scenario = spec.build(&env);

    // The FARM stack under test. Deploy the whole suite in a single
    // placement round: sequential per-task deploys let earlier tasks
    // grab opportunistic resource headroom and can starve later ones
    // off the fabric entirely, whereas the batch path sizes every seed's
    // minimum feasible allocation together.
    let mut builder = FarmBuilder::new(topology.clone());
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
            farm_core::PlannedAction::Deploy { key, .. } => Some(key.task.as_str()),
            _ => None,
        })
        .collect();
    for binding in &scenario.tasks {
        if !deployed.contains(binding.def.name) {
            return Err(format!(
                "planner dropped task {} (no seed placed)",
                binding.def.name
            ));
        }
    }

    // The baseline systems observe the identical trace on a second,
    // independent fabric so neither stack perturbs the other's counters.
    let mut baseline = scenario.baseline_hh_bps.map(|hh_bps| {
        let net = Network::new(fabric());
        let sflow = SflowSystem::new(
            &[leaf],
            SflowConfig {
                hh_threshold_bps: hh_bps,
                ..SflowConfig::default()
            },
        );
        let sonata = SonataSystem::new(
            &[leaf],
            SonataConfig {
                hh_threshold_bps: hh_bps,
                ..SonataConfig::default()
            },
        );
        (net, sflow, sonata)
    });

    let mut events = 0u64;
    let mut packets = 0u64;
    let mut flows: HashSet<FlowKey> = HashSet::new();
    let mut now = Time::ZERO;
    while now < scenario.until {
        let step = scenario.tick.min(scenario.until.since(now));
        let batch = scenario.workload.advance(now, step);
        events += batch.len() as u64;
        for e in &batch {
            packets += e.packets;
            flows.insert(e.flow);
        }
        farm.apply_traffic(&batch);
        now += step;
        farm.advance(now);
        if let Some((net, sflow, sonata)) = baseline.as_mut() {
            net.apply_traffic(&batch);
            sflow.observe_traffic(&batch, net);
            sonata.observe_traffic(&batch, net);
            sflow.advance(now, net);
            sonata.advance(now);
        }
    }

    let mut tasks = Vec::new();
    for binding in &scenario.tasks {
        let h: &CollectingHarvester = farm
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
        let windows = scenario.truth.of_kinds(&binding.kinds);
        tasks.push(TaskOutcome {
            task: binding.def.name.to_string(),
            system: "farm",
            grace_ms: binding.grace.as_millis(),
            score: score(&windows, &alarms, binding.grace),
        });
    }

    if let Some((_, sflow, sonata)) = &baseline {
        let windows = scenario.truth.of_kinds(&scenario.baseline_kinds);
        // sFlow: counter-interval granularity plus one interval of
        // export latency.
        let sflow_grace = Dur::from_millis(1000);
        let sflow_alarms: Vec<Alarm> = sflow
            .detections
            .iter()
            .filter(|d| d.switch == leaf)
            .map(|d| Alarm {
                at: d.at,
                keys: [TruthKey::Port(d.port)].into_iter().collect(),
            })
            .collect();
        tasks.push(TaskOutcome {
            task: "hh_baseline".to_string(),
            system: "sflow",
            grace_ms: sflow_grace.as_millis(),
            score: score(&windows, &sflow_alarms, sflow_grace),
        });
        // Sonata: window close + batch alignment + stage latency puts
        // results seconds after the traffic.
        let sonata_grace = Dur::from_millis(5000);
        let sonata_alarms: Vec<Alarm> = sonata
            .detections
            .iter()
            .filter(|d| d.switch == leaf)
            .map(|d| Alarm {
                at: d.at,
                keys: [TruthKey::Port(d.port)].into_iter().collect(),
            })
            .collect();
        tasks.push(TaskOutcome {
            task: "hh_baseline".to_string(),
            system: "sonata",
            grace_ms: sonata_grace.as_millis(),
            score: score(&windows, &sonata_alarms, sonata_grace),
        });
    }

    let soil = farm.soil_stats();
    Ok(ScenarioRun {
        class: scenario.class.name(),
        scale: scenario.scale.name(),
        seed: scenario.seed,
        events,
        packets,
        distinct_flows: flows.len() as u64,
        virtual_ms: scenario.until.as_millis(),
        soil_asic_polls: soil.asic_polls,
        soil_polls_saved: soil.polls_saved,
        soil_deliveries: soil.deliveries,
        tasks,
    })
}

/// Schema tag of the `BENCH_detection.json` document.
pub const SCHEMA: &str = "farm-bench/detection_scale/v1";

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn entry_json(run: &ScenarioRun, t: &TaskOutcome) -> Json {
    Json::obj([
        ("scenario", Json::Str(run.class.into())),
        ("scale", Json::Str(run.scale.into())),
        ("seed", Json::Num(run.seed as f64)),
        ("task", Json::Str(t.task.clone())),
        ("system", Json::Str(t.system.into())),
        ("windows", Json::Num(t.score.windows as f64)),
        ("detected", Json::Num(t.score.detected as f64)),
        ("alarms", Json::Num(t.score.alarms as f64)),
        ("true_alarms", Json::Num(t.score.true_alarms as f64)),
        ("precision", Json::Num(t.score.precision)),
        ("recall", Json::Num(t.score.recall)),
        ("mean_ttd_ms", opt_num(t.score.mean_ttd_ms)),
        ("key_precision", opt_num(t.score.key_precision)),
        ("key_recall", opt_num(t.score.key_recall)),
        ("grace_ms", Json::Num(t.grace_ms as f64)),
    ])
}

fn scenario_json(run: &ScenarioRun) -> Json {
    Json::obj([
        ("scenario", Json::Str(run.class.into())),
        ("scale", Json::Str(run.scale.into())),
        ("seed", Json::Num(run.seed as f64)),
        ("events", Json::Num(run.events as f64)),
        ("packets", Json::Num(run.packets as f64)),
        ("distinct_flows", Json::Num(run.distinct_flows as f64)),
        ("virtual_ms", Json::Num(run.virtual_ms as f64)),
        ("soil_asic_polls", Json::Num(run.soil_asic_polls as f64)),
        ("soil_polls_saved", Json::Num(run.soil_polls_saved as f64)),
        ("soil_deliveries", Json::Num(run.soil_deliveries as f64)),
    ])
}

/// The full `BENCH_detection.json` document for a set of replays — one
/// `entries` row per (scenario, task, system) plus one `scenarios` row
/// of trace statistics per replay. Key order and float formatting come
/// from [`Json::pretty`], so equal runs serialize byte-identically.
pub fn bench_doc(runs: &[ScenarioRun]) -> Json {
    let mut entries = Vec::new();
    let mut scenarios = Vec::new();
    for run in runs {
        for t in &run.tasks {
            entries.push(entry_json(run, t));
        }
        scenarios.push(scenario_json(run));
    }
    Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("entries", Json::Arr(entries)),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_scenario::{ScenarioClass, ScenarioScale};

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "interpreter-bound replay; run with --release (CI: detection-smoke)"
    )]
    fn drive_smoke_flash_crowd_scores_every_task() {
        let run = drive(&ScenarioSpec {
            class: ScenarioClass::FlashCrowd,
            scale: ScenarioScale::Smoke,
            seed: 7,
        })
        .unwrap();
        // 3 farm tasks + 2 baseline rows.
        assert_eq!(run.tasks.len(), 5);
        assert!(run.events > 0 && run.distinct_flows > 0);
        assert!(run.soil_asic_polls > 0);
        for t in &run.tasks {
            assert!((0.0..=1.0).contains(&t.score.precision), "{t:?}");
            assert!((0.0..=1.0).contains(&t.score.recall), "{t:?}");
        }
    }
}
