//! `place_churn`: single-seed churn events against the paper-scale
//! 10 200 seeds × 1 040 switches instance, each solved both from scratch
//! (`solve_heuristic`) and incrementally (`replan_delta` through a warm
//! `SolveState`) on identical inputs, the way `placement_scale --churn`
//! replays them. Every delta result must be bit-identical to the full
//! solve.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use farm_bench::perf::{percentile, Json};
use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;
use farm_placement::delta::{replan_delta, ReplanDelta, SolveState};
use farm_placement::heuristic::{solve_heuristic_traced, HeuristicOptions};
use farm_placement::model::{PlacementInstance, PlacementResult, PreviousPlacement};
use farm_placement::workload::{generate, WorkloadConfig};
use farm_telemetry::{Event, RingBufferSink, Telemetry};

use crate::trace::{SpanId, Tracer};
use crate::{ms, picker, set_up, Args, Outcome, Window};

const SEEDS: usize = 10_200;
const SWITCHES: usize = 1_040;
const TASKS: usize = 10;

fn as_previous(assignment: &[Option<(SwitchId, Resources)>]) -> PreviousPlacement {
    let mut prev = PreviousPlacement::default();
    for (s, slot) in assignment.iter().enumerate() {
        if let Some((n, res)) = slot {
            prev.assignment.insert(s, (*n, *res));
        }
    }
    prev
}

fn identical(a: &PlacementResult, b: &PlacementResult) -> bool {
    a.assignment == b.assignment
        && a.utility.to_bits() == b.utility.to_bits()
        && a.migrations == b.migrations
        && a.dropped_tasks == b.dropped_tasks
}

/// The paper-scale instance (the generator's default rng seed, as
/// `placement_scale` uses) and a warm incremental solver: one cold solve
/// fills the memo, one no-change round makes every entry warm. The
/// workload seed picks the churn events, not the instance, so runs with
/// different seeds solve the same fabric.
fn prepare(opts: HeuristicOptions) -> (PlacementInstance, SolveState, PlacementResult) {
    let mut inst = generate(&WorkloadConfig {
        n_switches: SWITCHES,
        n_tasks: TASKS,
        n_seeds: SEEDS,
        ..WorkloadConfig::default()
    });
    let mut state = SolveState::new();
    let (cold, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    inst.previous = Some(as_previous(&cold.assignment));
    let (warm, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    (inst, state, warm)
}

/// A telemetry handle that keeps the solver's `SolverPhase` events. Both
/// runs hand it to the solvers, as the control plane does, so the traced
/// run differs only in reading the events back.
fn phase_recorder() -> (Telemetry, Arc<RingBufferSink>) {
    let telemetry = Telemetry::new();
    let ring = Arc::new(RingBufferSink::new(16));
    telemetry.add_sink(ring.clone());
    (telemetry, ring)
}

/// Phase span names per solve kind, in `SolverPhase` order.
const PHASES: [&str; 3] = ["greedy", "lp_redistribution", "migration"];
const FULL_SPANS: [&str; 3] = [
    "placement.full.greedy",
    "placement.full.lp_redistribution",
    "placement.full.migration",
];
const DELTA_SPANS: [&str; 3] = [
    "placement.delta.greedy",
    "placement.delta.lp_redistribution",
    "placement.delta.migration",
];

/// Records the solver's phases as attributed children of `parent`;
/// returns their total, nanoseconds. Trace-only work, timed as overhead.
fn attribute_phases(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    ring: &RingBufferSink,
    names: &[&'static str; 3],
) -> u64 {
    if !tracer.on() {
        return 0;
    }
    tracer.overhead(|tracer| {
        let mut sum = 0;
        for ev in ring.events() {
            if let Event::SolverPhase {
                phase, elapsed_ns, ..
            } = ev
            {
                if let Some(i) = PHASES.iter().position(|p| *p == phase) {
                    tracer.attribute(names[i], parent, elapsed_ns);
                    sum += elapsed_ns;
                }
            }
        }
        ring.clear();
        sum
    })
}

pub fn place_churn(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("replan_delta", "solve_heuristic", "churn events");
    let opts = HeuristicOptions::default();
    let Some((mut inst, mut state, mut last)) = set_up(&mut out, || Ok(prepare(opts))) else {
        return out;
    };

    // The churned seed of each event comes from the workload seed.
    let mut pick = picker(args.seed);
    let (telemetry, ring) = phase_recorder();
    let mut frontiers = Vec::new();
    let mut reused = Vec::new();
    let mut fallbacks = 0u64;
    let mut delta_rest_us = Vec::new();
    let mut delta_ms = Vec::new();
    let mut window = Window::open(args.seconds);
    let mut i = 0u64;
    while i == 0 || window.running() {
        window.interlude(&mut out, || Ok(prepare(opts)));
        inst.previous = Some(as_previous(&last.assignment));
        // Alternate the two single-seed events the control plane makes
        // most often: a resubmission (the seed loses its seat and is
        // placed afresh) and a definition tweak (declared dirty).
        let s = pick(SEEDS);
        let delta = if i.is_multiple_of(2) {
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
        let root = tracer.open("event", None, i);
        let span = tracer.open("placement.full", root, i);
        let started = Instant::now();
        let full = solve_heuristic_traced(&inst, opts, Some(&telemetry));
        out.heavy_ms.push(ms(started.elapsed()));
        tracer.close(span);
        attribute_phases(tracer, span, &ring, &FULL_SPANS);

        let span = tracer.open("placement.delta", root, i);
        let started = Instant::now();
        let (dr, report) = replan_delta(&inst, opts, &mut state, &delta, Some(&telemetry));
        let took = ms(started.elapsed());
        delta_ms.push(took);
        tracer.close(span);
        let phases_ns = attribute_phases(tracer, span, &ring, &DELTA_SPANS);
        tracer.close(root);
        delta_rest_us.push((took * 1e3 - phases_ns as f64 / 1e3).max(0.0));

        let same = identical(&dr, &full);
        out.tally("churn event", !same);
        if !same {
            out.errors.push(format!(
                "churn event {i} (seed {s}): delta result differs from the full solve"
            ));
        }
        frontiers.push(report.frontier as f64);
        reused.push(report.reused as f64 / SWITCHES as f64);
        fallbacks += u64::from(report.fallback_full);
        last = dr;
        i += 1;
    }
    out.wall_s = window.wall_s();
    out.work = i as f64;
    out.op_ms.insert("replan_delta", delta_ms);
    out.info(
        "instance",
        Json::Str(format!(
            "{SEEDS} seeds x {SWITCHES} switches, {TASKS} tasks; churn drawn from seed {}",
            args.seed
        )),
    );
    out.info("placement_threads", Json::Num(opts.threads as f64));

    if tracer.on() {
        // One attributed span per phase per solve: the spans are the
        // per-event samples.
        let mut phase_us: BTreeMap<&str, Vec<f64>> = FULL_SPANS
            .iter()
            .chain(&DELTA_SPANS)
            .map(|s| (*s, Vec::new()))
            .collect();
        for span in tracer.spans() {
            if let Some(v) = phase_us.get_mut(span.name) {
                v.push((span.end_ns - span.start_ns) as f64 / 1e3);
            }
        }
        let p50 = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                percentile(v, 0.5)
            }
        };
        out.layer(
            "placement.full.greedy_us",
            p50(&phase_us["placement.full.greedy"]),
            "us",
        );
        out.layer(
            "placement.full.lp_redistribution_us",
            p50(&phase_us["placement.full.lp_redistribution"]),
            "us",
        );
        out.layer(
            "placement.full.migration_us",
            p50(&phase_us["placement.full.migration"]),
            "us",
        );
        out.layer(
            "placement.delta.greedy_us",
            p50(&phase_us["placement.delta.greedy"]),
            "us",
        );
        out.layer(
            "placement.delta.lp_redistribution_us",
            p50(&phase_us["placement.delta.lp_redistribution"]),
            "us",
        );
        out.layer(
            "placement.delta.migration_us",
            p50(&phase_us["placement.delta.migration"]),
            "us",
        );
        out.layer("placement.delta.unattributed_us", p50(&delta_rest_us), "us");
        out.layer("placement.delta.frontier", p50(&frontiers), "count");
        out.layer("placement.delta.reused_ratio", p50(&reused), "ratio");
        out.layer("placement.delta.fallback_full", fallbacks as f64, "count");
        // The event root's self time is the churn bookkeeping between
        // the two solves.
        out.unowned = vec!["event"];
    }
    out
}
