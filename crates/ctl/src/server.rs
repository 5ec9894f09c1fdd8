//! The farmd daemon core: a [`Farm`] hosted behind a farm-net
//! [`NetServer`], serving the versioned [`ControlOp`] surface.
//!
//! Threading model: the farm is not shared — it lives on one
//! "farmd-core" thread that owns it outright. Connection handler
//! threads translate each [`Frame::Control`] into a request over an
//! mpsc channel and block (bounded) for the reply; the core serves ops
//! strictly in arrival order, so every operation observes a consistent
//! farm. The core's `recv_timeout` doubles as the periodic-replan
//! ticker.
//!
//! Every op lands in the audit trail: `ctl.ops`, `ctl.op.<kind>` and
//! `ctl.rejected` counters, the `ctl.op_latency_us` histogram, and one
//! [`Event::ControlOp`] per op through the farm's event sinks.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use farm_almanac::compile::compile_task_with_diagnostics;
use farm_core::prelude::*;
use farm_core::seeder::SeedKey;
use farm_net::{
    decode_checkpoint_any, encode_checkpoint_doc, CheckpointDoc, ControlOp, ControlReply,
    Diagnostic, Envelope, Frame, NetServer, SeedDescriptor, VSeedSnapshot,
};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::types::SwitchId;
use farm_telemetry::json::{array, quote, snapshot_json, Obj};

use crate::ckpt;
use crate::client::CtlClient;
use crate::config::{FarmdConfig, FedMembership};

/// Human names of the four resource kinds, in `Resources` index order.
const RESOURCE_NAMES: [&str; 4] = ["vcpu", "ram_mb", "tcam", "pcie_poll"];

/// One queued control request: the op plus the handler's reply slot.
struct CoreMsg {
    op: ControlOp,
    reply: mpsc::Sender<ControlReply>,
}

/// A running farmd instance: the hosted farm's core thread plus the
/// listening control endpoint.
pub struct Farmd {
    server: NetServer,
    core: Option<thread::JoinHandle<()>>,
    fed_reg: Option<thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    shutdown_drain: Duration,
    telemetry: Telemetry,
}

impl Farmd {
    /// Builds the farm, starts the core thread, binds the control
    /// endpoint.
    ///
    /// # Errors
    ///
    /// Bind failures, or the core thread dying during construction.
    pub fn start(config: FarmdConfig) -> io::Result<Farmd> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<CoreMsg>();
        let (ready_tx, ready_rx) = mpsc::channel::<Telemetry>();
        let core = {
            let config = config.clone();
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("farmd-core".into())
                .spawn(move || core_loop(config, rx, ready_tx, stop))?
        };
        let telemetry = ready_rx
            .recv()
            .map_err(|_| io::Error::other("farmd core died during startup"))?;
        let handler = {
            // mpsc senders are Send but not Sync; handlers clone one out
            // of the mutex per request.
            let tx = Mutex::new(tx);
            let stop = Arc::clone(&stop);
            let wait = config.request_timeout;
            Arc::new(move |env: &Envelope| -> Option<Frame> {
                let Frame::Control { op } = &env.frame else {
                    return None;
                };
                if stop.load(Ordering::Relaxed) {
                    return Some(Frame::Error {
                        message: "farmd is shutting down".into(),
                    });
                }
                let (reply_tx, reply_rx) = mpsc::channel();
                let sender = tx.lock().expect("ctl sender lock").clone();
                if sender
                    .send(CoreMsg {
                        op: op.clone(),
                        reply: reply_tx,
                    })
                    .is_err()
                {
                    return Some(Frame::Error {
                        message: "farmd core is gone".into(),
                    });
                }
                match reply_rx.recv_timeout(wait) {
                    Ok(reply) => Some(Frame::ControlReply { reply }),
                    Err(_) => Some(Frame::Error {
                        message: "farmd core did not answer in time".into(),
                    }),
                }
            })
        };
        let server = NetServer::bind(config.listen, &telemetry, handler)?;
        let fed_reg = match &config.fed {
            Some(fed) => {
                let fed = fed.clone();
                let local = server.local_addr();
                let switches = (config.spines + config.leaves) as u64;
                let quota = config.quota;
                let stop = Arc::clone(&stop);
                let telemetry = telemetry.clone();
                Some(
                    thread::Builder::new()
                        .name("farmd-fed-reg".into())
                        .spawn(move || {
                            registration_loop(fed, local, switches, quota, stop, telemetry)
                        })?,
                )
            }
            None => None,
        };
        Ok(Farmd {
            server,
            core: Some(core),
            fed_reg,
            stop,
            shutdown_drain: config.shutdown_drain,
            telemetry,
        })
    }

    /// The bound control address (the chosen port when listening on :0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The hosted farm's telemetry handle (shared with the transport).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// True once a shutdown op was served (or [`Farmd::stop`] ran).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Blocks until a `Shutdown` op arrives, then drains and tears the
    /// endpoint down.
    pub fn wait(mut self) {
        while !self.stop.load(Ordering::Relaxed) {
            thread::sleep(Duration::from_millis(20));
        }
        self.teardown();
    }

    /// Initiates shutdown locally (equivalent to serving a `Shutdown`
    /// op) and tears down.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.teardown();
    }

    fn teardown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Let in-flight replies reach their sockets before severing.
        thread::sleep(self.shutdown_drain);
        self.server.shutdown();
        if let Some(h) = self.core.take() {
            let _ = h.join();
        }
        if let Some(h) = self.fed_reg.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Farmd {
    fn drop(&mut self) {
        if self.core.is_some() {
            self.teardown();
        }
    }
}

/// The pod side of federation membership: register with the fedd
/// coordinator, then heartbeat it until shutdown. A rejected heartbeat
/// means the coordinator forgot us (it restarted), so the loop falls
/// back to registration; transport errors back off and retry — the
/// daemon keeps serving its own fabric whether or not the coordinator
/// is reachable.
fn registration_loop(
    fed: FedMembership,
    local: SocketAddr,
    switches: u64,
    quota: f64,
    stop: Arc<AtomicBool>,
    telemetry: Telemetry,
) {
    let advertise = fed.advertise.unwrap_or(local);
    let registrations = telemetry.counter("fed.pod.registrations");
    let beats = telemetry.counter("fed.pod.heartbeats");
    let errors = telemetry.counter("fed.pod.errors");
    let registered = telemetry.gauge("fed.pod.registered");
    let mut seq = 0u64;
    // Sleep in small steps so shutdown is never blocked on a beat gap.
    let nap = |total: Duration| {
        let step = Duration::from_millis(20);
        let mut left = total;
        while left > Duration::ZERO && !stop.load(Ordering::Relaxed) {
            let d = left.min(step);
            thread::sleep(d);
            left = left.saturating_sub(d);
        }
    };
    'session: while !stop.load(Ordering::Relaxed) {
        let client = CtlClient::connect_as(
            fed.coordinator,
            &format!("farmd/{}", fed.pod_name),
            Duration::from_secs(5),
        );
        match client.op(ControlOp::RegisterPod {
            name: fed.pod_name.clone(),
            addr: advertise.to_string(),
            switches,
            quota,
        }) {
            Ok(ControlReply::PodRegistered { .. }) => {
                registrations.inc();
                registered.set(1.0);
            }
            Ok(_) | Err(_) => {
                errors.inc();
                registered.set(0.0);
                nap(fed.heartbeat);
                continue 'session;
            }
        }
        while !stop.load(Ordering::Relaxed) {
            nap(fed.heartbeat);
            if stop.load(Ordering::Relaxed) {
                break 'session;
            }
            seq += 1;
            match client.op(ControlOp::PodHeartbeat {
                name: fed.pod_name.clone(),
                seq,
            }) {
                Ok(ControlReply::Ok) => beats.inc(),
                // Unknown pod (coordinator restarted) or transport
                // trouble: start a fresh session and re-register.
                Ok(_) | Err(_) => {
                    errors.inc();
                    registered.set(0.0);
                    continue 'session;
                }
            }
        }
    }
    registered.set(0.0);
}

/// The daemon's single-threaded heart: the farm it owns, the catalog of
/// submitted program sources (persisted into checkpoints so a cold
/// restart can recompile them), and the durability telemetry.
struct Core {
    farm: Farm,
    config: FarmdConfig,
    /// Source of every submitted task, by name — what `FARMCKP2`
    /// program records are written from.
    programs: BTreeMap<String, String>,
}

impl Core {
    fn telemetry(&self) -> Telemetry {
        self.farm.telemetry().clone()
    }
}

/// The deterministic churn plan `[faults] seed` asks for: crashes and
/// PCIe degradation over the leaf tier (leaves host seeds; leaf↔leaf
/// links don't exist in a spine-leaf fabric, so link flaps are left
/// out). Faults begin `fault_start` into virtual time — the warmup
/// window that lets the catalog load on a healthy fabric — and extend
/// `fault_horizon` beyond that.
fn churn_plan(config: &FarmdConfig, seed: u64) -> FaultPlan {
    let leaves: Vec<SwitchId> = (config.spines..config.spines + config.leaves)
        .map(|i| SwitchId(i as u32))
        .collect();
    let start = Time::ZERO + Dur::from_nanos(config.fault_start.as_nanos() as u64);
    FaultPlan::churn(
        seed,
        &leaves,
        start,
        start + Dur::from_nanos(config.fault_horizon.as_nanos() as u64),
        ChurnProfile {
            mean_gap: Dur::from_nanos(config.fault_mean_gap.as_nanos() as u64),
            weights: [2, 0, 1],
            ..ChurnProfile::default()
        },
    )
}

/// The core thread: owns the farm, serves ops in order, ticks replans,
/// periodic checkpoints and virtual time; on shutdown it drains queued
/// ops and writes a final checkpoint.
fn core_loop(
    config: FarmdConfig,
    rx: mpsc::Receiver<CoreMsg>,
    ready: mpsc::Sender<Telemetry>,
    stop: Arc<AtomicBool>,
) {
    let topo = Topology::spine_leaf(
        config.spines,
        config.leaves,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    );
    let mut builder = Farm::builder(topo).with_placement_threads(config.placement_threads);
    if let Some(seed) = config.fault_seed {
        builder = builder.with_fault_plan(churn_plan(&config, seed));
    }
    if let Some(path) = &config.event_log {
        match std::fs::File::create(path) {
            Ok(f) => {
                builder = builder.with_sink(Arc::new(JsonLinesSink::new(Box::new(
                    io::BufWriter::new(f),
                ))));
            }
            Err(e) => eprintln!("farmd: cannot open event log {}: {e}", path.display()),
        }
    }
    let farm = builder.build();
    let telemetry = farm.telemetry().clone();
    let mut core = Core {
        farm,
        config,
        programs: BTreeMap::new(),
    };
    if core.config.restore_on_boot && core.config.checkpoint_path.is_some() {
        match restore(&mut core) {
            ControlReply::Restored { seeds, skipped } if seeds > 0 || skipped > 0 => {
                eprintln!("farmd: boot restore: {seeds} seed(s) restored, {skipped} skipped");
            }
            ControlReply::Rejected { reason } => {
                eprintln!("farmd: boot restore failed: {reason}");
            }
            _ => {}
        }
    }
    if ready.send(telemetry.clone()).is_err() {
        return;
    }
    let ops = telemetry.counter("ctl.ops");
    let rejected = telemetry.counter("ctl.rejected");
    let latency = telemetry.latency_histogram("ctl.op_latency_us");
    let booted = Instant::now();
    let mut last_replan = Instant::now();
    let mut last_ckpt = Instant::now();
    let mut last_tick = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(CoreMsg { op, reply }) => {
                let started = Instant::now();
                let kind = op.kind();
                ops.inc();
                telemetry.counter(&format!("ctl.op.{kind}")).inc();
                let out = serve_op(&mut core, &op);
                let elapsed_us = started.elapsed().as_micros() as u64;
                latency.record(elapsed_us);
                let outcome = match &out {
                    ControlReply::Rejected { .. } | ControlReply::CompileFailed { .. } => {
                        rejected.inc();
                        "rejected"
                    }
                    _ => "ok",
                };
                let at_ns = core.farm.now().as_nanos();
                telemetry.emit_with(|| Event::ControlOp {
                    at_ns,
                    op: kind.to_string(),
                    outcome: outcome.to_string(),
                    elapsed_us,
                });
                let is_shutdown = matches!(op, ControlOp::Shutdown);
                let _ = reply.send(out);
                if is_shutdown {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Farmd was dropped without a shutdown op.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if let Some(every) = core.config.tick_interval {
            // Advance virtual time in wall-clock lockstep so heartbeats,
            // fault injection and recovery run while the daemon idles;
            // `tick_interval` bounds how stale the virtual clock runs.
            if last_tick.elapsed() >= every {
                last_tick = Instant::now();
                let target = Time::ZERO + Dur::from_nanos(booted.elapsed().as_nanos() as u64);
                core.farm.advance(target);
            }
        }
        if let Some(every) = core.config.replan_interval {
            if last_replan.elapsed() >= every {
                last_replan = Instant::now();
                let _ = core.farm.replan();
            }
        }
        if let Some(every) = core.config.checkpoint_interval {
            if last_ckpt.elapsed() >= every {
                last_ckpt = Instant::now();
                checkpoint(&mut core);
            }
        }
    }
    // Shutdown: serve whatever the handlers already queued (they block
    // on these replies), then make the state durable one last time.
    while let Ok(CoreMsg { op, reply }) = rx.try_recv() {
        let out = match op {
            ControlOp::Shutdown => ControlReply::Ok,
            op => serve_op(&mut core, &op),
        };
        let _ = reply.send(out);
    }
    if core.config.checkpoint_path.is_some() {
        checkpoint(&mut core);
    }
}

/// Serves one control op against the farm. Total: every failure becomes
/// a structured reply, never a panic.
fn serve_op(core: &mut Core, op: &ControlOp) -> ControlReply {
    let farm = &mut core.farm;
    match op {
        ControlOp::SubmitProgram { name, source } => submit(core, name, source),
        ControlOp::ListSeeds { from_index, limit } => list_seeds(farm, *from_index, *limit),
        ControlOp::DescribeSeed { key } => describe(farm, key),
        ControlOp::Stats { from_index, limit } => ControlReply::Json {
            body: stats_json(farm, *from_index, *limit),
        },
        ControlOp::MetricsDump => ControlReply::Json {
            body: metrics_json(farm),
        },
        ControlOp::Drain { switch } => match farm.drain(SwitchId(*switch)) {
            Ok((_, evacuated)) => ControlReply::Drained {
                switch: *switch,
                evacuated: evacuated as u64,
            },
            Err(e) => ControlReply::Rejected {
                reason: e.to_string(),
            },
        },
        ControlOp::Uncordon { switch } => match farm.uncordon(SwitchId(*switch)) {
            Ok(_) => ControlReply::Ok,
            Err(e) => ControlReply::Rejected {
                reason: e.to_string(),
            },
        },
        ControlOp::Replan => match farm.replan() {
            Ok(plan) => ControlReply::Replanned {
                actions: plan.actions.len() as u64,
                dropped_tasks: plan.dropped_tasks.len() as u64,
            },
            Err(e) => ControlReply::Rejected {
                reason: e.to_string(),
            },
        },
        ControlOp::Checkpoint => checkpoint(core),
        ControlOp::Restore => restore(core),
        ControlOp::Shutdown => ControlReply::Ok,
        ControlOp::ExportTask { task } => export_task(core, task),
        ControlOp::SubmitWithSnapshot {
            name,
            source,
            seeds,
        } => submit_with_snapshot(core, name, source, seeds),
        ControlOp::RemoveTask { task } => {
            if !farm.seeder().task_names().iter().any(|t| t == task) {
                return ControlReply::Rejected {
                    reason: format!("no task `{task}`"),
                };
            }
            match farm.remove_task(task) {
                Ok(()) => {
                    core.programs.remove(task);
                    ControlReply::Ok
                }
                Err(e) => ControlReply::Rejected {
                    reason: e.to_string(),
                },
            }
        }
        // Coordinator-side ops: a pod answers with a rejection (not a
        // wire error) so a misdirected farmctl gets a readable reason.
        ControlOp::RegisterPod { .. }
        | ControlOp::PodHeartbeat { .. }
        | ControlOp::ListPods
        | ControlOp::MigrateTask { .. } => ControlReply::Rejected {
            reason: format!("`{}` is a coordinator op; this is a pod (farmd)", op.kind()),
        },
    }
}

/// `ExportTask` (the migration export leg): checkpoint the task's live
/// seeds and hand back its program source plus every snapshot. The task
/// keeps running — removal is a separate op, so a failed import on the
/// target pod leaves the source pod intact.
fn export_task(core: &mut Core, task: &str) -> ControlReply {
    if !core.farm.seeder().task_names().iter().any(|t| t == task) {
        return ControlReply::Rejected {
            reason: format!("no task `{task}`"),
        };
    }
    let Some(source) = core.programs.get(task).cloned() else {
        return ControlReply::Rejected {
            reason: format!("task `{task}` has no recorded program source"),
        };
    };
    core.farm.checkpoint_seeds();
    let seeds = core
        .farm
        .export_checkpoints()
        .into_iter()
        .filter(|(key, _)| key.task == task)
        .map(|(key, snap)| (key.to_string(), snap))
        .collect();
    ControlReply::TaskExport { source, seeds }
}

/// `SubmitWithSnapshot` (the migration import leg): a normal submit —
/// same name rules, admission control and compilation — then the
/// carried snapshots land in the checkpoint store and exactly this
/// task's seeds roll forward to them.
fn submit_with_snapshot(
    core: &mut Core,
    name: &str,
    source: &str,
    seeds: &[(String, farm_net::SeedSnapshot)],
) -> ControlReply {
    let submitted = submit(core, name, source);
    if !matches!(submitted, ControlReply::Submitted { .. }) {
        return submitted;
    }
    core.farm.import_checkpoints(
        seeds
            .iter()
            .filter_map(|(key, snap)| parse_seed_key(key).map(|parsed| (parsed, snap.clone()))),
    );
    core.farm.restore_seeds_for(name);
    submitted
}

/// `SubmitProgram`: size gate → server-side compile with collected
/// diagnostics → admission control → deploy.
fn submit(core: &mut Core, name: &str, source: &str) -> ControlReply {
    let Core {
        farm,
        config,
        programs,
    } = core;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return ControlReply::Rejected {
            reason: format!("bad task name `{name}` (want [A-Za-z0-9_-]+)"),
        };
    }
    if farm.seeder().task_names().iter().any(|t| t == name) {
        return ControlReply::Rejected {
            reason: format!("task `{name}` is already deployed"),
        };
    }
    if source.len() > config.max_program_bytes {
        return ControlReply::Rejected {
            reason: format!(
                "program of {} bytes exceeds the {}-byte submission cap",
                source.len(),
                config.max_program_bytes
            ),
        };
    }
    let task = {
        let ctl = SdnController::new(farm.network().topology());
        let report = compile_task_with_diagnostics(name, source, &BTreeMap::new(), &ctl);
        match report.task {
            Some(task) => task,
            None => {
                return ControlReply::CompileFailed {
                    diagnostics: report
                        .diagnostics
                        .iter()
                        .map(|d| Diagnostic {
                            machine: d.machine.clone(),
                            phase: d.error.phase.to_string(),
                            line: d.error.span.line,
                            col: d.error.span.col,
                            message: d.error.message.clone(),
                        })
                        .collect(),
                }
            }
        }
    };
    if let Err(reason) = admission_check(farm, &task, config.quota) {
        return ControlReply::Rejected { reason };
    }
    let seeds = task.num_seeds() as u64;
    match farm.deploy_compiled(task) {
        Ok(plan) => {
            // Remember the source: checkpoints persist the catalog so a
            // restarted daemon can recompile and re-place every task.
            programs.insert(name.to_string(), source.to_string());
            ControlReply::Submitted {
                task: name.to_string(),
                seeds,
                actions: plan.actions.len() as u64,
            }
        }
        Err(e) => ControlReply::Rejected {
            reason: e.to_string(),
        },
    }
}

/// Per-submission resource quota: the task's minimum feasible demand
/// must fit into the live fabric's remaining headroom, scaled by the
/// configured quota, on every resource kind.
fn admission_check(
    farm: &Farm,
    task: &farm_almanac::compile::CompiledTask,
    quota: f64,
) -> Result<(), String> {
    let mut demand = Resources::ZERO;
    for m in &task.machines {
        let per_seed = m
            .util_of(&m.initial_state)
            .min_feasible()
            .map(|(r, _)| r)
            .unwrap_or(Resources::ZERO);
        for _ in 0..m.seeds.len() {
            demand = demand.add(&per_seed);
        }
    }
    let net = farm.network();
    let cordoned: std::collections::BTreeSet<SwitchId> =
        farm.cordoned_switches().into_iter().collect();
    let fenced: std::collections::BTreeSet<SwitchId> = farm.fenced_switches().into_iter().collect();
    let mut headroom = [0f64; 4];
    for id in net.switch_ids() {
        if !net.is_up(id) || !net.is_reachable(id) || cordoned.contains(&id) || fenced.contains(&id)
        {
            continue;
        }
        let cap = net.switch(id).expect("switch exists").effective_resources();
        let used = farm
            .soil(id)
            .map(|s| s.resources_in_use())
            .unwrap_or(Resources::ZERO);
        for (h, (c, u)) in headroom.iter_mut().zip(cap.0.iter().zip(used.0.iter())) {
            *h += c * quota - u;
        }
    }
    for i in 0..4 {
        if demand.0[i] > headroom[i] + 1e-9 {
            return Err(format!(
                "admission: demand {:.1} {} exceeds quota headroom {:.1}",
                demand.0[i], RESOURCE_NAMES[i], headroom[i]
            ));
        }
    }
    Ok(())
}

/// `Checkpoint`: captures every live seed, then — when a checkpoint
/// path is configured — persists the program catalog plus every
/// snapshot as a `FARMCKP2` file, atomically (temp + fsync + rename).
///
/// Persistence failure is *partial success*, not rejection: the
/// in-memory checkpoint already happened, so the reply carries the
/// seed count alongside `persist_error` instead of discarding it.
fn checkpoint(core: &mut Core) -> ControlReply {
    let seeds = core.farm.checkpoint_seeds() as u64;
    let mut persist_error = None;
    if let Some(path) = &core.config.checkpoint_path {
        // Drop catalog entries whose task has since been evicted or
        // drained away entirely; the file mirrors the live farm.
        let live = core.farm.seeder().task_names();
        core.programs
            .retain(|name, _| live.iter().any(|t| t == name));
        let doc = CheckpointDoc {
            programs: core
                .programs
                .iter()
                .map(|(n, s)| (n.clone(), s.clone()))
                .collect(),
            seeds: core
                .farm
                .export_checkpoints()
                .into_iter()
                .map(|(key, snap)| (key.to_string(), VSeedSnapshot::from(snap)))
                .collect(),
        };
        let bytes = encode_checkpoint_doc(&doc);
        let telemetry = core.telemetry();
        let started = Instant::now();
        match ckpt::write_atomic(path, &bytes) {
            Ok(()) => {
                telemetry
                    .latency_histogram("ckpt.write_us")
                    .record(started.elapsed().as_micros() as u64);
                telemetry.gauge("ckpt.bytes").set(bytes.len() as f64);
                telemetry.counter("ckpt.writes").inc();
            }
            Err(e) => {
                telemetry.counter("ckpt.write_errors").inc();
                persist_error = Some(format!("could not write {}: {e}", path.display()));
            }
        }
    }
    ControlReply::Checkpointed {
        seeds,
        persist_error,
    }
}

/// `Restore`: when a checkpoint path is configured and the file exists,
/// reloads it (any generation: salvageable `FARMCKP2`, strict
/// `FARMCKP1`, pre-versioning legacy). Program records recompile and
/// re-place any task missing from the live catalog — this is what lets
/// a freshly started daemon come back whole — then snapshots land in
/// the checkpoint store and live seeds roll back to them.
///
/// Entries whose seed key no longer parses are counted into `skipped`
/// and the `ctl.restore_skipped` counter instead of vanishing.
fn restore(core: &mut Core) -> ControlReply {
    let telemetry = core.telemetry();
    let mut skipped = 0u64;
    if let Some(path) = core.config.checkpoint_path.clone() {
        match std::fs::read(&path) {
            Ok(bytes) => match decode_checkpoint_any(&bytes) {
                Ok(load) => {
                    if load.salvaged || load.corrupt_records > 0 {
                        let recovered = load.doc.programs.len() + load.doc.seeds.len();
                        telemetry
                            .counter("ckpt.salvaged_entries")
                            .add(recovered as u64);
                        eprintln!(
                            "farmd: checkpoint {} was damaged; salvaged {recovered} record(s), \
                             dropped {}",
                            path.display(),
                            load.corrupt_records
                        );
                    }
                    for (name, source) in &load.doc.programs {
                        redeploy_program(core, name, source);
                    }
                    skipped = import_seed_entries(&mut core.farm, load.doc.seeds);
                }
                Err(e) => {
                    return ControlReply::Rejected {
                        reason: format!("{}: corrupt checkpoint file: {e}", path.display()),
                    }
                }
            },
            // No file yet: restore from the in-memory store alone.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                return ControlReply::Rejected {
                    reason: format!("{}: {e}", path.display()),
                }
            }
        }
    }
    if skipped > 0 {
        telemetry.counter("ctl.restore_skipped").add(skipped);
    }
    ControlReply::Restored {
        seeds: core.farm.restore_seeds() as u64,
        skipped,
    }
}

/// Loads checkpoint-file seed entries into the farm's checkpoint store,
/// returning how many were dropped for unparseable keys.
fn import_seed_entries(farm: &mut Farm, entries: Vec<(String, VSeedSnapshot)>) -> u64 {
    let mut skipped = 0u64;
    farm.import_checkpoints(entries.into_iter().filter_map(|(key, snap)| {
        let Some(parsed) = parse_seed_key(&key) else {
            skipped += 1;
            return None;
        };
        Some((parsed, snap.into_latest()))
    }));
    skipped
}

/// Recompiles and re-places one program from a checkpoint's catalog
/// records. Already-deployed tasks are left alone (a live `Restore`
/// op), and compile or placement failures are logged, not fatal —
/// crash recovery must restore every task it still can. Admission
/// control is deliberately bypassed: these tasks were admitted before
/// the restart.
fn redeploy_program(core: &mut Core, name: &str, source: &str) {
    if core.farm.seeder().task_names().iter().any(|t| t == name) {
        core.programs
            .entry(name.to_string())
            .or_insert_with(|| source.to_string());
        return;
    }
    let ctl = SdnController::new(core.farm.network().topology());
    let report = compile_task_with_diagnostics(name, source, &BTreeMap::new(), &ctl);
    let Some(task) = report.task else {
        eprintln!("farmd: restore: program `{name}` no longer compiles; skipping");
        return;
    };
    match core.farm.deploy_compiled(task) {
        Ok(_) => {
            core.programs.insert(name.to_string(), source.to_string());
        }
        Err(e) => eprintln!("farmd: restore: cannot re-place `{name}`: {e}"),
    }
}

/// `ListSeeds`: the full listing, or — when the op carries a cursor —
/// one page of it. The listing is sorted by seed key either way, so
/// concatenating pages reproduces the unpaginated reply exactly.
///
/// An unpaginated reply carries `next_index == total == 0`, keeping its
/// encoding byte-identical to the pre-cursor revision for old clients.
fn list_seeds(farm: &Farm, from_index: u64, limit: u64) -> ControlReply {
    let mut statuses = farm.seed_statuses();
    statuses.sort_by_cached_key(|s| s.key.to_string());
    if from_index == 0 && limit == 0 {
        return ControlReply::Seeds {
            seeds: statuses.iter().map(descriptor).collect(),
            next_index: 0,
            total: 0,
        };
    }
    let total = statuses.len() as u64;
    let start = from_index.min(total);
    let end = if limit == 0 {
        total
    } else {
        start.saturating_add(limit).min(total)
    };
    let seeds = statuses[start as usize..end as usize]
        .iter()
        .map(descriptor)
        .collect();
    ControlReply::Seeds {
        seeds,
        next_index: if end < total { end } else { 0 },
        total,
    }
}

fn descriptor(s: &SeedStatus) -> SeedDescriptor {
    SeedDescriptor {
        key: s.key.to_string(),
        task: s.key.task.clone(),
        machine: s.machine.clone(),
        switch: s.switch.0,
        state: s.state.clone(),
        alloc: s.alloc.0,
    }
}

/// Parses the `task/m<i>/s<j>` display form of a [`SeedKey`].
fn parse_seed_key(s: &str) -> Option<SeedKey> {
    let (rest, seed) = s.rsplit_once("/s")?;
    let (task, machine) = rest.rsplit_once("/m")?;
    Some(SeedKey {
        task: task.to_string(),
        machine: machine.parse().ok()?,
        seed: seed.parse().ok()?,
    })
}

fn describe(farm: &Farm, key: &str) -> ControlReply {
    let Some(parsed) = parse_seed_key(key) else {
        return ControlReply::Rejected {
            reason: format!("bad seed key `{key}` (want task/m<i>/s<j>)"),
        };
    };
    let Some(status) = farm.seed_statuses().into_iter().find(|s| s.key == parsed) else {
        return ControlReply::Rejected {
            reason: format!("no seed `{key}`"),
        };
    };
    let vars = farm.seed_vars(&parsed).unwrap_or_default();
    ControlReply::Seed {
        desc: descriptor(&status),
        vars,
    }
}

/// The `Stats` body: run summary plus the counter map (so `ctl.*` and
/// `farm.*` audit counters are one query away). A cursor on the op
/// pages through the counter map (it dominates the body size — one
/// entry per distinct metric); the page window plus
/// `counters_next_index` / `counters_total` fields appear only on
/// paginated requests, so the unpaginated body is unchanged.
fn stats_json(farm: &Farm, from_index: u64, limit: u64) -> String {
    let snap = farm.telemetry().snapshot();
    let tasks = array(farm.seeder().task_names().iter().map(|t| quote(t)));
    let cordoned = array(farm.cordoned_switches().iter().map(|s| s.0.to_string()));
    let fenced = array(farm.fenced_switches().iter().map(|s| s.0.to_string()));
    // Planner health at a glance: how often the farm replans, how long a
    // round takes, and whether the incremental solver is actually
    // serving warm rounds or degrading to full recomputes.
    let mut replan = Obj::new()
        .num("replans", snap.counter("farm.replans"))
        .num("replan_delta", snap.counter("farm.replan_delta"))
        .num(
            "delta_fallback_full",
            snap.counter("farm.delta_fallback_full"),
        );
    if let Some(h) = snap.histogram("farm.replan_us") {
        if let Some(p) = h.p50 {
            replan = replan.float("replan_us_p50", p);
        }
        if let Some(p) = h.p95 {
            replan = replan.float("replan_us_p95", p);
        }
    }
    if let Some(h) = snap.histogram("farm.replan_delta_us") {
        if let Some(p) = h.p95 {
            replan = replan.float("replan_delta_us_p95", p);
        }
    }
    Obj::new()
        .num("now_ns", farm.now().as_nanos())
        .raw("tasks", &tasks)
        .num("seeds", farm.deployed_seeds() as u64)
        .num("switches", farm.network().switch_ids().len() as u64)
        .raw("cordoned", &cordoned)
        .raw("fenced", &fenced)
        .num("recovery_pending", farm.recovery_pending() as u64)
        .raw("replan", &replan.finish())
        .counter_page(&snap.counters, from_index, limit)
        .finish()
}

/// The `MetricsDump` body: legacy compat view plus the whole registry
/// (counters, gauges, histograms).
fn metrics_json(farm: &Farm) -> String {
    let m = farm.metrics();
    let compat = Obj::new()
        .num("collector_messages", m.collector_messages)
        .num("collector_bytes", m.collector_bytes)
        .num("seed_messages", m.seed_messages)
        .num("seed_bytes", m.seed_bytes)
        .num("control_messages", m.control_messages)
        .num("control_bytes", m.control_bytes)
        .num("migrations", m.migrations)
        .num("migration_bytes", m.migration_bytes)
        .num("seed_errors", m.seed_errors)
        .num("replans", m.replans)
        .num("net_dead_letters", m.net_dead_letters)
        .num("transport_fallbacks", m.transport_fallbacks)
        .num("total_network_bytes", m.total_network_bytes())
        .finish();
    Obj::new()
        .raw("metrics", &compat)
        .raw("registry", &snapshot_json(&farm.telemetry().snapshot()))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_keys_round_trip_their_display_form() {
        let key = SeedKey {
            task: "hh-v2".into(),
            machine: 1,
            seed: 12,
        };
        assert_eq!(parse_seed_key(&key.to_string()), Some(key));
        assert!(parse_seed_key("nope").is_none());
        assert!(parse_seed_key("t/mX/s1").is_none());
    }

    #[test]
    fn stats_body_reports_replan_and_delta_health() {
        let topo = Topology::spine_leaf(
            2,
            3,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let mut farm = FarmBuilder::new(topo).build();
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        farm.replan().unwrap(); // a warm round so the delta counters move
        let body = stats_json(&farm, 0, 0);
        for field in [
            "\"replan\":",
            "\"replans\":",
            "\"replan_delta\":",
            "\"delta_fallback_full\":",
            "\"replan_us_p95\":",
        ] {
            assert!(body.contains(field), "stats body missing {field}: {body}");
        }
    }
}
