//! The fedd daemon core: the pod [`Registry`] hosted behind a farm-net
//! [`NetServer`], serving the same versioned [`ControlOp`] surface a
//! farmd does — but federated over every registered pod.
//!
//! Threading model mirrors farmd's: one "fedd-core" thread owns the
//! registry, the routing table and one control-plane client per pod;
//! connection handlers forward each [`Frame::Control`] over an mpsc
//! channel and block (bounded) for the reply. The core's `recv_timeout`
//! doubles as the heartbeat-liveness sweep ticker.
//!
//! Coordinator ops (`RegisterPod`, `PodHeartbeat`, `ListPods`,
//! `MigrateTask`) are served locally; the legacy surface fans out:
//! reads (`ListSeeds` / `Stats` / `MetricsDump` / `Replan` /
//! `Checkpoint` / `Restore`) merge every live pod's answer into one
//! versioned reply with the existing cursor pagination, writes
//! (`SubmitProgram`, `Drain`, `Uncordon`, `RemoveTask`) route through
//! the [`split`](crate::split) engine or the global switch-id space. A
//! dead pod degrades fan-outs to the survivors instead of wedging the
//! coordinator.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use farm_ctl::CtlClient;
use farm_net::{ControlOp, ControlReply, Envelope, Frame, NetServer, PodInfo, SeedDescriptor};
use farm_telemetry::json::{array, quote, snapshot_json, Json, Obj};
use farm_telemetry::Telemetry;

use crate::config::FeddConfig;
use crate::registry::Registry;
use crate::split::{split_program, PodTarget, Route};

/// One queued control request: the op plus the handler's reply slot.
struct CoreMsg {
    op: ControlOp,
    reply: mpsc::Sender<ControlReply>,
}

/// A running fedd instance: the coordinator core thread plus the
/// listening federated control endpoint.
pub struct Fedd {
    server: NetServer,
    core: Option<thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    shutdown_drain: Duration,
    telemetry: Telemetry,
}

impl Fedd {
    /// Starts the core thread and binds the federated control endpoint.
    ///
    /// # Errors
    ///
    /// Bind failures, or the core thread dying during construction.
    pub fn start(config: FeddConfig) -> io::Result<Fedd> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<CoreMsg>();
        let (ready_tx, ready_rx) = mpsc::channel::<Telemetry>();
        let core = {
            let config = config.clone();
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("fedd-core".into())
                .spawn(move || core_loop(config, rx, ready_tx, stop))?
        };
        let telemetry = ready_rx
            .recv()
            .map_err(|_| io::Error::other("fedd core died during startup"))?;
        let handler = {
            let tx = Mutex::new(tx);
            let stop = Arc::clone(&stop);
            let wait = config.request_timeout;
            Arc::new(move |env: &Envelope| -> Option<Frame> {
                let Frame::Control { op } = &env.frame else {
                    return None;
                };
                if stop.load(Ordering::Relaxed) {
                    return Some(Frame::Error {
                        message: "fedd is shutting down".into(),
                    });
                }
                let (reply_tx, reply_rx) = mpsc::channel();
                let sender = tx.lock().expect("fed sender lock").clone();
                if sender
                    .send(CoreMsg {
                        op: op.clone(),
                        reply: reply_tx,
                    })
                    .is_err()
                {
                    return Some(Frame::Error {
                        message: "fedd core is gone".into(),
                    });
                }
                match reply_rx.recv_timeout(wait) {
                    Ok(reply) => Some(Frame::ControlReply { reply }),
                    Err(_) => Some(Frame::Error {
                        message: "fedd core did not answer in time".into(),
                    }),
                }
            })
        };
        let server = NetServer::bind(config.listen, &telemetry, handler)?;
        Ok(Fedd {
            server,
            core: Some(core),
            stop,
            shutdown_drain: config.shutdown_drain,
            telemetry,
        })
    }

    /// The bound control address (the chosen port when listening on :0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The coordinator's telemetry handle (shared with the transport).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// True once a shutdown op was served (or [`Fedd::stop`] ran).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Initiates shutdown locally and tears down. Pods are left running
    /// — the coordinator's death never takes a fabric with it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.teardown();
    }

    fn teardown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        thread::sleep(self.shutdown_drain);
        self.server.shutdown();
        if let Some(h) = self.core.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Fedd {
    fn drop(&mut self) {
        if self.core.is_some() {
            self.teardown();
        }
    }
}

/// The coordinator's single-threaded heart.
struct Core {
    config: FeddConfig,
    registry: Registry,
    /// One cached control-plane session per pod; dropped and re-dialed
    /// on transport failure or re-registration under a new address.
    conns: BTreeMap<String, CtlClient>,
    /// Routing table: task → pods hosting (a part of) it.
    tasks: BTreeMap<String, Vec<String>>,
    telemetry: Telemetry,
}

/// Everything a `Stats` fan-out needs from one pod, counters fully
/// paged in.
struct PodStats {
    now_ns: u64,
    tasks: Vec<String>,
    seeds: u64,
    switches: u64,
    cordoned: Vec<u64>,
    fenced: Vec<u64>,
    recovery_pending: u64,
    counters: BTreeMap<String, u64>,
}

/// Page size fedd uses when walking a pod's cursor-paginated replies.
const POD_PAGE: u64 = 256;

/// The core thread: owns the registry, serves ops in order, sweeps
/// heartbeat liveness on the ticker.
fn core_loop(
    config: FeddConfig,
    rx: mpsc::Receiver<CoreMsg>,
    ready: mpsc::Sender<Telemetry>,
    stop: Arc<AtomicBool>,
) {
    let telemetry = Telemetry::new();
    if ready.send(telemetry.clone()).is_err() {
        return;
    }
    let mut core = Core {
        config,
        registry: Registry::new(),
        conns: BTreeMap::new(),
        tasks: BTreeMap::new(),
        telemetry: telemetry.clone(),
    };
    let ops = telemetry.counter("fed.ops");
    let rejected = telemetry.counter("fed.rejected");
    let latency = telemetry.latency_histogram("fed.op_latency_us");
    let pods_total = telemetry.gauge("fed.pods.total");
    let pods_live = telemetry.gauge("fed.pods.live");
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(CoreMsg { op, reply }) => {
                let started = Instant::now();
                let kind = op.kind();
                ops.inc();
                telemetry.counter(&format!("fed.op.{kind}")).inc();
                let out = serve_op(&mut core, &op);
                latency.record(started.elapsed().as_micros() as u64);
                if matches!(
                    out,
                    ControlReply::Rejected { .. } | ControlReply::CompileFailed { .. }
                ) {
                    rejected.inc();
                }
                let is_shutdown = matches!(op, ControlOp::Shutdown);
                let _ = reply.send(out);
                if is_shutdown {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        let (total, live) = core
            .registry
            .sweep(core.config.liveness_timeout, Instant::now());
        pods_total.set(total as f64);
        pods_live.set(live as f64);
    }
    // Serve whatever the handlers already queued (they block on these
    // replies), then exit; pods keep running on their own.
    while let Ok(CoreMsg { op, reply }) = rx.try_recv() {
        let out = match op {
            ControlOp::Shutdown => ControlReply::Ok,
            op => serve_op(&mut core, &op),
        };
        let _ = reply.send(out);
    }
}

/// Serves one control op against the federation. Total: every failure
/// becomes a structured reply, never a panic.
fn serve_op(core: &mut Core, op: &ControlOp) -> ControlReply {
    match op {
        ControlOp::RegisterPod {
            name,
            addr,
            switches,
            quota,
        } => register_pod(core, name, addr, *switches, *quota),
        ControlOp::PodHeartbeat { name, .. } => {
            if core.registry.beat(name, Instant::now()) {
                ControlReply::Ok
            } else {
                ControlReply::Rejected {
                    reason: format!("unknown pod `{name}`; re-register"),
                }
            }
        }
        ControlOp::ListPods => list_pods(core),
        ControlOp::SubmitProgram { name, source } => submit(core, name, source),
        ControlOp::ListSeeds { from_index, limit } => list_seeds(core, *from_index, *limit),
        ControlOp::DescribeSeed { key } => describe(core, key),
        ControlOp::Stats { from_index, limit } => stats(core, *from_index, *limit),
        ControlOp::MetricsDump => metrics_dump(core),
        ControlOp::Drain { switch } => route_switch_op(core, *switch, true),
        ControlOp::Uncordon { switch } => route_switch_op(core, *switch, false),
        ControlOp::Replan => replan(core),
        ControlOp::Checkpoint => checkpoint(core),
        ControlOp::Restore => restore(core),
        ControlOp::MigrateTask { task, to_pod } => migrate(core, task, to_pod),
        ControlOp::RemoveTask { task } => remove_task(core, task),
        ControlOp::Shutdown => ControlReply::Ok,
        // Pod-side halves of the migration flow; fedd drives them, it
        // does not serve them.
        ControlOp::ExportTask { .. } | ControlOp::SubmitWithSnapshot { .. } => {
            ControlReply::Rejected {
                reason: format!(
                    "`{}` is a pod op; use `migrate <task> <pod>` on the coordinator",
                    op.kind()
                ),
            }
        }
    }
}

fn register_pod(
    core: &mut Core,
    name: &str,
    addr: &str,
    switches: u64,
    quota: f64,
) -> ControlReply {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return ControlReply::Rejected {
            reason: format!("bad pod name `{name}` (want [A-Za-z0-9_-]+)"),
        };
    }
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        return ControlReply::Rejected {
            reason: format!("bad pod address `{addr}`"),
        };
    };
    if switches == 0 {
        return ControlReply::Rejected {
            reason: "a pod must manage at least one switch".into(),
        };
    }
    let base = core
        .registry
        .register(name, addr, switches, quota, Instant::now());
    // Any cached session may point at a dead predecessor; re-dial lazily.
    core.conns.remove(name);
    ControlReply::PodRegistered { base }
}

fn list_pods(core: &Core) -> ControlReply {
    let now = Instant::now();
    let pods = core
        .registry
        .iter()
        .map(|(name, p)| PodInfo {
            name: name.clone(),
            addr: p.addr.to_string(),
            switches: p.switches,
            base: p.base,
            quota: p.quota,
            live: p.live,
            beats: p.beats,
            age_ms: now.duration_since(p.last_beat).as_millis() as u64,
        })
        .collect();
    ControlReply::Pods { pods }
}

/// One RPC to one pod, through the cached session; a transport failure
/// drops the session and re-dials once before giving up.
fn pod_op(core: &mut Core, pod: &str, op: ControlOp) -> Result<ControlReply, String> {
    let Some(entry) = core.registry.get(pod) else {
        return Err(format!("unknown pod `{pod}`"));
    };
    let addr = entry.addr;
    let timeout = core.config.pod_timeout;
    let mut last = String::new();
    for _ in 0..2 {
        let client = core
            .conns
            .entry(pod.to_string())
            .or_insert_with(|| CtlClient::connect_as(addr, "fedd", timeout));
        match client.op(op.clone()) {
            Ok(reply) => return Ok(reply),
            Err(e) => {
                core.conns.remove(pod);
                last = e.to_string();
            }
        }
    }
    Err(format!("pod `{pod}`: {last}"))
}

/// Live pods in admission-preference order: fewest routed tasks first,
/// name as the deterministic tie-break.
fn placement_order(core: &Core) -> Vec<PodTarget> {
    let mut order: Vec<(usize, PodTarget)> = core
        .registry
        .live()
        .map(|(name, p)| {
            let load = core
                .tasks
                .values()
                .filter(|pods| pods.contains(name))
                .count();
            (
                load,
                PodTarget {
                    name: name.clone(),
                    base: p.base,
                    switches: p.switches,
                },
            )
        })
        .collect();
    order.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.name.cmp(&b.1.name)));
    order.into_iter().map(|(_, t)| t).collect()
}

/// Renders a submission failure (for rollback reasons): the pod's
/// structured reply flattened into one line.
fn submit_failure(reply: &ControlReply) -> String {
    match reply {
        ControlReply::Rejected { reason } => reason.clone(),
        ControlReply::CompileFailed { diagnostics } => match diagnostics.first() {
            Some(d) => format!(
                "compile failed: {} ({}:{}:{})",
                d.message, d.machine, d.line, d.col
            ),
            None => "compile failed".into(),
        },
        other => format!("unexpected reply `{}`", other.kind()),
    }
}

/// Federated admission: route whole (single pod) or split with
/// all-or-nothing rollback.
fn submit(core: &mut Core, name: &str, source: &str) -> ControlReply {
    if core.tasks.contains_key(name) {
        return ControlReply::Rejected {
            reason: format!("task `{name}` is already deployed in the federation"),
        };
    }
    if source.len() > core.config.max_program_bytes {
        return ControlReply::Rejected {
            reason: format!(
                "program of {} bytes exceeds the {}-byte submission cap",
                source.len(),
                core.config.max_program_bytes
            ),
        };
    }
    let pods = placement_order(core);
    let route = match split_program(source, &pods) {
        Ok(route) => route,
        Err(reason) => return ControlReply::Rejected { reason },
    };
    let parts = match route {
        Route::Single { pod, source } => {
            core.telemetry.counter("fed.route.single").inc();
            vec![(pod, source)]
        }
        Route::Split { parts } => {
            core.telemetry.counter("fed.route.split").inc();
            parts
        }
    };
    let mut placed: Vec<String> = Vec::new();
    let mut seeds = 0u64;
    let mut actions = 0u64;
    for (pod, part) in &parts {
        let outcome = pod_op(
            core,
            pod,
            ControlOp::SubmitProgram {
                name: name.to_string(),
                source: part.clone(),
            },
        );
        match outcome {
            Ok(ControlReply::Submitted {
                seeds: s,
                actions: a,
                ..
            }) => {
                seeds += s;
                actions += a;
                placed.push(pod.clone());
            }
            failed => {
                let reason = match &failed {
                    Ok(reply) => submit_failure(reply),
                    Err(e) => e.clone(),
                };
                // All-or-nothing: evict the parts that did land.
                let mut rolled_back = 0usize;
                for done in &placed {
                    if pod_op(
                        core,
                        done,
                        ControlOp::RemoveTask {
                            task: name.to_string(),
                        },
                    )
                    .is_ok()
                    {
                        rolled_back += 1;
                    }
                }
                core.telemetry.counter("fed.route.rollback").inc();
                return ControlReply::Rejected {
                    reason: format!(
                        "pod `{pod}`: {reason} (rolled back {rolled_back}/{} placed part(s))",
                        placed.len()
                    ),
                };
            }
        }
    }
    core.tasks.insert(name.to_string(), placed);
    ControlReply::Submitted {
        task: name.to_string(),
        seeds,
        actions,
    }
}

/// Follows a paginated pod listing: `page(from)` fetches the page at
/// cursor `from` and returns the next cursor, `0` once exhausted. A
/// cursor that does not advance is an error, so a misbehaving pod
/// cannot spin the core thread forever.
fn walk_cursor(mut page: impl FnMut(u64) -> Result<u64, String>) -> Result<(), String> {
    let mut from = 0;
    loop {
        match page(from)? {
            0 => return Ok(()),
            next if next <= from => {
                return Err(format!("cursor did not advance ({from} -> {next})"))
            }
            next => from = next,
        }
    }
}

/// Walks one pod's seed listing through its cursor.
fn pod_seeds(core: &mut Core, pod: &str) -> Result<Vec<SeedDescriptor>, String> {
    let mut out = Vec::new();
    walk_cursor(|from| {
        let op = ControlOp::ListSeeds {
            from_index: from,
            limit: POD_PAGE,
        };
        match pod_op(core, pod, op)? {
            ControlReply::Seeds {
                seeds, next_index, ..
            } => {
                out.extend(seeds);
                Ok(next_index)
            }
            other => Err(format!("answered `{}`", other.kind())),
        }
    })
    .map_err(|e| format!("pod `{pod}` seeds: {e}"))?;
    Ok(out)
}

/// Federated `ListSeeds`: fan out to every live pod (cursor-walked),
/// globalize keys and switch ids, merge sorted, then window the merged
/// listing with the same cursor semantics a single farmd serves.
fn list_seeds(core: &mut Core, from_index: u64, limit: u64) -> ControlReply {
    let started = Instant::now();
    let live: Vec<String> = core.registry.live().map(|(n, _)| n.clone()).collect();
    let mut merged: Vec<SeedDescriptor> = Vec::new();
    for pod in &live {
        let base = core.registry.get(pod).map(|p| p.base).unwrap_or(0);
        match pod_seeds(core, pod) {
            Ok(seeds) => merged.extend(seeds.into_iter().map(|mut d| {
                d.key = format!("{pod}:{}", d.key);
                d.switch += base as u32;
                d
            })),
            Err(_) => {
                core.telemetry.counter("fed.fanout.errors").inc();
            }
        }
    }
    core.telemetry
        .latency_histogram("fed.fanout_us")
        .record(started.elapsed().as_micros() as u64);
    merged.sort_by(|a, b| a.key.cmp(&b.key));
    if from_index == 0 && limit == 0 {
        return ControlReply::Seeds {
            seeds: merged,
            next_index: 0,
            total: 0,
        };
    }
    let total = merged.len() as u64;
    let start = from_index.min(total);
    let end = if limit == 0 {
        total
    } else {
        start.saturating_add(limit).min(total)
    };
    ControlReply::Seeds {
        seeds: merged[start as usize..end as usize].to_vec(),
        next_index: if end < total { end } else { 0 },
        total,
    }
}

/// Federated `DescribeSeed`: keys carry a `pod:` prefix.
fn describe(core: &mut Core, key: &str) -> ControlReply {
    let Some((pod, local_key)) = key.split_once(':') else {
        return ControlReply::Rejected {
            reason: format!("bad federated seed key `{key}` (want pod:task/m<i>/s<j>)"),
        };
    };
    let Some(base) = core.registry.get(pod).map(|p| p.base) else {
        return ControlReply::Rejected {
            reason: format!("unknown pod `{pod}`"),
        };
    };
    match pod_op(
        core,
        pod,
        ControlOp::DescribeSeed {
            key: local_key.to_string(),
        },
    ) {
        Ok(ControlReply::Seed { mut desc, vars }) => {
            desc.key = format!("{pod}:{}", desc.key);
            desc.switch += base as u32;
            ControlReply::Seed { desc, vars }
        }
        Ok(other) => other,
        Err(reason) => ControlReply::Rejected { reason },
    }
}

/// Walks one pod's `Stats` counter pages and parses them into a
/// [`PodStats`].
fn pod_stats(core: &mut Core, pod: &str) -> Result<PodStats, String> {
    let mut counters = BTreeMap::new();
    let mut first: Option<Json> = None;
    walk_cursor(|from| {
        let op = ControlOp::Stats {
            from_index: from,
            limit: POD_PAGE,
        };
        let body = match pod_op(core, pod, op)? {
            ControlReply::Json { body } => body,
            other => return Err(format!("answered `{}`", other.kind())),
        };
        let v = Json::parse(&body)?;
        if let Some(page) = v.get("counters").and_then(Json::as_obj) {
            for (k, val) in page {
                if let Some(n) = val.as_u64() {
                    counters.insert(k.clone(), n);
                }
            }
        }
        let next = v.get("counters_next_index").and_then(Json::as_u64);
        first.get_or_insert(v);
        Ok(next.unwrap_or(0))
    })
    .map_err(|e| format!("pod `{pod}` stats: {e}"))?;
    let v = first.expect("at least one stats page");
    let nums = |field: &str| v.get(field).and_then(Json::as_u64).unwrap_or(0);
    let ids = |field: &str| -> Vec<u64> {
        v.get(field)
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default()
    };
    Ok(PodStats {
        now_ns: nums("now_ns"),
        tasks: v
            .get("tasks")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|t| t.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
        seeds: nums("seeds"),
        switches: nums("switches"),
        cordoned: ids("cordoned"),
        fenced: ids("fenced"),
        recovery_pending: nums("recovery_pending"),
        counters,
    })
}

/// Federated `Stats`: sums, unions and globalizes every live pod's
/// body, and adds the coordinator's own view (`pods_total` /
/// `pods_live`). The merged counter map is cursor-paginated exactly
/// like a single farmd's.
fn stats(core: &mut Core, from_index: u64, limit: u64) -> ControlReply {
    let started = Instant::now();
    let live: Vec<String> = core.registry.live().map(|(n, _)| n.clone()).collect();
    let mut now_ns = 0u64;
    let mut tasks: Vec<String> = Vec::new();
    let mut seeds = 0u64;
    let mut switches = 0u64;
    let mut cordoned: Vec<u64> = Vec::new();
    let mut fenced: Vec<u64> = Vec::new();
    let mut recovery_pending = 0u64;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut reached = 0u64;
    for pod in &live {
        let base = core.registry.get(pod).map(|p| p.base).unwrap_or(0);
        match pod_stats(core, pod) {
            Ok(s) => {
                reached += 1;
                now_ns = now_ns.max(s.now_ns);
                tasks.extend(s.tasks);
                seeds += s.seeds;
                switches += s.switches;
                cordoned.extend(s.cordoned.iter().map(|id| id + base));
                fenced.extend(s.fenced.iter().map(|id| id + base));
                recovery_pending += s.recovery_pending;
                for (k, n) in s.counters {
                    *counters.entry(k).or_insert(0) += n;
                }
            }
            Err(_) => {
                core.telemetry.counter("fed.fanout.errors").inc();
            }
        }
    }
    core.telemetry
        .latency_histogram("fed.fanout_us")
        .record(started.elapsed().as_micros() as u64);
    tasks.sort();
    tasks.dedup();
    cordoned.sort_unstable();
    fenced.sort_unstable();

    let tasks = array(tasks.iter().map(|t| quote(t)));
    let cordoned = array(cordoned.iter().map(|s| s.to_string()));
    let fenced = array(fenced.iter().map(|s| s.to_string()));
    let body = Obj::new()
        .num("now_ns", now_ns)
        .raw("tasks", &tasks)
        .num("seeds", seeds)
        .num("switches", switches)
        .raw("cordoned", &cordoned)
        .raw("fenced", &fenced)
        .num("recovery_pending", recovery_pending)
        .num("pods_total", core.registry.len() as u64)
        .num("pods_live", live.len() as u64)
        .num("pods_reached", reached)
        .counter_page(&counters, from_index, limit)
        .finish();
    ControlReply::Json { body }
}

/// Federated `MetricsDump`: every live pod's raw dump keyed by name,
/// plus the coordinator's own `fed.*` registry.
fn metrics_dump(core: &mut Core) -> ControlReply {
    let started = Instant::now();
    let live: Vec<String> = core.registry.live().map(|(n, _)| n.clone()).collect();
    let mut pods = Obj::new();
    for pod in &live {
        match pod_op(core, pod, ControlOp::MetricsDump) {
            Ok(ControlReply::Json { body }) => {
                pods = pods.raw(pod, &body);
            }
            _ => {
                core.telemetry.counter("fed.fanout.errors").inc();
            }
        }
    }
    core.telemetry
        .latency_histogram("fed.fanout_us")
        .record(started.elapsed().as_micros() as u64);
    let body = Obj::new()
        .raw("pods", &pods.finish())
        .raw("fed", &snapshot_json(&core.telemetry.snapshot()))
        .finish();
    ControlReply::Json { body }
}

/// `Drain` / `Uncordon` against a global switch id: resolve the owning
/// pod, forward with the local id, globalize the reply.
fn route_switch_op(core: &mut Core, global: u32, drain: bool) -> ControlReply {
    let Some((pod, local)) = core
        .registry
        .locate(global as u64)
        .map(|(n, l)| (n.clone(), l as u32))
    else {
        return ControlReply::Rejected {
            reason: format!("global switch id {global} is outside every registered pod"),
        };
    };
    let op = if drain {
        ControlOp::Drain { switch: local }
    } else {
        ControlOp::Uncordon { switch: local }
    };
    match pod_op(core, &pod, op) {
        Ok(ControlReply::Drained { evacuated, .. }) => ControlReply::Drained {
            switch: global,
            evacuated,
        },
        Ok(other) => other,
        Err(reason) => ControlReply::Rejected { reason },
    }
}

fn replan(core: &mut Core) -> ControlReply {
    let live: Vec<String> = core.registry.live().map(|(n, _)| n.clone()).collect();
    let mut actions = 0u64;
    let mut dropped_tasks = 0u64;
    for pod in &live {
        match pod_op(core, pod, ControlOp::Replan) {
            Ok(ControlReply::Replanned {
                actions: a,
                dropped_tasks: d,
            }) => {
                actions += a;
                dropped_tasks += d;
            }
            _ => {
                core.telemetry.counter("fed.fanout.errors").inc();
            }
        }
    }
    ControlReply::Replanned {
        actions,
        dropped_tasks,
    }
}

fn checkpoint(core: &mut Core) -> ControlReply {
    let live: Vec<String> = core.registry.live().map(|(n, _)| n.clone()).collect();
    let mut seeds = 0u64;
    let mut errors: Vec<String> = Vec::new();
    for pod in &live {
        match pod_op(core, pod, ControlOp::Checkpoint) {
            Ok(ControlReply::Checkpointed {
                seeds: s,
                persist_error,
            }) => {
                seeds += s;
                if let Some(e) = persist_error {
                    errors.push(format!("pod `{pod}`: {e}"));
                }
            }
            Ok(other) => errors.push(format!("pod `{pod}` answered `{}`", other.kind())),
            Err(e) => errors.push(e),
        }
    }
    ControlReply::Checkpointed {
        seeds,
        persist_error: if errors.is_empty() {
            None
        } else {
            Some(errors.join("; "))
        },
    }
}

fn restore(core: &mut Core) -> ControlReply {
    let live: Vec<String> = core.registry.live().map(|(n, _)| n.clone()).collect();
    let mut seeds = 0u64;
    let mut skipped = 0u64;
    for pod in &live {
        match pod_op(core, pod, ControlOp::Restore) {
            Ok(ControlReply::Restored {
                seeds: s,
                skipped: k,
            }) => {
                seeds += s;
                skipped += k;
            }
            _ => {
                core.telemetry.counter("fed.fanout.errors").inc();
            }
        }
    }
    ControlReply::Restored { seeds, skipped }
}

fn remove_task(core: &mut Core, task: &str) -> ControlReply {
    let Some(hosts) = core.tasks.get(task).cloned() else {
        return ControlReply::Rejected {
            reason: format!("fedd did not route task `{task}`"),
        };
    };
    let mut failed: Vec<String> = Vec::new();
    let mut left: Vec<String> = Vec::new();
    for pod in &hosts {
        match pod_op(
            core,
            pod,
            ControlOp::RemoveTask {
                task: task.to_string(),
            },
        ) {
            Ok(ControlReply::Ok) => {}
            Ok(other) => {
                failed.push(format!("pod `{pod}` answered `{}`", other.kind()));
                left.push(pod.clone());
            }
            Err(e) => {
                failed.push(e);
                left.push(pod.clone());
            }
        }
    }
    if left.is_empty() {
        core.tasks.remove(task);
        ControlReply::Ok
    } else {
        core.tasks.insert(task.to_string(), left);
        ControlReply::Rejected {
            reason: failed.join("; "),
        }
    }
}

/// Cross-pod seed migration, copy-first: export on the source
/// (checkpoint + snapshots, task keeps running), import on the target
/// (submit-with-snapshot), and only then remove from the source. A
/// failed import leaves the source untouched; a failed removal is
/// reported (the task briefly runs on both pods) instead of guessed at.
fn migrate(core: &mut Core, task: &str, to_pod: &str) -> ControlReply {
    let migrate_ok = core.telemetry.counter("fed.migrate.ok");
    let migrate_fail = core.telemetry.counter("fed.migrate.fail");
    let Some(hosts) = core.tasks.get(task).cloned() else {
        migrate_fail.inc();
        return ControlReply::Rejected {
            reason: format!("fedd did not route task `{task}`"),
        };
    };
    if hosts.len() != 1 {
        migrate_fail.inc();
        return ControlReply::Rejected {
            reason: format!(
                "task `{task}` spans {} pods; cross-pod migration moves single-pod tasks",
                hosts.len()
            ),
        };
    }
    let from_pod = hosts[0].clone();
    if from_pod == to_pod {
        migrate_fail.inc();
        return ControlReply::Rejected {
            reason: format!("task `{task}` already runs on pod `{to_pod}`"),
        };
    }
    match core.registry.get(to_pod) {
        Some(p) if p.live => {}
        Some(_) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("target pod `{to_pod}` is not live"),
            };
        }
        None => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("unknown target pod `{to_pod}`"),
            };
        }
    }
    let (source, seeds) = match pod_op(
        core,
        &from_pod,
        ControlOp::ExportTask {
            task: task.to_string(),
        },
    ) {
        Ok(ControlReply::TaskExport { source, seeds }) => (source, seeds),
        Ok(other) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("export from `{from_pod}`: {}", submit_failure(&other)),
            };
        }
        Err(e) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("export from `{from_pod}`: {e}"),
            };
        }
    };
    let moved = seeds.len() as u64;
    match pod_op(
        core,
        to_pod,
        ControlOp::SubmitWithSnapshot {
            name: task.to_string(),
            source,
            seeds,
        },
    ) {
        Ok(ControlReply::Submitted { .. }) => {}
        Ok(other) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!(
                    "import on `{to_pod}`: {}; source pod untouched",
                    submit_failure(&other)
                ),
            };
        }
        Err(e) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("import on `{to_pod}`: {e}; source pod untouched"),
            };
        }
    }
    match pod_op(
        core,
        &from_pod,
        ControlOp::RemoveTask {
            task: task.to_string(),
        },
    ) {
        Ok(ControlReply::Ok) => {
            core.tasks
                .insert(task.to_string(), vec![to_pod.to_string()]);
            migrate_ok.inc();
            ControlReply::Migrated {
                task: task.to_string(),
                from_pod,
                to_pod: to_pod.to_string(),
                seeds: moved,
            }
        }
        other => {
            // Imported but not evicted: record both hosts, report.
            core.tasks
                .insert(task.to_string(), vec![from_pod.clone(), to_pod.to_string()]);
            migrate_fail.inc();
            let detail = match other {
                Ok(reply) => format!("`{}`", reply.kind()),
                Err(e) => e,
            };
            ControlReply::Rejected {
                reason: format!(
                    "imported on `{to_pod}` but source removal on `{from_pod}` failed \
                     ({detail}); task currently runs on both pods"
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_walk_follows_pages_until_zero() {
        let mut seen = Vec::new();
        let pages = [3, 7, 0];
        walk_cursor(|from| {
            seen.push(from);
            Ok(pages[seen.len() - 1])
        })
        .unwrap();
        assert_eq!(seen, [0, 3, 7]);
    }

    #[test]
    fn cursor_walk_rejects_a_cursor_that_does_not_advance() {
        let mut calls = 0;
        let err = walk_cursor(|_| {
            calls += 1;
            Ok(5)
        })
        .unwrap_err();
        assert_eq!(calls, 2, "the repeated cursor is caught at once");
        assert!(err.contains("did not advance"), "{err}");
        let err = walk_cursor(|from| Ok(if from == 0 { 9 } else { 4 })).unwrap_err();
        assert!(err.contains("9 -> 4"), "{err}");
    }

    #[test]
    fn cursor_walk_propagates_page_errors() {
        assert_eq!(
            walk_cursor(|_| Err("pod gone".to_string())),
            Err("pod gone".to_string())
        );
    }
}
