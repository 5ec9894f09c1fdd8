//! `ctl_fed`: an in-process `fedd` coordinator over two `farmd` pods on
//! loopback, driven by one closed-loop client. Set-up submits a fixed
//! Tab. I program mix through fedd; the measured window then loops the
//! seven farmctl op kinds once each: writes (`Drain`, `Uncordon`,
//! `Replan`), reads (`ListSeeds`, `Stats`, `DescribeSeed`) and
//! `Checkpoint`, which fsyncs each pod's checkpoint file. No measured
//! operator mix exists to weight them by, so every kind runs equally
//! often. The checkpoints are timed apart from the other six kinds and
//! left out of the op metrics and the op rate: their fsyncs wait on the
//! host's disk, whose latency on a shared VM drifts between runs by more
//! than the benchmark's bounds. Their latencies are in the run record.
//! The heavy op is `Stats`, the read fedd answers by gathering and
//! merging both pods' statistics.
//!
//! Every reply is checked for the expected variant, checkpoints must
//! carry no `persist_error`, and the seed total must stay the same
//! across every drain and uncordon. In the traced run, server-side time
//! is attributed per op by differencing the daemons' own latency
//! histograms around it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use farm_almanac::programs::{DDOS, HEAVY_HITTER, PORT_SCAN, SUPERSPREADER};
use farm_bench::perf::{percentile, Json};
use farm_ctl::{CtlClient, Farmd, FarmdConfig, FedMembership};
use farm_fed::{Fedd, FeddConfig};
use farm_net::{ControlOp, ControlReply, SeedDescriptor};
use farm_telemetry::{Counter, Histogram, Telemetry};

use crate::trace::Tracer;
use crate::{mean, ms, picker, set_up, summary, Args, Outcome, Window};

/// Scratch directory for the pods' checkpoint files, relative to the
/// working directory; removed at exit.
const SCRATCH: &str = ".perfbench_tmp";
const PODS: [&str; 2] = ["pod-a", "pod-b"];
const SPINES: usize = 2;
const LEAVES: usize = 3;

/// The Tab. I mix submitted during set-up, in order. Every one is a
/// `place all` program.
const MIX: [(&str, &str); 4] = [
    ("hh", HEAVY_HITTER),
    ("ddos", DDOS),
    ("superspreader", SUPERSPREADER),
    ("portscan", PORT_SCAN),
];

/// Why the later `place all` submissions are refused. farmd's
/// `admission_check` (crates/ctl/src/server.rs) counts the placed
/// seeds' opportunistic LP allocations as used, so after the first
/// `place all` task the quota headroom reads zero. The benchmark submits
/// the intended mix anyway and counts these refusals as failed set-up
/// `submit` ops.
const ADMISSION_NOTE: &str = "farmd admission_check counts the LP's opportunistic allocations of placed seeds as used, so every place-all task after the first is refused for lack of quota headroom; each refusal is counted as a failed set-up submit op, against the submissions attempted, in ok_share and in setup_ops_by_kind";

/// A running federation: the coordinator, its pods and one client.
struct Federation {
    fedd: Option<Fedd>,
    pods: Vec<Farmd>,
    client: CtlClient,
    dir: PathBuf,
}

impl Federation {
    fn start(dir: &Path) -> Result<Federation, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let fedd = Fedd::start(FeddConfig {
            // No heartbeat lands inside a run, so the coordinator's
            // latency histogram holds only the client's ops.
            liveness_timeout: Duration::from_secs(3600),
            shutdown_drain: Duration::ZERO,
            ..FeddConfig::default()
        })
        .map_err(|e| format!("fedd: {e}"))?;
        let coordinator = fedd.local_addr();
        let mut pods = Vec::new();
        for name in PODS {
            let pod = Farmd::start(FarmdConfig {
                spines: SPINES,
                leaves: LEAVES,
                checkpoint_path: Some(dir.join(format!("{name}.ckp"))),
                restore_on_boot: false,
                shutdown_drain: Duration::ZERO,
                fed: Some(FedMembership {
                    coordinator,
                    pod_name: name.to_string(),
                    heartbeat: Duration::from_secs(3600),
                    advertise: None,
                }),
                ..FarmdConfig::default()
            })
            .map_err(|e| format!("farmd {name}: {e}"))?;
            pods.push(pod);
            // Register one pod at a time so global switch ids are fixed:
            // pod-a owns 0..5, pod-b 5..10.
            let registered = Instant::now();
            while fedd.telemetry().snapshot().counter("fed.op.register-pod") < pods.len() as u64 {
                if registered.elapsed() > Duration::from_secs(10) {
                    return Err(format!("{name} did not register with fedd"));
                }
                thread::sleep(Duration::from_micros(100));
            }
        }
        let client = CtlClient::connect_as(coordinator, "farmctl", Duration::from_secs(10));
        if !client.wait_connected(Duration::from_secs(10)) {
            return Err("client could not connect to fedd".into());
        }
        Ok(Federation {
            fedd: Some(fedd),
            pods,
            client,
            dir: dir.to_path_buf(),
        })
    }
}

impl Drop for Federation {
    /// Stops every daemon, waits for its threads and removes the
    /// checkpoint files.
    fn drop(&mut self) {
        for pod in self.pods.drain(..) {
            pod.stop();
        }
        if let Some(fedd) = self.fedd.take() {
            fedd.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Latency histograms and counters read around each op in the traced
/// run. Every handle names an instrument the daemons create with the
/// same bounds, so taking it changes nothing they record.
struct Probes {
    fed_service: Arc<Histogram>,
    fed_fanout: Arc<Histogram>,
    farmd_service: Vec<Arc<Histogram>>,
    replan: Vec<Arc<Histogram>>,
    ckpt: Vec<Arc<Histogram>>,
    phases: Vec<[Arc<Histogram>; 3]>,
    frames: Vec<(Arc<Counter>, Arc<Counter>)>,
    bytes: Vec<Arc<Counter>>,
}

const PHASES: [&str; 3] = ["greedy", "lp_redistribution", "migration"];
const PHASE_SPANS: [&str; 3] = [
    "placement.delta.greedy",
    "placement.delta.lp_redistribution",
    "placement.delta.migration",
];

impl Probes {
    fn new(fed: &Federation) -> Probes {
        let pods: Vec<&Telemetry> = fed.pods.iter().map(Farmd::telemetry).collect();
        let fedd = fed.fedd.as_ref().expect("running").telemetry();
        let all: Vec<&Telemetry> = std::iter::once(fedd).chain(pods.iter().copied()).collect();
        Probes {
            fed_service: fedd.latency_histogram("fed.op_latency_us"),
            fed_fanout: fedd.latency_histogram("fed.fanout_us"),
            farmd_service: pods
                .iter()
                .map(|t| t.latency_histogram("ctl.op_latency_us"))
                .collect(),
            replan: pods
                .iter()
                .map(|t| t.latency_histogram("farm.replan_us"))
                .collect(),
            ckpt: pods
                .iter()
                .map(|t| t.latency_histogram("ckpt.write_us"))
                .collect(),
            phases: pods
                .iter()
                .map(|t| PHASES.map(|p| t.latency_histogram(&format!("solver.phase.{p}_us"))))
                .collect(),
            frames: all
                .iter()
                .map(|t| {
                    (
                        t.counter("net.frames_sent"),
                        t.counter("net.frames_received"),
                    )
                })
                .collect(),
            bytes: all.iter().map(|t| t.counter("net.bytes")).collect(),
        }
    }

    /// Every probed sum, summed over the daemons that record it.
    fn read(&self) -> Sums {
        let sums = |hs: &[Arc<Histogram>]| hs.iter().map(|h| h.sum()).sum::<u64>();
        Sums {
            fed: self.fed_service.sum(),
            fanout: self.fed_fanout.sum(),
            farmd: sums(&self.farmd_service),
            replan: sums(&self.replan),
            ckpt: sums(&self.ckpt),
            phases: [0, 1, 2].map(|i| self.phases.iter().map(|p| p[i].sum()).sum()),
            frames: self.frames.iter().map(|(s, r)| s.get() + r.get()).sum(),
            bytes: self.bytes.iter().map(|b| b.get()).sum(),
        }
    }
}

/// Histogram sums (microseconds) and counter values at one instant; the
/// difference of two readings is what one op cost.
#[derive(Clone, Copy)]
struct Sums {
    fed: u64,
    fanout: u64,
    farmd: u64,
    replan: u64,
    ckpt: u64,
    phases: [u64; 3],
    frames: u64,
    bytes: u64,
}

impl Sums {
    fn since(self, before: Sums) -> Sums {
        Sums {
            fed: self.fed - before.fed,
            fanout: self.fanout - before.fanout,
            farmd: self.farmd - before.farmd,
            replan: self.replan - before.replan,
            ckpt: self.ckpt - before.ckpt,
            phases: [0, 1, 2].map(|i| self.phases[i] - before.phases[i]),
            frames: self.frames - before.frames,
            bytes: self.bytes - before.bytes,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Write,
    Read,
    Checkpoint,
}

/// One cycle of the measured mix: each of the seven op kinds once.
/// `drain` is the leaf the cycle drains and uncordons; `key` the seed it
/// describes once the leaf is back.
///
/// A drained leaf takes its pod's `place all` tasks off the fabric (a
/// task pinned to every switch cannot run with one cordoned), so only
/// `Stats` reads while the leaf is out, and the uncordon must bring
/// back exactly the inventory of set-up.
fn cycle(drain: u32, key: &str) -> [(Class, ControlOp); 7] {
    [
        (Class::Write, ControlOp::Drain { switch: drain }),
        (
            Class::Read,
            ControlOp::Stats {
                from_index: 0,
                limit: 0,
            },
        ),
        (Class::Write, ControlOp::Uncordon { switch: drain }),
        (
            Class::Read,
            ControlOp::ListSeeds {
                from_index: 0,
                limit: 0,
            },
        ),
        (
            Class::Read,
            ControlOp::DescribeSeed {
                key: key.to_string(),
            },
        ),
        (Class::Write, ControlOp::Replan),
        (Class::Checkpoint, ControlOp::Checkpoint),
    ]
}

/// The fleet view a reply should agree with: the set-up inventory, and
/// the leaf currently drained, if any.
struct Expect<'a> {
    inventory: &'a [SeedDescriptor],
    drained: Option<u32>,
}

/// Checks a reply against its op; `Err` describes the mismatch.
fn check(op: &ControlOp, reply: &ControlReply, want: &Expect) -> Result<(), String> {
    let total = want.inventory.len() as u64;
    let ok = match (op, reply) {
        (ControlOp::Drain { switch }, ControlReply::Drained { switch: s, .. }) => s == switch,
        (ControlOp::Uncordon { .. }, ControlReply::Ok) => true,
        (ControlOp::Replan, ControlReply::Replanned { dropped_tasks, .. }) => *dropped_tasks == 0,
        (ControlOp::DescribeSeed { key }, ControlReply::Seed { desc, .. }) => {
            want.inventory
                .iter()
                .any(|d| &d.key == key && d.switch == desc.switch)
                && &desc.key == key
        }
        // Seed conservation: the listing equals the set-up inventory,
        // key for key and switch for switch.
        (ControlOp::ListSeeds { .. }, ControlReply::Seeds { seeds, .. }) => {
            seeds.len() == want.inventory.len()
                && seeds
                    .iter()
                    .zip(want.inventory)
                    .all(|(a, b)| a.key == b.key && a.switch == b.switch)
        }
        (ControlOp::Stats { .. }, ControlReply::Json { body }) => {
            let doc = Json::parse(body).map_err(|e| format!("stats body: {e}"))?;
            let seeds = doc.get("seeds").and_then(Json::as_f64).map(|n| n as u64);
            let cordoned: Vec<u32> = doc
                .get("cordoned")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .map(|n| n as u32)
                .collect();
            match want.drained {
                None => seeds == Some(total) && cordoned.is_empty(),
                Some(leaf) => seeds.is_some_and(|n| n <= total) && cordoned == [leaf],
            }
        }
        (
            ControlOp::Checkpoint,
            ControlReply::Checkpointed {
                seeds,
                persist_error,
            },
        ) => {
            if let Some(e) = persist_error {
                return Err(format!("checkpoint persist_error: {e}"));
            }
            *seeds == total
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} answered {reply:?}", op.kind()))
    }
}

/// Submits the Tab. I mix; returns the per-submission RTTs, the number
/// of documented admission refusals, and any unexpected reply.
fn submit_mix(client: &CtlClient) -> (Vec<f64>, u64, Vec<String>) {
    let mut rtts = Vec::new();
    let mut refused = 0;
    let mut errors = Vec::new();
    for (name, source) in MIX {
        let started = Instant::now();
        let reply = client.op(ControlOp::SubmitProgram {
            name: name.to_string(),
            source: source.to_string(),
        });
        rtts.push(ms(started.elapsed()));
        match reply {
            Ok(ControlReply::Submitted { .. }) => {}
            Ok(ControlReply::Rejected { reason }) if reason.contains("quota headroom") => {
                refused += 1
            }
            other => errors.push(format!("submit {name}: {other:?}")),
        }
    }
    (rtts, refused, errors)
}

pub fn ctl_fed(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new("farmctl op", "stats", "ops");
    let root = PathBuf::from(SCRATCH).join(format!("ctl_fed-{}", std::process::id()));
    let set = set_up(&mut out, || {
        let fed = Federation::start(&root.join("measured"))?;
        let submitted = submit_mix(&fed.client);
        Ok((fed, submitted))
    });
    if let Some((fed, submitted)) = set {
        if let Err(e) = measure(args, tracer, &fed, &root, &mut out, submitted) {
            out.errors.push(e);
        }
    }
    // A set-up that failed half way leaves its files behind; the scratch
    // root goes too unless another run still uses it.
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(SCRATCH);
    out
}

/// A federation started and given the Tab. I mix, as the window's
/// repeated set-ups build it; each gets a directory of its own under
/// `root`.
fn resample_federation(root: &Path, point: usize) -> Result<Federation, String> {
    let fed = Federation::start(&root.join(format!("setup-{point}")))?;
    let (_, _, errors) = submit_mix(&fed.client);
    match errors.first() {
        Some(e) => Err(e.clone()),
        None => Ok(fed),
    }
}

fn measure(
    args: &Args,
    tracer: &mut Tracer,
    fed: &Federation,
    root: &Path,
    out: &mut Outcome,
    (submit_ms, refused, submit_errors): (Vec<f64>, u64, Vec<String>),
) -> Result<(), String> {
    // Each submission is a set-up op of its own kind, so the refusals
    // count against the four submissions, not against the window's ops.
    for i in 0..submit_ms.len() as u64 {
        out.tally_setup("submit", i < refused + submit_errors.len() as u64);
    }
    out.errors.extend(submit_errors);
    let client = &fed.client;

    // The seed inventory after set-up: its total must hold throughout.
    let listed = client
        .op(ControlOp::ListSeeds {
            from_index: 0,
            limit: 0,
        })
        .map_err(|e| format!("list after set-up: {e}"))?;
    let ControlReply::Seeds {
        seeds: inventory, ..
    } = listed
    else {
        return Err(format!("list after set-up answered {listed:?}"));
    };
    let total = inventory.len() as u64;
    if total == 0 {
        return Err("no seed was placed during set-up".into());
    }
    // Leaves of both pods, by global id: pod i owns [i*5, i*5+5) with
    // its spines first.
    let per_pod = (SPINES + LEAVES) as u32;
    let leaves: Vec<u32> = (0..PODS.len() as u32)
        .flat_map(|p| (SPINES as u32..per_pod).map(move |l| p * per_pod + l))
        .collect();
    let mut next = picker(args.seed);

    let probes = tracer.on().then(|| Probes::new(fed));
    let fedd_t = fed.fedd.as_ref().expect("running").telemetry().clone();
    let pod_t: Vec<Telemetry> = fed.pods.iter().map(|p| p.telemetry().clone()).collect();
    let before = (
        fedd_t.snapshot(),
        pod_t.iter().map(Telemetry::snapshot).collect::<Vec<_>>(),
    );

    let mut by_class: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut wire_us = Vec::new();
    let mut fed_us = Vec::new();
    let mut farmd_us = Vec::new();
    let (mut frames, mut bytes) = (0u64, 0u64);
    let mut drained = None;
    let mut window = Window::open(args.seconds);
    let mut n = 0u64;
    let mut timed = 0u64;
    let mut points = 0;
    'run: while n == 0 || window.running() {
        window.interlude(out, || {
            points += 1;
            resample_federation(root, points)
        });
        let drain = leaves[next(leaves.len())];
        let key = inventory[next(inventory.len())].key.clone();
        for (class, op) in cycle(drain, &key) {
            let p0 = probes.as_ref().map(|p| tracer.overhead(|_| p.read()));
            let root = tracer.open("op", None, n);
            let started = Instant::now();
            let reply = client.op(op.clone());
            let rtt = started.elapsed();
            tracer.close(root);
            by_class[class as usize].push(ms(rtt));
            if class == Class::Checkpoint {
                // Its fsyncs wait on the host's disk, whose latency drifts
                // by more than any bound between runs: timed apart.
                out.aside_s += rtt.as_secs_f64();
            } else {
                out.op_ms.entry(op.kind()).or_default().push(ms(rtt));
                timed += 1;
            }
            if let ControlOp::Stats { .. } = op {
                out.heavy_ms.push(ms(rtt));
            }
            if let (Some(p), Some(p0)) = (&probes, p0) {
                tracer.overhead(|tracer| {
                    let d = p.read().since(p0);
                    let ns = |us: u64| us * 1_000;
                    wire_us.push(ms(rtt) * 1e3 - d.fed as f64);
                    fed_us.push(d.fed as f64);
                    farmd_us.push(d.farmd as f64);
                    let fed_span = tracer.attribute("fed.service", root, ns(d.fed));
                    let farmd_parent = if d.fanout > 0 {
                        tracer.attribute("fed.fanout", fed_span, ns(d.fanout))
                    } else {
                        fed_span
                    };
                    let farmd_span = tracer.attribute("farmd.service", farmd_parent, ns(d.farmd));
                    if d.replan > 0 {
                        let replan_span =
                            tracer.attribute("farmd.replan", farmd_span, ns(d.replan));
                        for (name, us) in PHASE_SPANS.iter().zip(d.phases) {
                            tracer.attribute(name, replan_span, ns(us));
                        }
                    }
                    if d.ckpt > 0 {
                        tracer.attribute("ckpt.write", farmd_span, ns(d.ckpt));
                    }
                    frames += d.frames;
                    bytes += d.bytes;
                });
            }
            n += 1;
            let want = Expect {
                inventory: &inventory,
                drained: match op {
                    ControlOp::Drain { switch } => Some(switch),
                    ControlOp::Uncordon { .. } => None,
                    _ => drained,
                },
            };
            drained = want.drained;
            let outcome = match &reply {
                Ok(r) => check(&op, r, &want),
                Err(e) => Err(format!("{}: {e}", op.kind())),
            };
            out.tally(op.kind(), outcome.is_err());
            if let Err(e) = outcome {
                out.errors.push(e);
                if out.errors.len() > 20 {
                    break 'run;
                }
            }
        }
    }
    out.wall_s = window.wall_s();
    out.work = timed as f64;

    let after = (
        fedd_t.snapshot(),
        pod_t.iter().map(Telemetry::snapshot).collect::<Vec<_>>(),
    );
    let counter = |name: &str| -> u64 {
        after.1.iter().map(|s| s.counter(name)).sum::<u64>()
            - before.1.iter().map(|s| s.counter(name)).sum::<u64>()
    };
    let heartbeats =
        after.0.counter("fed.op.pod-heartbeat") - before.0.counter("fed.op.pod-heartbeat");
    if heartbeats > 0 {
        out.errors.push(format!(
            "{heartbeats} pod heartbeats landed in the window; server attribution is off"
        ));
    }

    let pct = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };
    out.info("ctl.write_ms", summary(&by_class[Class::Write as usize]));
    out.info("ctl.read_ms", summary(&by_class[Class::Read as usize]));
    out.info(
        "ctl.checkpoint_ms",
        summary(&by_class[Class::Checkpoint as usize]),
    );
    out.info("ctl.submit_ms", summary(&submit_ms));
    out.info(
        "ctl.summary",
        Json::Str(format!(
            "write p50 {:.3} ms, read p50 {:.3} ms, checkpoint p50 {:.3} ms over {n} ops",
            pct(&by_class[Class::Write as usize], 0.5),
            pct(&by_class[Class::Read as usize], 0.5),
            pct(&by_class[Class::Checkpoint as usize], 0.5),
        )),
    );
    out.info("seeds", Json::Num(total as f64));
    out.info("admission_refusals", Json::Num(refused as f64));
    out.info("admission_note", Json::Str(ADMISSION_NOTE.into()));
    out.info(
        "transport",
        Json::Str("ctl traffic crossed loopback TCP inside one process: one client, fedd and two farmd pods".into()),
    );
    out.info(
        "placement_threads",
        Json::Num(FarmdConfig::default().placement_threads as f64),
    );

    if tracer.on() {
        let hist = |snaps: &[farm_telemetry::Snapshot], name: &str| -> (u64, u64) {
            snaps
                .iter()
                .filter_map(|s| s.histogram(name))
                .fold((0, 0), |(c, s), h| (c + h.count, s + h.sum))
        };
        let hist_mean = |name: &str| {
            let (c1, s1) = hist(&after.1, name);
            let (c0, s0) = hist(&before.1, name);
            if c1 > c0 {
                (s1 - s0) as f64 / (c1 - c0) as f64
            } else {
                0.0
            }
        };
        let fanout = {
            let h1 = after
                .0
                .histogram("fed.fanout_us")
                .map_or((0, 0), |h| (h.count, h.sum));
            let h0 = before
                .0
                .histogram("fed.fanout_us")
                .map_or((0, 0), |h| (h.count, h.sum));
            if h1.0 > h0.0 {
                (h1.1 - h0.1) as f64 / (h1.0 - h0.0) as f64
            } else {
                0.0
            }
        };
        out.layer("net.wire_queue_us", mean(&wire_us), "us");
        out.layer("net.frames_per_op", frames as f64 / n as f64, "count");
        out.layer("net.bytes_per_op", bytes as f64 / n as f64, "B");
        out.layer("fed.service_us", mean(&fed_us), "us");
        out.layer("fed.fanout_us", fanout, "us");
        out.layer(
            "fed.fanout.errors",
            (after.0.counter("fed.fanout.errors") - before.0.counter("fed.fanout.errors")) as f64,
            "count",
        );
        out.layer("farmd.service_us", mean(&farmd_us), "us");
        out.layer(
            "farmd.replan_delta_us",
            hist_mean("farm.replan_delta_us"),
            "us",
        );
        out.layer(
            "ctl.rejected",
            after
                .1
                .iter()
                .map(|s| s.counter("ctl.rejected"))
                .sum::<u64>() as f64,
            "count",
        );
        out.layer("ckpt.write_us", hist_mean("ckpt.write_us"), "us");
        out.layer(
            "ckpt.bytes",
            after.1.iter().filter_map(|s| s.gauge("ckpt.bytes")).sum(),
            "B",
        );
        out.layer("ctl.submit_ms", mean(&submit_ms), "ms");
        for (p, name) in PHASES.iter().zip([
            "placement.delta.greedy_us",
            "placement.delta.lp_redistribution_us",
            "placement.delta.migration_us",
        ]) {
            out.layer(name, hist_mean(&format!("solver.phase.{p}_us")), "us");
        }
        let (replans, replan_us) = {
            let (c1, s1) = hist(&after.1, "farm.replan_us");
            let (c0, s0) = hist(&before.1, "farm.replan_us");
            (c1 - c0, s1 - s0)
        };
        let phase_us: u64 = PHASES
            .iter()
            .map(|p| {
                let name = format!("solver.phase.{p}_us");
                hist(&after.1, &name).1 - hist(&before.1, &name).1
            })
            .sum();
        out.layer(
            "placement.delta.unattributed_us",
            replan_us.saturating_sub(phase_us) as f64 / replans.max(1) as f64,
            "us",
        );
        out.layer(
            "placement.delta.frontier",
            hist_mean("solver.delta_frontier"),
            "count",
        );
        out.layer(
            "placement.delta.fallback_full",
            counter("solver.delta_fallback_full") as f64,
            "count",
        );
    }
    Ok(())
}
