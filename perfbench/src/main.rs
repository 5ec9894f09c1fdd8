//! The FARM benchmark: one command, four workloads, end-to-end metrics
//! from an untraced run and a per-layer split from a traced one.
//!
//! ```text
//! farm-perfbench --workload <sim_kiss|sim_flows|place_churn|ctl_fed>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). A fuller record — sample counts,
//! host facts and notes — is written to
//! `.perfbench_out/<workload>-trace<0|1>.json`, and a traced run's spans
//! to `.perfbench_out/<workload>-spans.tsv`. The exit code is non-zero
//! when a correctness check failed.
//!
//! Each workload reports the same end-to-end metrics; what an "op", a
//! "heavy op" and a unit of work mean on it is listed in
//! `perfbench/README.md`. The process runs pinned to one CPU, and the
//! end-to-end timings are scaled to a reference host speed measured
//! during the window; see [`host`].

mod ctl;
mod host;
mod place;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use farm_bench::perf::{percentile, Json};

use crate::host::HostProbe;
use crate::trace::Tracer;

/// Where the per-run records go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// Points of the measured window at which the set-up is repeated, on
/// top of the one set-up that precedes the window; see [`Window`].
const SETUP_POINTS: u32 = 24;

/// Seconds of the measured window between two runs of the host-speed
/// probe; at about 1 ms a probe, 2 % of the window.
const PROBE_EVERY_S: f64 = 0.05;

/// Per-layer metrics, in report order. Every workload reports all of
/// them; a layer its path never calls reads zero.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("scenario.advance_s", "s"),
    ("core.apply_traffic_s", "s"),
    ("netsim.ns_per_event", "ns"),
    ("pcie.requests", "count"),
    ("switch.port_stats_read", "count"),
    ("core.advance_s", "s"),
    ("soil.us_per_delivery", "us"),
    ("soil.deliveries", "count"),
    ("soil.asic_polls", "count"),
    ("soil.aggregation_ratio", "ratio"),
    ("baselines.s", "s"),
    ("core.deploy_s", "s"),
    ("placement.full.greedy_us", "us"),
    ("placement.full.lp_redistribution_us", "us"),
    ("placement.full.migration_us", "us"),
    ("placement.delta.greedy_us", "us"),
    ("placement.delta.lp_redistribution_us", "us"),
    ("placement.delta.migration_us", "us"),
    ("placement.delta.unattributed_us", "us"),
    ("placement.delta.frontier", "count"),
    ("placement.delta.reused_ratio", "ratio"),
    ("placement.delta.fallback_full", "count"),
    ("net.wire_queue_us", "us"),
    ("net.frames_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("fed.service_us", "us"),
    ("fed.fanout_us", "us"),
    ("fed.fanout.errors", "count"),
    ("farmd.service_us", "us"),
    ("farmd.replan_delta_us", "us"),
    ("ctl.rejected", "count"),
    ("ckpt.write_us", "us"),
    ("ckpt.bytes", "B"),
    ("ctl.submit_ms", "ms"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Identifies the measured source; see [`source_digest`].
    pub source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(7),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        source_digest: source_digest(),
    })
}

/// What one workload measured. The end-to-end metrics are derived from
/// it in [`e2e_metrics`]; `layers` is filled only by a traced run.
pub struct Outcome {
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Units of work done in the measured window, and its wall length.
    pub work: f64,
    pub work_unit: &'static str,
    pub wall_s: f64,
    /// Wall seconds of window ops timed apart from the others (the
    /// checkpoints of `ctl_fed`, which wait on the disk). They stay in
    /// `wall_s`, which the traced run splits into layers, and are left
    /// out of `work_per_s` and the op metrics.
    pub aside_s: f64,
    /// The workload's op, in milliseconds, by op kind; each kind weighs
    /// the same in the op metrics, however often the workload runs it.
    pub op_name: &'static str,
    pub op_ms: BTreeMap<&'static str, Vec<f64>>,
    /// The workload's heavy op, in milliseconds.
    pub heavy_name: &'static str,
    pub heavy_ms: Vec<f64>,
    /// Attempted and failed ops of the measured window (correctness
    /// failures included) by op kind; see [`Outcome::tally`].
    pub tallies: BTreeMap<&'static str, (u64, u64)>,
    /// The same for ops the set-up makes; see [`Outcome::tally_setup`].
    pub setup_tallies: BTreeMap<&'static str, (u64, u64)>,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub layers: BTreeMap<&'static str, (f64, &'static str)>,
    /// Wall time of every run of the host-speed probe, ms.
    pub probe_ms: Vec<f64>,
    /// Root span names whose self time belongs to no layer.
    pub unowned: Vec<&'static str>,
    pub info: BTreeMap<&'static str, Json>,
}

impl Outcome {
    pub fn new(
        op_name: &'static str,
        heavy_name: &'static str,
        work_unit: &'static str,
    ) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            work: 0.0,
            work_unit,
            wall_s: 0.0,
            aside_s: 0.0,
            op_name,
            op_ms: BTreeMap::new(),
            heavy_name,
            heavy_ms: Vec::new(),
            tallies: BTreeMap::new(),
            setup_tallies: BTreeMap::new(),
            errors: Vec::new(),
            layers: BTreeMap::new(),
            probe_ms: Vec::new(),
            unowned: Vec::new(),
            info: BTreeMap::new(),
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            LAYER_METRICS.contains(&(name, unit)),
            "{name} [{unit}] is not listed"
        );
        self.layers.insert(name, (value, unit));
    }

    pub fn info(&mut self, key: &'static str, value: Json) {
        self.info.insert(key, value);
    }

    /// Records one op of `kind` that the measured window attempted, and
    /// whether it failed.
    pub fn tally(&mut self, kind: &'static str, failed: bool) {
        let t = self.tallies.entry(kind).or_default();
        t.0 += 1;
        t.1 += u64::from(failed);
    }

    /// Records one op of `kind` that the set-up attempted, and whether it
    /// failed. Set-up ops count in `ok_share` and the run record, not in
    /// the result line's `attempted` and `failed`, which count the ops
    /// of the measured window.
    pub fn tally_setup(&mut self, kind: &'static str, failed: bool) {
        let t = self.setup_tallies.entry(kind).or_default();
        t.0 += 1;
        t.1 += u64::from(failed);
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.values().map(|t| t.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.values().map(|t| t.1).sum()
    }
}

/// Runs the workload's set-up once before the window and records its
/// wall time. A failed set-up is recorded as an error and ends the run.
pub fn set_up<T>(out: &mut Outcome, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
    let started = Instant::now();
    match f() {
        Ok(v) => {
            out.setup_s.push(started.elapsed().as_secs_f64());
            Some(v)
        }
        Err(e) => {
            out.errors.push(format!("set-up: {e}"));
            None
        }
    }
}

/// The measured window. It lasts `--seconds` of wall time. Between ops
/// the workload calls [`Window::interlude`], which runs two kinds of
/// side work when they are due and keeps them out of the window's wall
/// time: the host-speed probe every [`PROBE_EVERY_S`], and at
/// [`SETUP_POINTS`] evenly spaced points the workload's set-up, built once
/// more and thrown away, so set-up time is sampled under the same host
/// conditions as the ops rather than in one burst before them.
pub struct Window {
    started: Instant,
    seconds: f64,
    excluded: Duration,
    points_done: u32,
    probe: HostProbe,
    next_probe_s: f64,
}

impl Window {
    pub fn open(seconds: u64) -> Window {
        let probe = HostProbe::new();
        // One untimed run warms the probe's table into the cache.
        probe.run();
        Window {
            started: Instant::now(),
            seconds: seconds as f64,
            excluded: Duration::ZERO,
            points_done: 0,
            probe,
            next_probe_s: 0.0,
        }
    }

    /// Whether the window still runs.
    pub fn running(&self) -> bool {
        self.started.elapsed().as_secs_f64() < self.seconds
    }

    /// Wall seconds of the window spent on the workload, set-ups left out.
    pub fn wall_s(&self) -> f64 {
        (self.started.elapsed() - self.excluded).as_secs_f64()
    }

    /// Runs the probe when it is due, and the set-up `f` when the next
    /// sampling point is; records their times and drops what the set-up
    /// built. All of it is kept out of [`Window::wall_s`].
    pub fn interlude<T>(&mut self, out: &mut Outcome, f: impl FnOnce() -> Result<T, String>) {
        let elapsed = self.started.elapsed();
        if elapsed.as_secs_f64() >= self.next_probe_s {
            let ms = self.probe.run();
            out.probe_ms.push(ms);
            self.excluded += self.started.elapsed() - elapsed;
            self.next_probe_s = self.started.elapsed().as_secs_f64() + PROBE_EVERY_S;
        }
        let due = f64::from(self.points_done + 1) * self.seconds / f64::from(SETUP_POINTS + 1);
        if self.points_done >= SETUP_POINTS || self.started.elapsed().as_secs_f64() < due {
            return;
        }
        self.points_done += 1;
        let started = Instant::now();
        match f() {
            Ok(built) => {
                out.setup_s.push(started.elapsed().as_secs_f64());
                drop(built);
            }
            Err(e) => out.errors.push(format!("set-up: {e}")),
        }
        self.excluded += started.elapsed();
    }
}

/// A deterministic stream of indices below `n`, drawn from `seed`
/// (xorshift64).
pub fn picker(seed: u64) -> impl FnMut(usize) -> usize {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move |n| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean, median and tail percentiles of `samples`, with the sample
/// count, as a JSON object for the run record.
pub fn summary(samples: &[f64]) -> Json {
    if samples.is_empty() {
        return Json::obj([("n", Json::Num(0.0))]);
    }
    Json::obj([
        ("n", Json::Num(samples.len() as f64)),
        ("mean", Json::Num(mean(samples))),
        ("p50", Json::Num(percentile(samples, 0.50))),
        ("p90", Json::Num(percentile(samples, 0.90))),
        ("p99", Json::Num(percentile(samples, 0.99))),
    ])
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The git commit of the working directory, when it is a git checkout.
fn commit() -> Json {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or(Json::Null, |s| Json::Str(s.trim().to_string()))
}

/// FNV-1a over the path and bytes of every file under `crates/` and
/// `perfbench/src/`: identifies the measured source where no git
/// metadata exists.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// How much faster the host ran than the reference speed during the
/// window: [`host::REFERENCE_MS`] over the probe's mean time.
fn host_speed(o: &Outcome) -> Result<f64, String> {
    if o.probe_ms.is_empty() {
        return Err("no host-speed probe samples".into());
    }
    Ok(host::REFERENCE_MS / mean(&o.probe_ms))
}

/// The end-to-end metrics of an untraced run, by name: (value, unit).
/// Timings and the work rate are scaled to the reference host speed
/// ([`host_speed`]). `ok_share`,
/// `op_ms.mean` and `op_ms.p90` weigh every op kind the same, so they do
/// not depend on how often the workload runs each kind.
fn e2e_metrics(o: &Outcome) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if o.setup_s.is_empty() {
        return Err("no set-up samples".into());
    }
    if o.op_ms.is_empty() || o.op_ms.values().any(Vec::is_empty) {
        return Err(format!("no {} samples", o.op_name));
    }
    if o.heavy_ms.is_empty() {
        return Err(format!("no {} samples", o.heavy_name));
    }
    if o.attempted() == 0 || o.wall_s <= o.aside_s {
        return Err("nothing was attempted".into());
    }
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let speed = host_speed(o)?;
    let per_kind = |f: &dyn Fn(&[f64]) -> f64| {
        speed * mean(&o.op_ms.values().map(|v| f(v)).collect::<Vec<_>>())
    };
    let ok: Vec<f64> = o
        .tallies
        .values()
        .chain(o.setup_tallies.values())
        .map(|&(attempted, failed)| 1.0 - failed as f64 / attempted as f64)
        .collect();
    Ok(vec![
        ("setup_s", speed * percentile(&o.setup_s, 0.5), "s"),
        ("peak_rss_mb", rss, "MiB"),
        ("ok_share", mean(&ok), "share"),
        (
            "work_per_s",
            o.work / ((o.wall_s - o.aside_s) * speed),
            "1/s",
        ),
        ("op_ms.mean", per_kind(&mean), "ms"),
        ("op_ms.p90", per_kind(&|v| percentile(v, 0.90)), "ms"),
        ("heavy_op_ms.mean", speed * mean(&o.heavy_ms), "ms"),
    ])
}

/// The per-layer metrics of a traced run, every listed name present.
fn layer_metrics(
    o: &Outcome,
    tracer: &Tracer,
    span_cost_ns: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let owned_ns: u64 = tracer
        .layers()
        .iter()
        .filter(|(name, _)| !o.unowned.contains(name))
        .map(|(_, l)| l.self_ns)
        .sum();
    let mut layers = o.layers.clone();
    layers.insert("unattributed_s", (o.wall_s - owned_ns as f64 / 1e9, "s"));
    layers.insert("trace.overhead_s", (tracer.overhead_s(span_cost_ns), "s"));
    layers.insert("trace.spans", (tracer.len() as f64, "count"));
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).map_or(0.0, |(v, _)| *v), unit))
        .collect()
}

/// Attempted and failed ops by kind, as a JSON object for the record.
fn tally_json(tallies: &BTreeMap<&'static str, (u64, u64)>) -> Json {
    Json::Obj(
        tallies
            .iter()
            .map(|(k, &(a, f))| {
                let t = Json::obj([
                    ("attempted", Json::Num(a as f64)),
                    ("failed", Json::Num(f as f64)),
                ]);
                (k.to_string(), t)
            })
            .collect(),
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before pinning, which narrows what the process may use.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = match host::pin_to_current_cpu() {
        Ok(cpu) => Json::Num(cpu as f64),
        Err(e) => {
            eprintln!("perfbench: running unpinned: {e}");
            Json::Null
        }
    };
    if let Err(e) = host::one_malloc_arena() {
        eprintln!("perfbench: {e}");
    }
    let span_cost_ns = if args.trace {
        trace::span_cost_ns()
    } else {
        0.0
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "sim_kiss" => sim::sim_kiss(&args, &mut tracer),
        "sim_flows" => sim::sim_flows(&args, &mut tracer),
        "place_churn" => place::place_churn(&args, &mut tracer),
        "ctl_fed" => ctl::ctl_fed(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let mut errors = outcome.errors.clone();
    let metrics = if args.trace {
        layer_metrics(&outcome, &tracer, span_cost_ns)
    } else {
        match e2e_metrics(&outcome) {
            Ok(m) => m,
            Err(e) => {
                errors.push(e);
                Vec::new()
            }
        }
    };
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }

    println!(
        "{} seed {} ({} s, trace {}): {} attempted, {} failed, host_threads {host_threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted(),
        outcome.failed(),
    );
    for (name, value, unit) in &metrics {
        println!("  {name} = {value:.6} {unit}");
    }
    if let Ok(speed) = host_speed(&outcome) {
        println!("  host_speed: {speed:.4} (timings scaled by it)");
    }
    for (key, value) in &outcome.info {
        if let Json::Str(s) = value {
            println!("  {key}: {s}");
        }
    }

    let record = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("host_threads", Json::Num(host_threads as f64)),
        ("pinned_cpu", cpu),
        (
            "host_probe_ms",
            Json::obj([
                ("reference", Json::Num(host::REFERENCE_MS)),
                ("samples", summary(&outcome.probe_ms)),
            ]),
        ),
        (
            "host_speed",
            host_speed(&outcome).map_or(Json::Null, Json::Num),
        ),
        ("commit", commit()),
        ("source_digest", Json::Str(args.source_digest.clone())),
        ("correct", Json::Bool(errors.is_empty())),
        (
            "errors",
            Json::Arr(errors.iter().cloned().map(Json::Str).collect()),
        ),
        ("attempted", Json::Num(outcome.attempted() as f64)),
        ("failed", Json::Num(outcome.failed() as f64)),
        ("ops_by_kind", tally_json(&outcome.tallies)),
        ("setup_ops_by_kind", tally_json(&outcome.setup_tallies)),
        ("work", Json::Num(outcome.work)),
        ("work_unit", Json::Str(outcome.work_unit.into())),
        ("wall_s", Json::Num(outcome.wall_s)),
        ("aside_s", Json::Num(outcome.aside_s)),
        (
            "setup_s",
            Json::Arr(outcome.setup_s.iter().copied().map(Json::Num).collect()),
        ),
        (
            "op_ms",
            Json::obj([
                ("op", Json::Str(outcome.op_name.into())),
                (
                    "samples_by_kind",
                    Json::Obj(
                        outcome
                            .op_ms
                            .iter()
                            .map(|(k, v)| (k.to_string(), summary(v)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "heavy_op_ms",
            Json::obj([
                ("op", Json::Str(outcome.heavy_name.into())),
                ("samples", summary(&outcome.heavy_ms)),
            ]),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        let value =
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::Str((*u).into()))]);
                        (n.to_string(), value)
                    })
                    .collect(),
            ),
        ),
        (
            "info",
            Json::Obj(
                outcome
                    .info
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    let path = format!(
        "{OUT_DIR}/{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record.pretty()))
    {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    if args.trace {
        let path = format!("{OUT_DIR}/{}-spans.tsv", args.workload);
        if let Err(e) = std::fs::write(&path, tracer.to_tsv()) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }

    if metrics.is_empty() {
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        outcome.attempted(),
        outcome.failed(),
        body.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
