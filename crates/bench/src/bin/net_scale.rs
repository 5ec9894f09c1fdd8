//! Machine-readable transport perf harness.
//!
//! Stands up a real [`NetServer`] (the readiness-polling event loop) on
//! loopback, ramps thousands of concurrent client connections against
//! it, and measures what the FARM control plane cares about: RPC
//! round-trip latency under a mostly-idle fleet, pipelined frame
//! throughput, and the connection count the event loop actually holds
//! (read back from the `net.server_conns` gauge). The sweep covers two
//! axes — connection count and message rate (the pipelining depth each
//! chatty connection bursts before draining, `burst = 1` being strict
//! request/response) — and results land in `BENCH_net.json` in a
//! stable schema (`farm-bench/net_scale/v2`) that future PRs append
//! runs to.
//!
//! ```text
//! net_scale [--smoke] [--iters N] [--out PATH]
//!           [--check BASELINE] [--max-regression X]
//! ```
//!
//! `--check` re-reads a committed baseline and exits non-zero when any
//! matching (conns, burst) entry's RPC p50 regressed — or its frame
//! throughput dropped — by more than `--max-regression` (default 3.0),
//! the CI `net-scale-smoke` gate. Loopback micro-latencies are noisier
//! than solver wall times, hence the wider default than
//! `placement_scale`.
//!
//! The full sweep needs ~2 file descriptors per connection (client +
//! accepted side share the process). The harness probes `RLIMIT_NOFILE`
//! and tries to raise the soft limit; if the hard limit still cannot
//! cover a scale, that scale is trimmed to fit and the entry records
//! the trimmed count rather than failing the run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_bench::perf::percentile;
use farm_net::{encode_envelope, Decoded, Envelope, Frame, FrameDecoder, NetServer};
use farm_telemetry::json::Json;
use farm_telemetry::Telemetry;

const SCHEMA: &str = "farm-bench/net_scale/v2";
/// Spare descriptors left for the listener, epoll/pipe fds, stdio.
const FD_HEADROOM: u64 = 64;

struct Args {
    smoke: bool,
    iters: usize,
    out: String,
    check: Option<String>,
    max_regression: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        iters: 50,
        out: "BENCH_net.json".to_string(),
        check: None,
        max_regression: 3.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--iters" => args.iters = val("--iters")?.parse().map_err(|e| format!("{e}"))?,
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
    Ok(args)
}

/// `RLIMIT_NOFILE` probe/raise, declared against the libc every Rust
/// binary already links (same idiom as `farm_net::poll`).
#[cfg(unix)]
mod fd_limit {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// Tries to make `need` descriptors available; returns the soft
    /// limit actually in force afterwards.
    pub fn ensure(need: u64) -> u64 {
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: plain out-pointer syscall wrappers on a stack value.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return need; // can't even probe — proceed optimistically
        }
        if lim.cur >= need {
            return lim.cur;
        }
        let want = Rlimit {
            cur: need.min(lim.max),
            max: lim.max,
        };
        // SAFETY: raising the soft limit within the hard limit.
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
            return want.cur;
        }
        lim.cur
    }
}

#[cfg(not(unix))]
mod fd_limit {
    pub fn ensure(need: u64) -> u64 {
        need
    }
}

/// One blocking client socket with its own incremental decoder — the
/// counterpart the event loop serves thousands of.
struct BenchConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl BenchConn {
    fn connect(addr: SocketAddr) -> std::io::Result<BenchConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(BenchConn {
            stream,
            decoder: FrameDecoder::new(),
        })
    }

    fn send_request(&mut self, corr: u64) -> std::io::Result<usize> {
        let env = Envelope {
            corr,
            response: false,
            frame: Frame::Heartbeat {
                switch: 1,
                seq: corr,
                at_ns: 0,
            },
        };
        let mut buf = Vec::with_capacity(32);
        encode_envelope(&env, &mut buf);
        self.stream.write_all(&buf)?;
        Ok(buf.len())
    }

    /// Reads until `expect` response envelopes arrived; returns the
    /// wire bytes consumed.
    fn drain_responses(&mut self, expect: usize) -> std::io::Result<usize> {
        let mut seen = 0;
        let mut nbytes = 0;
        let mut chunk = [0u8; 4096];
        while seen < expect {
            while let Some(decoded) = self.decoder.next()? {
                if let Decoded::Frame(env, n) = decoded {
                    nbytes += n;
                    if env.response {
                        seen += 1;
                        if seen == expect {
                            return Ok(nbytes);
                        }
                    }
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.extend(&chunk[..n]);
        }
        Ok(nbytes)
    }

    /// One request → response round trip, timed.
    fn rpc(&mut self, corr: u64) -> std::io::Result<f64> {
        let start = Instant::now();
        self.send_request(corr)?;
        self.drain_responses(1)?;
        Ok(start.elapsed().as_nanos() as f64 / 1_000.0)
    }
}

/// Polls the server's connection gauge until it reaches `want` or the
/// deadline passes; returns the highest value observed.
fn await_gauge(telemetry: &Telemetry, want: f64, deadline: Duration) -> f64 {
    let start = Instant::now();
    let mut seen: f64 = 0.0;
    loop {
        let now = telemetry
            .snapshot()
            .gauge("net.server_conns")
            .unwrap_or(0.0);
        seen = seen.max(now);
        if seen >= want || start.elapsed() > deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

struct ScaleResult {
    conns: usize,
    chatty: usize,
    burst: usize,
    rpc_us: Vec<f64>,
    frames_per_sec: f64,
    bytes_per_sec: f64,
    max_concurrent: f64,
}

/// Ramps `conns` connections against a fresh server, runs the latency
/// and throughput phases over a `chatty` subset, and reads the
/// concurrency high-water mark back from telemetry. `burst` sets the
/// message rate of the throughput phase: each chatty connection
/// pipelines that many requests before draining the replies, so
/// `burst = 1` measures strict request/response flow and larger values
/// a firehose.
fn run_scale(
    conns: usize,
    chatty: usize,
    iters: usize,
    burst: usize,
) -> std::io::Result<ScaleResult> {
    let telemetry = Telemetry::new();
    // Every request gets an `Ack` from the event loop itself; the echo
    // handler keeps the worker path (decode → handle → encode) honest.
    let handler = Arc::new(|env: &Envelope| Some(env.frame.clone()));
    let mut server = NetServer::bind("127.0.0.1:0".parse().unwrap(), &telemetry, handler)?;
    let addr = server.local_addr();

    // Phase 1: ramp. The chatty subset comes first so its sockets are
    // warm; the rest just hold their connection open like a mostly-idle
    // switch fleet between poll rounds.
    let mut chatters = Vec::with_capacity(chatty);
    for _ in 0..chatty {
        chatters.push(BenchConn::connect(addr)?);
    }
    let mut idle = Vec::with_capacity(conns - chatty);
    for i in 0..conns - chatty {
        idle.push(TcpStream::connect(addr)?);
        if i % 256 == 255 {
            // Let the accept loop keep pace with the ramp.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let max_concurrent = await_gauge(&telemetry, conns as f64, Duration::from_secs(10));

    // Phase 2: sequential RPC latency round-robined over the chatty
    // subset while the whole fleet stays connected.
    let mut rpc_us = Vec::with_capacity(chatty * iters);
    let mut corr = 1u64;
    for _ in 0..iters {
        for conn in &mut chatters {
            rpc_us.push(conn.rpc(corr)?);
            corr += 1;
        }
    }

    // Phase 3: throughput at the requested message rate — every chatty
    // connection pipelines `burst` requests back-to-back, then drains
    // the replies, for enough rounds to cover `iters` requests. Frame
    // and byte totals come from the server's own counters, so they
    // include both directions exactly as the event loop accounted them.
    let rounds = iters.div_ceil(burst);
    let before = telemetry.snapshot();
    let start = Instant::now();
    for _ in 0..rounds {
        for conn in &mut chatters {
            for _ in 0..burst {
                conn.send_request(corr)?;
                corr += 1;
            }
        }
        for conn in &mut chatters {
            conn.drain_responses(burst)?;
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let after = telemetry.snapshot();
    let frames = (after.counter("net.frames_received") - before.counter("net.frames_received"))
        + (after.counter("net.frames_sent") - before.counter("net.frames_sent"));
    let bytes = after.counter("net.bytes") - before.counter("net.bytes");

    drop(idle);
    drop(chatters);
    server.shutdown();
    Ok(ScaleResult {
        conns,
        chatty,
        burst,
        rpc_us,
        frames_per_sec: frames as f64 / elapsed,
        bytes_per_sec: bytes as f64 / elapsed,
        max_concurrent,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("net_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Connection counts and message rates; full mode keeps the smoke
    // scales so a smoke `--check` run always finds comparable baseline
    // entries.
    let scales: &[usize] = if args.smoke { &[256] } else { &[256, 2_048] };
    let bursts: &[usize] = if args.smoke { &[1, 64] } else { &[1, 64, 256] };

    let mut sweep = Vec::new();
    for &conns in scales {
        for &burst in bursts {
            sweep.push((conns, burst));
        }
    }

    let mut entries = Vec::new();
    let mut ok = true;
    for (conns, burst) in sweep {
        // 2 fds per connection (client socket + accepted socket live in
        // this process) plus fixed overhead.
        let need = (conns as u64) * 2 + FD_HEADROOM;
        let avail = fd_limit::ensure(need);
        let conns = if avail < need {
            let trimmed = ((avail.saturating_sub(FD_HEADROOM)) / 2) as usize;
            eprintln!(
                "net_scale: RLIMIT_NOFILE {avail} cannot hold {conns} connections, \
                 trimming to {trimmed}"
            );
            trimmed
        } else {
            conns
        };
        if conns < 8 {
            eprintln!("net_scale: descriptor limit too low for a meaningful run");
            ok = false;
            continue;
        }
        let chatty = conns.min(64);
        println!("== {conns} connections ({chatty} chattering, burst {burst}) ==");
        let r = match run_scale(conns, chatty, args.iters, burst) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("net_scale: scale {conns}x{burst} failed: {e}");
                ok = false;
                continue;
            }
        };
        if (r.max_concurrent as usize) < r.conns {
            eprintln!(
                "net_scale: event loop only reached {} of {} concurrent connections",
                r.max_concurrent, r.conns
            );
            ok = false;
        }
        let p50 = percentile(&r.rpc_us, 0.50);
        let p99 = percentile(&r.rpc_us, 0.99);
        println!(
            "  rpc p50 {p50:.0} us, p99 {p99:.0} us | {:.0} frames/s, {:.2} MB/s | \
             {:.0} concurrent",
            r.frames_per_sec,
            r.bytes_per_sec / 1e6,
            r.max_concurrent,
        );
        entries.push(Json::obj([
            ("conns", Json::Num(r.conns as f64)),
            ("chatty", Json::Num(r.chatty as f64)),
            ("burst", Json::Num(r.burst as f64)),
            ("iters", Json::Num(args.iters as f64)),
            (
                "host_threads",
                Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("max_concurrent_connections", Json::Num(r.max_concurrent)),
            (
                "rpc_us",
                Json::obj([("p50", Json::Num(p50)), ("p99", Json::Num(p99))]),
            ),
            ("frames_per_sec", Json::Num(r.frames_per_sec)),
            ("bytes_per_sec", Json::Num(r.bytes_per_sec)),
        ]));
    }

    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("entries", Json::Arr(entries)),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("net_scale: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    if let Some(baseline_path) = &args.check {
        match check_regression(&doc, baseline_path, args.max_regression) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("net_scale: {e}");
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

/// Compares the run against a committed baseline: every entry sharing a
/// (conns, burst) key must keep `rpc_us.p50` within `max_regression ×`
/// of the baseline, and `frames_per_sec` above `baseline ÷
/// max_regression` — latency and throughput gate together so a change
/// cannot trade one away silently.
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
    let key = |e: &Json| -> Option<(u64, u64)> {
        Some((
            e.get("conns")?.as_f64()? as u64,
            e.get("burst")?.as_f64()? as u64,
        ))
    };
    let p50_of = |e: &Json| {
        e.get("rpc_us")
            .and_then(|t| t.get("p50"))
            .and_then(Json::as_f64)
    };
    let fps_of = |e: &Json| e.get("frames_per_sec").and_then(Json::as_f64);
    let base_entries = baseline
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline has no entries")?;
    let mut compared = 0;
    let mut worst: f64 = 0.0;
    for entry in doc.get("entries").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(k) = key(entry) else { continue };
        let Some(base) = base_entries.iter().find(|b| key(b) == Some(k)) else {
            continue; // scale not in the baseline
        };
        let (conns, burst) = k;
        compared += 1;
        if let (Some(new_p50), Some(base_p50)) = (p50_of(entry), p50_of(base)) {
            let ratio = new_p50 / base_p50.max(1e-9);
            worst = worst.max(ratio);
            if ratio > max_regression {
                return Err(format!(
                    "regression: conns={conns} burst={burst} rpc p50 {new_p50:.0} us vs \
                     baseline {base_p50:.0} us ({ratio:.2}x > {max_regression}x)"
                ));
            }
        }
        if let (Some(new_fps), Some(base_fps)) = (fps_of(entry), fps_of(base)) {
            let ratio = base_fps / new_fps.max(1e-9);
            worst = worst.max(ratio);
            if ratio > max_regression {
                return Err(format!(
                    "regression: conns={conns} burst={burst} {new_fps:.0} frames/s vs \
                     baseline {base_fps:.0} ({ratio:.2}x slower > {max_regression}x)"
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
        "regression check vs {baseline_path}: {compared} entries, worst ratio {worst:.2}x \
         (limit {max_regression}x)"
    ))
}
