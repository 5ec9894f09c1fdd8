//! farmctl — operator CLI for a running farmd.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use farm_ctl::CtlClient;
use farm_net::{ControlOp, ControlReply, NetError, SeedDescriptor};
use farm_telemetry::json::{array, num, quote, Obj};

const USAGE: &str = "\
farmctl - FARM control-plane client

USAGE:
    farmctl [--addr <addr:port>] [--fed] [--json] <command> [args]

COMMANDS:
    submit <file.alm> [--name <task>]   Compile and deploy a program
    list [--from <i>] [--limit <n>]     List deployed seeds (paged when
                                        --limit is given: farmctl keeps
                                        following next_index until done)
    describe <task/m<i>/s<j>>           Show one seed with its variables
    stats [--from <i>] [--limit <n>]    Farm summary and counters (the
                                        cursor pages the counter map)
    metrics                             Full metrics dump
    drain <switch-id>                   Cordon a switch and evacuate it
    uncordon <switch-id>                Return a switch to service
    replan                              Force a placement replan
    checkpoint                          Checkpoint all live seeds
    restore                             Restore seeds from checkpoints
    remove <task>                       Remove a deployed task
    pods                                List federation pods (fedd)
    migrate <task> <pod>                Move a task to another pod (fedd)
    shutdown                            Gracefully stop the daemon

OPTIONS:
    --addr <addr>   daemon address (default 127.0.0.1:7373, or
                    127.0.0.1:7474 with --fed)
    --fed           Talk to a fedd federation coordinator instead of a
                    single farmd; submit/list/stats/metrics then span
                    every live pod
    --json          Machine-readable output
    --retry <n>     Retry a failed connection up to n times with
                    exponential backoff (for upgrade windows where
                    farmd is briefly down)
    -h, --help      Show this help
";

fn main() -> ExitCode {
    let mut addr: Option<SocketAddr> = None;
    let mut fed = false;
    let mut json = false;
    let mut retries = 0u64;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next().map(|a| a.parse()) {
                Some(Ok(a)) => addr = Some(a),
                _ => return fail("bad or missing --addr value"),
            },
            "--fed" => fed = true,
            "--json" => json = true,
            "--retry" => match args.next().map(|a| a.parse()) {
                Some(Ok(n)) => retries = n,
                _ => return fail("--retry needs a non-negative attempt count"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => rest.push(arg),
        }
    }
    let addr = addr.unwrap_or_else(|| {
        let default = if fed {
            "127.0.0.1:7474"
        } else {
            "127.0.0.1:7373"
        };
        default.parse().expect("default addr")
    });
    let Some(command) = rest.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let op = match build_op(&command, &rest[1..]) {
        Ok(op) => op,
        Err(msg) => return fail(&msg),
    };
    let mut session = Session::connect(addr, retries);
    // A bounded `list` streams: follow next_index until the listing is
    // exhausted, so `--limit` callers still see every seed.
    if let ControlOp::ListSeeds { from_index, limit } = &op {
        if *limit != 0 {
            return list_pages(&mut session, *from_index, *limit, json);
        }
    }
    match session.op(op) {
        Ok(reply) => render(&reply, json),
        Err(e) => fail(&format!("{addr}: {e}")),
    }
}

/// A farmd session with bounded connection retry: ops that die on a
/// connection-shaped error (`ECONNREFUSED` during an upgrade window, a
/// timeout, a dropped session) are retried against a fresh connection
/// with exponential backoff — the same 2× doubling shape farm-net's
/// reconnect supervisor uses. Server-side rejections never retry.
struct Session {
    addr: SocketAddr,
    retries: u64,
    client: CtlClient,
}

impl Session {
    fn connect(addr: SocketAddr, retries: u64) -> Session {
        Session {
            addr,
            retries,
            client: CtlClient::connect(addr),
        }
    }

    fn op(&mut self, op: ControlOp) -> Result<ControlReply, NetError> {
        let mut backoff = Duration::from_millis(50);
        let mut attempt = 0u64;
        loop {
            match self.client.op(op.clone()) {
                Err(e @ (NetError::Closed | NetError::Disconnected | NetError::Timeout))
                    if attempt < self.retries =>
                {
                    attempt += 1;
                    eprintln!(
                        "farmctl: {}: {e}; retrying ({attempt}/{}) in {}ms",
                        self.addr,
                        self.retries,
                        backoff.as_millis()
                    );
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_secs(1));
                    self.client = CtlClient::connect(self.addr);
                }
                out => return out,
            }
        }
    }
}

/// Pages through `ListSeeds` with the given cursor, accumulating every
/// page; the merged result renders exactly like an unpaginated listing.
fn list_pages(session: &mut Session, mut from_index: u64, limit: u64, json: bool) -> ExitCode {
    let mut all: Vec<SeedDescriptor> = Vec::new();
    let mut total;
    loop {
        match session.op(ControlOp::ListSeeds { from_index, limit }) {
            Ok(ControlReply::Seeds {
                seeds,
                next_index,
                total: t,
            }) => {
                all.extend(seeds);
                total = t;
                if next_index == 0 {
                    break;
                }
                from_index = next_index;
            }
            Ok(other) => return render(&other, json),
            Err(e) => return fail(&format!("{}: {e}", session.addr)),
        }
    }
    render(
        &ControlReply::Seeds {
            seeds: all,
            next_index: 0,
            total,
        },
        json,
    )
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("farmctl: {msg}");
    ExitCode::FAILURE
}

fn build_op(command: &str, args: &[String]) -> Result<ControlOp, String> {
    let switch_arg = || -> Result<u32, String> {
        args.first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("`{command}` needs a numeric switch id"))
    };
    match command {
        "submit" => {
            let path = args
                .first()
                .ok_or("`submit` needs a program file".to_string())?;
            let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let name = match args.iter().position(|a| a == "--name") {
                Some(i) => args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--name needs a value".to_string())?,
                None => std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default(),
            };
            Ok(ControlOp::SubmitProgram { name, source })
        }
        "list" => {
            let (from_index, limit) = cursor_args(args)?;
            Ok(ControlOp::ListSeeds { from_index, limit })
        }
        "describe" => Ok(ControlOp::DescribeSeed {
            key: args
                .first()
                .cloned()
                .ok_or("`describe` needs a seed key".to_string())?,
        }),
        "stats" => {
            let (from_index, limit) = cursor_args(args)?;
            Ok(ControlOp::Stats { from_index, limit })
        }
        "metrics" => Ok(ControlOp::MetricsDump),
        "drain" => Ok(ControlOp::Drain {
            switch: switch_arg()?,
        }),
        "uncordon" => Ok(ControlOp::Uncordon {
            switch: switch_arg()?,
        }),
        "replan" => Ok(ControlOp::Replan),
        "checkpoint" => Ok(ControlOp::Checkpoint),
        "restore" => Ok(ControlOp::Restore),
        "remove" => Ok(ControlOp::RemoveTask {
            task: args
                .first()
                .cloned()
                .ok_or("`remove` needs a task name".to_string())?,
        }),
        "pods" => Ok(ControlOp::ListPods),
        "migrate" => {
            let task = args
                .first()
                .cloned()
                .ok_or("`migrate` needs a task name".to_string())?;
            let to_pod = args
                .get(1)
                .cloned()
                .ok_or("`migrate` needs a destination pod".to_string())?;
            Ok(ControlOp::MigrateTask { task, to_pod })
        }
        "shutdown" => Ok(ControlOp::Shutdown),
        other => Err(format!("unknown command `{other}` (see --help)")),
    }
}

/// Parses the optional `--from <i>` / `--limit <n>` cursor flags;
/// both default to 0, which means "everything" on the wire.
fn cursor_args(args: &[String]) -> Result<(u64, u64), String> {
    let flag = |name: &str| -> Result<u64, String> {
        match args.iter().position(|a| a == name) {
            Some(i) => args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} needs a non-negative integer")),
            None => Ok(0),
        }
    };
    Ok((flag("--from")?, flag("--limit")?))
}

fn render(reply: &ControlReply, json: bool) -> ExitCode {
    if json {
        println!("{}", reply_json(reply));
        return match reply {
            ControlReply::Rejected { .. } | ControlReply::CompileFailed { .. } => ExitCode::FAILURE,
            _ => ExitCode::SUCCESS,
        };
    }
    match reply {
        ControlReply::Ok => println!("ok"),
        ControlReply::Submitted {
            task,
            seeds,
            actions,
        } => println!("submitted `{task}`: {seeds} seeds placed in {actions} plan actions"),
        ControlReply::Seeds {
            seeds,
            next_index,
            total,
        } => {
            println!(
                "{:<24} {:<14} {:>6}  {:<12} alloc[vcpu,ram,tcam,pcie]",
                "SEED", "MACHINE", "SWITCH", "STATE"
            );
            for s in seeds {
                println!(
                    "{:<24} {:<14} {:>6}  {:<12} {:?}",
                    s.key, s.machine, s.switch, s.state, s.alloc
                );
            }
            // total == 0 marks an unpaginated reply; a paginated one
            // says how much of the listing this window covers.
            if *total == 0 {
                println!("{} seed(s)", seeds.len());
            } else if *next_index == 0 {
                println!("{} of {} seed(s)", seeds.len(), total);
            } else {
                println!(
                    "{} of {} seed(s), next page at --from {}",
                    seeds.len(),
                    total,
                    next_index
                );
            }
        }
        ControlReply::Seed { desc, vars } => {
            println!(
                "{}: machine={} switch={} state={}",
                desc.key, desc.machine, desc.switch, desc.state
            );
            for (name, value) in vars {
                println!("  {name} = {value}");
            }
        }
        ControlReply::Json { body } => println!("{body}"),
        ControlReply::Drained { switch, evacuated } => {
            println!("switch {switch} drained: {evacuated} seed(s) migrated off")
        }
        ControlReply::Replanned {
            actions,
            dropped_tasks,
        } => println!("replanned: {actions} actions, {dropped_tasks} dropped task(s)"),
        ControlReply::Checkpointed {
            seeds,
            persist_error,
        } => {
            println!("checkpointed {seeds} seed(s)");
            // Partial success: the in-memory checkpoint happened even
            // though the file write failed — warn, don't fail.
            if let Some(e) = persist_error {
                eprintln!("farmctl: warning: checkpoint not persisted: {e}");
            }
        }
        ControlReply::Restored { seeds, skipped } => {
            println!("restored {seeds} seed(s)");
            if *skipped != 0 {
                eprintln!(
                    "farmctl: warning: {skipped} checkpoint entr(ies) skipped (bad seed key)"
                );
            }
        }
        ControlReply::Rejected { reason } => {
            eprintln!("farmctl: rejected: {reason}");
            return ExitCode::FAILURE;
        }
        ControlReply::CompileFailed { diagnostics } => {
            eprintln!("farmctl: compile failed:");
            for d in diagnostics {
                let scope = if d.machine.is_empty() {
                    "program".to_string()
                } else {
                    format!("machine {}", d.machine)
                };
                eprintln!("  {scope}: {}:{}:{}: {}", d.phase, d.line, d.col, d.message);
            }
            return ExitCode::FAILURE;
        }
        ControlReply::PodRegistered { base } => {
            println!("registered: global switch base {base}")
        }
        ControlReply::Pods { pods } => {
            println!(
                "{:<12} {:<22} {:>8} {:>8} {:>6} {:<5} {:>6} {:>8}",
                "POD", "ADDR", "SWITCHES", "BASE", "QUOTA", "LIVE", "BEATS", "AGE_MS"
            );
            for p in pods {
                println!(
                    "{:<12} {:<22} {:>8} {:>8} {:>6.2} {:<5} {:>6} {:>8}",
                    p.name, p.addr, p.switches, p.base, p.quota, p.live, p.beats, p.age_ms
                );
            }
            println!("{} pod(s)", pods.len());
        }
        ControlReply::Migrated {
            task,
            from_pod,
            to_pod,
            seeds,
        } => println!("migrated `{task}`: {seeds} seed(s) {from_pod} -> {to_pod}"),
        ControlReply::TaskExport { source, seeds } => {
            println!("exported {} seed snapshot(s)", seeds.len());
            for (key, _) in seeds {
                println!("  {key}");
            }
            println!("--- program ---\n{source}");
        }
    }
    ExitCode::SUCCESS
}

fn seed_json(s: &SeedDescriptor) -> String {
    Obj::new()
        .str("key", &s.key)
        .str("task", &s.task)
        .str("machine", &s.machine)
        .num("switch", u64::from(s.switch))
        .str("state", &s.state)
        .raw("alloc", &array(s.alloc.iter().map(|v| num(*v))))
        .finish()
}

fn reply_json(reply: &ControlReply) -> String {
    match reply {
        ControlReply::Ok => Obj::new().str("status", "ok").finish(),
        ControlReply::Submitted {
            task,
            seeds,
            actions,
        } => Obj::new()
            .str("status", "submitted")
            .str("task", task)
            .num("seeds", *seeds)
            .num("actions", *actions)
            .finish(),
        ControlReply::Seeds {
            seeds,
            next_index,
            total,
        } => {
            let mut obj = Obj::new().raw("seeds", &array(seeds.iter().map(seed_json)));
            if *total != 0 {
                obj = obj.num("next_index", *next_index).num("total", *total);
            }
            obj.finish()
        }
        ControlReply::Seed { desc, vars } => {
            let mut v = Obj::new();
            for (name, value) in vars {
                v = v.str(name, value);
            }
            Obj::new()
                .raw("seed", &seed_json(desc))
                .raw("vars", &v.finish())
                .finish()
        }
        // Already JSON from the server; pass through untouched.
        ControlReply::Json { body } => body.clone(),
        ControlReply::Drained { switch, evacuated } => Obj::new()
            .str("status", "drained")
            .num("switch", u64::from(*switch))
            .num("evacuated", *evacuated)
            .finish(),
        ControlReply::Replanned {
            actions,
            dropped_tasks,
        } => Obj::new()
            .str("status", "replanned")
            .num("actions", *actions)
            .num("dropped_tasks", *dropped_tasks)
            .finish(),
        ControlReply::Checkpointed {
            seeds,
            persist_error,
        } => {
            let mut obj = Obj::new()
                .str("status", "checkpointed")
                .num("seeds", *seeds);
            if let Some(e) = persist_error {
                obj = obj.str("persist_error", e);
            }
            obj.finish()
        }
        ControlReply::Restored { seeds, skipped } => {
            let mut obj = Obj::new().str("status", "restored").num("seeds", *seeds);
            if *skipped != 0 {
                obj = obj.num("skipped", *skipped);
            }
            obj.finish()
        }
        ControlReply::Rejected { reason } => Obj::new()
            .str("status", "rejected")
            .str("reason", reason)
            .finish(),
        ControlReply::CompileFailed { diagnostics } => Obj::new()
            .str("status", "compile-failed")
            .raw(
                "diagnostics",
                &array(diagnostics.iter().map(|d| {
                    Obj::new()
                        .str("machine", &d.machine)
                        .str("phase", &d.phase)
                        .num("line", u64::from(d.line))
                        .num("col", u64::from(d.col))
                        .str("message", &d.message)
                        .finish()
                })),
            )
            .finish(),
        ControlReply::PodRegistered { base } => Obj::new()
            .str("status", "registered")
            .num("base", *base)
            .finish(),
        ControlReply::Pods { pods } => Obj::new()
            .raw(
                "pods",
                &array(pods.iter().map(|p| {
                    Obj::new()
                        .str("name", &p.name)
                        .str("addr", &p.addr)
                        .num("switches", p.switches)
                        .num("base", p.base)
                        .float("quota", p.quota)
                        .bool("live", p.live)
                        .num("beats", p.beats)
                        .num("age_ms", p.age_ms)
                        .finish()
                })),
            )
            .finish(),
        ControlReply::Migrated {
            task,
            from_pod,
            to_pod,
            seeds,
        } => Obj::new()
            .str("status", "migrated")
            .str("task", task)
            .str("from_pod", from_pod)
            .str("to_pod", to_pod)
            .num("seeds", *seeds)
            .finish(),
        ControlReply::TaskExport { source, seeds } => Obj::new()
            .str("status", "task-export")
            .str("source", source)
            .raw("seeds", &array(seeds.iter().map(|(k, _)| quote(k))))
            .finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_net::{Diagnostic, PodInfo, SeedSnapshot};

    fn desc(key: &str, alloc: [f64; 4]) -> SeedDescriptor {
        SeedDescriptor {
            key: key.into(),
            task: "hh".into(),
            machine: "m0".into(),
            switch: 7,
            state: "watch".into(),
            alloc,
        }
    }

    /// Pins the `--json` bytes of every reply variant.
    #[test]
    fn reply_json_bytes_are_pinned_for_every_variant() {
        let snapshot = SeedSnapshot {
            machine: "m0".into(),
            state: "s".into(),
            vars: Vec::new(),
        };
        let cases: Vec<(ControlReply, &str)> = vec![
            (ControlReply::Ok, r#"{"status":"ok"}"#),
            (
                ControlReply::Submitted {
                    task: "hh".into(),
                    seeds: 3,
                    actions: 5,
                },
                r#"{"status":"submitted","task":"hh","seeds":3,"actions":5}"#,
            ),
            (
                ControlReply::Seeds {
                    seeds: vec![desc("hh/m0/s0", [0.5, 128.0, 4.0, 1e3])],
                    next_index: 0,
                    total: 0,
                },
                r#"{"seeds":[{"key":"hh/m0/s0","task":"hh","machine":"m0","switch":7,"state":"watch","alloc":[0.5,128,4,1000]}]}"#,
            ),
            (
                ControlReply::Seeds {
                    seeds: Vec::new(),
                    next_index: 4,
                    total: 9,
                },
                r#"{"seeds":[],"next_index":4,"total":9}"#,
            ),
            (
                ControlReply::Seed {
                    desc: desc("hh/m0/s1", [0.25, 0.0, 1.0, 12.5]),
                    vars: vec![
                        ("count".into(), "42".into()),
                        ("note".into(), "say \"hi\"\\\n\t\u{1}é".into()),
                    ],
                },
                "{\"seed\":{\"key\":\"hh/m0/s1\",\"task\":\"hh\",\"machine\":\"m0\",\
                 \"switch\":7,\"state\":\"watch\",\"alloc\":[0.25,0,1,12.5]},\
                 \"vars\":{\"count\":\"42\",\"note\":\"say \\\"hi\\\"\\\\\\n\\t\\u0001é\"}}",
            ),
            (
                ControlReply::Json {
                    body: r#"{"raw":[1, 2]}"#.into(),
                },
                r#"{"raw":[1, 2]}"#,
            ),
            (
                ControlReply::Drained {
                    switch: 2,
                    evacuated: 6,
                },
                r#"{"status":"drained","switch":2,"evacuated":6}"#,
            ),
            (
                ControlReply::Replanned {
                    actions: 8,
                    dropped_tasks: 1,
                },
                r#"{"status":"replanned","actions":8,"dropped_tasks":1}"#,
            ),
            (
                ControlReply::Checkpointed {
                    seeds: 4,
                    persist_error: None,
                },
                r#"{"status":"checkpointed","seeds":4}"#,
            ),
            (
                ControlReply::Checkpointed {
                    seeds: 4,
                    persist_error: Some("disk \"full\"".into()),
                },
                r#"{"status":"checkpointed","seeds":4,"persist_error":"disk \"full\""}"#,
            ),
            (
                ControlReply::Restored {
                    seeds: 4,
                    skipped: 0,
                },
                r#"{"status":"restored","seeds":4}"#,
            ),
            (
                ControlReply::Restored {
                    seeds: 4,
                    skipped: 2,
                },
                r#"{"status":"restored","seeds":4,"skipped":2}"#,
            ),
            (
                ControlReply::Rejected {
                    reason: "no seed `x`\r\n".into(),
                },
                r#"{"status":"rejected","reason":"no seed `x`\r\n"}"#,
            ),
            (
                ControlReply::CompileFailed {
                    diagnostics: vec![Diagnostic {
                        machine: "m0".into(),
                        phase: "parse".into(),
                        line: 3,
                        col: 14,
                        message: "expected `;`".into(),
                    }],
                },
                r#"{"status":"compile-failed","diagnostics":[{"machine":"m0","phase":"parse","line":3,"col":14,"message":"expected `;`"}]}"#,
            ),
            (
                ControlReply::PodRegistered { base: 12 },
                r#"{"status":"registered","base":12}"#,
            ),
            (
                ControlReply::Pods {
                    pods: vec![
                        PodInfo {
                            name: "a".into(),
                            addr: "127.0.0.1:7461".into(),
                            switches: 4,
                            base: 0,
                            quota: 0.75,
                            live: true,
                            beats: 9,
                            age_ms: 120,
                        },
                        PodInfo {
                            name: "b".into(),
                            addr: "127.0.0.1:7462".into(),
                            switches: 4,
                            base: 4,
                            quota: 1.0,
                            live: false,
                            beats: 0,
                            age_ms: 0,
                        },
                    ],
                },
                "{\"pods\":[{\"name\":\"a\",\"addr\":\"127.0.0.1:7461\",\"switches\":4,\
                 \"base\":0,\"quota\":0.75,\"live\":true,\"beats\":9,\"age_ms\":120},\
                 {\"name\":\"b\",\"addr\":\"127.0.0.1:7462\",\"switches\":4,\"base\":4,\
                 \"quota\":1,\"live\":false,\"beats\":0,\"age_ms\":0}]}",
            ),
            (
                ControlReply::Migrated {
                    task: "hh".into(),
                    from_pod: "a".into(),
                    to_pod: "b".into(),
                    seeds: 2,
                },
                r#"{"status":"migrated","task":"hh","from_pod":"a","to_pod":"b","seeds":2}"#,
            ),
            (
                ControlReply::TaskExport {
                    source: "machine m0 {\n}\n".into(),
                    seeds: vec![
                        ("hh/m0/s0".into(), snapshot.clone()),
                        ("hh/m0/\"s1\"".into(), snapshot),
                    ],
                },
                r#"{"status":"task-export","source":"machine m0 {\n}\n","seeds":["hh/m0/s0","hh/m0/\"s1\""]}"#,
            ),
        ];
        for (reply, want) in &cases {
            assert_eq!(reply_json(reply), *want, "{}", reply.kind());
        }
        let mut kinds: Vec<&str> = cases.iter().map(|(r, _)| r.kind()).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), 15, "every ControlReply variant is pinned");
    }

    #[test]
    fn non_finite_allocations_render_as_null() {
        let s = seed_json(&desc("hh/m0/s0", [f64::NAN, f64::INFINITY, 1.0, 0.5]));
        assert!(s.ends_with(r#""alloc":[null,null,1,0.5]}"#), "{s}");
    }
}
