//! Federation end-to-end: three real `farmd` pods behind one real
//! `fedd` coordinator, all over loopback TCP.
//!
//! The flow exercises every coordinator capability the design promises:
//!
//! * pods register sequentially and receive contiguous global bases;
//! * a spanning submit splits into per-pod sub-deployments with
//!   localized switch ids;
//! * a single-pod submit routes verbatim;
//! * cross-pod migration moves a task's seeds byte-identically
//!   (checkpoint export → submit-with-snapshot import → source removal);
//! * federated Stats equals the sum of the pods' own Stats;
//! * SIGKILLing a pod degrades federated reads to the survivors without
//!   wedging the coordinator.
//!
//! When `FED_STATS_OUT` is set, the post-kill federated stats body is
//! written there (the CI soak job uploads it as an artifact).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::Child;
use std::time::Duration;

use farm_ctl::CtlClient;
use farm_net::{ControlOp, ControlReply};
use farm_telemetry::json::Json;

#[path = "util/mod.rs"]
mod util;

/// Fabric shape per pod: 1 spine + 3 leaves = 4 switches, so the
/// three-pod federation spans global switch ids 0..12 with bases
/// 0 / 4 / 8.
const SPINES: usize = 1;
const LEAVES: usize = 3;
const POD_SWITCHES: u64 = (SPINES + LEAVES) as u64;

/// A machine that freezes itself on its first poll round: `done` has
/// no poll handler, so once a seed transits, its variables never move
/// again. That makes "migration preserves the variables byte for byte"
/// a deterministic assertion instead of a race against the tick loop.
fn freezer_machine(places: &str) -> String {
    format!(
        "machine Frozen {{\n  \
           {places}\n  \
           poll pollStats = Poll {{ .ival = 10, .what = port ANY }};\n  \
           long polls = 0;\n  \
           long seen = 0;\n  \
           state run {{\n    \
             util (res) {{ if (res.vCPU >= 0) then {{ return 1; }} }}\n    \
             when (pollStats as stats) do {{\n      \
               polls = polls + 1;\n      \
               seen = seen + list_len(stats);\n      \
               transit done;\n    \
             }}\n  \
           }}\n  \
           state done {{\n    \
             util (res) {{ return 1; }}\n  \
           }}\n}}\n"
    )
}

fn spawn_fedd(config_body: String) -> (Child, SocketAddr) {
    let cfg = util::write_config("fedd.toml", config_body);
    util::spawn_daemon(
        &util::locate_bin("fedd", option_env!("CARGO_BIN_EXE_fedd")),
        &cfg,
    )
}

fn spawn_pod(name: &str, coordinator: SocketAddr) -> (Child, SocketAddr) {
    let cfg = util::write_config(
        &format!("pod-{name}.toml"),
        format!(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 20\n\
             [farm]\nspines = {SPINES}\nleaves = {LEAVES}\ntick_interval_ms = 5\n\
             [fed]\ncoordinator = \"{coordinator}\"\npod_name = \"{name}\"\n\
             heartbeat_ms = 100\n"
        ),
    );
    util::spawn_daemon(
        &util::locate_bin("farmd", option_env!("CARGO_BIN_EXE_farmd")),
        &cfg,
    )
}

fn rpc(client: &CtlClient, op: ControlOp) -> ControlReply {
    client.op(op).expect("control rpc")
}

/// ListPods as a name → (base, live) map.
fn pods_view(fed: &CtlClient) -> BTreeMap<String, (u64, bool)> {
    match rpc(fed, ControlOp::ListPods) {
        ControlReply::Pods { pods } => pods
            .into_iter()
            .map(|p| (p.name, (p.base, p.live)))
            .collect(),
        other => panic!("list-pods answered {other:?}"),
    }
}

/// Seed keys a daemon reports, via the cursorless full listing.
fn seed_keys(client: &CtlClient) -> Vec<String> {
    match rpc(client, ControlOp::list_all()) {
        ControlReply::Seeds { seeds, .. } => seeds.into_iter().map(|s| s.key).collect(),
        other => panic!("list-seeds answered {other:?}"),
    }
}

/// Full seed detail: (descriptor-switch, state, vars).
fn describe(client: &CtlClient, key: &str) -> (u32, String, Vec<(String, String)>) {
    match rpc(
        client,
        ControlOp::DescribeSeed {
            key: key.to_string(),
        },
    ) {
        ControlReply::Seed { desc, vars } => (desc.switch, desc.state, vars),
        other => panic!("describe {key} answered {other:?}"),
    }
}

/// Stats body as parsed JSON.
fn stats_doc(client: &CtlClient) -> Json {
    match rpc(client, ControlOp::stats_all()) {
        ControlReply::Json { body } => {
            Json::parse(&body).unwrap_or_else(|e| panic!("stats body {body}: {e}"))
        }
        other => panic!("stats answered {other:?}"),
    }
}

fn stat_u64(doc: &Json, field: &str) -> u64 {
    doc.get(field)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("stats field `{field}` missing or not integral"))
}

fn graceful_shutdown(client: &CtlClient, child: &mut Child, who: &str) {
    match rpc(client, ControlOp::Shutdown) {
        ControlReply::Ok => {}
        other => panic!("{who} shutdown answered {other:?}"),
    }
    let status = util::wait_exit(child, who);
    assert!(status.success(), "{who} exit after shutdown: {status:?}");
}

#[test]
fn three_pod_federation_spans_migrates_and_survives_a_pod_kill() {
    // --- Boot: coordinator first, then pods one at a time so the
    // registration order (and with it the base layout) is pinned.
    let (mut fedd, fed_addr) = spawn_fedd(
        "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 20\n\
         [fed]\nliveness_timeout_ms = 1000\npod_timeout_ms = 2000\n"
            .into(),
    );
    let fed = CtlClient::connect(fed_addr);
    assert!(fed.wait_connected(Duration::from_secs(5)), "fedd handshake");

    let mut pods: Vec<(String, Child, SocketAddr)> = Vec::new();
    for name in ["a", "b", "c"] {
        let (child, addr) = spawn_pod(name, fed_addr);
        util::wait_for(Duration::from_secs(10), "pod registration", || {
            pods_view(&fed).get(name).copied().filter(|(_, live)| *live)
        });
        pods.push((name.to_string(), child, addr));
    }
    let view = pods_view(&fed);
    assert_eq!(view["a"], (0, true), "first pod gets base 0");
    assert_eq!(view["b"], (POD_SWITCHES, true));
    assert_eq!(view["c"], (2 * POD_SWITCHES, true));

    let direct: BTreeMap<String, CtlClient> = pods
        .iter()
        .map(|(name, _, addr)| {
            let c = CtlClient::connect(*addr);
            assert!(c.wait_connected(Duration::from_secs(5)), "pod handshake");
            (name.clone(), c)
        })
        .collect();

    // --- Spanning submit: globals 2 / 5 / 9 live in pods a / b / c, so
    // the program must split three ways with localized ids.
    match rpc(
        &fed,
        ControlOp::SubmitProgram {
            name: "span".into(),
            source: freezer_machine("place all 2, 5, 9;"),
        },
    ) {
        ControlReply::Submitted { task, seeds, .. } => {
            assert_eq!(task, "span");
            assert_eq!(seeds, 3, "one seed per pod");
        }
        other => panic!("span submit answered {other:?}"),
    }
    let pods_hosting_span = direct
        .values()
        .filter(|c| seed_keys(c).iter().any(|k| k.starts_with("span/")))
        .count();
    assert_eq!(pods_hosting_span, 3, "span places on every pod");
    // The federated listing shows the same seeds under pod-prefixed keys.
    let fed_keys = seed_keys(&fed);
    for key in ["a:span/m0/s0", "b:span/m0/s0", "c:span/m0/s0"] {
        assert!(fed_keys.iter().any(|k| k == key), "{key} in {fed_keys:?}");
    }

    // --- Single-pod submit: globals 1 and 2 both fall in pod a.
    match rpc(
        &fed,
        ControlOp::SubmitProgram {
            name: "mig".into(),
            source: freezer_machine("place all 1, 2;"),
        },
    ) {
        ControlReply::Submitted { seeds, .. } => assert_eq!(seeds, 2),
        other => panic!("mig submit answered {other:?}"),
    }
    assert!(
        seed_keys(&direct["a"])
            .iter()
            .any(|k| k.starts_with("mig/")),
        "single-pod route lands on pod a"
    );

    // --- Wait for the freeze, then record the source-side truth.
    for key in ["mig/m0/s0", "mig/m0/s1"] {
        util::wait_for(Duration::from_secs(10), "seed freeze", || {
            (describe(&direct["a"], key).1 == "done").then_some(())
        });
    }
    let before: Vec<_> = ["a:mig/m0/s0", "a:mig/m0/s1"]
        .iter()
        .map(|k| describe(&fed, k))
        .collect();
    assert!(
        before.iter().all(|(_, state, _)| state == "done"),
        "seeds frozen before migration"
    );

    // --- Cross-pod migration a → b.
    match rpc(
        &fed,
        ControlOp::MigrateTask {
            task: "mig".into(),
            to_pod: "b".into(),
        },
    ) {
        ControlReply::Migrated {
            task,
            from_pod,
            to_pod,
            seeds,
        } => {
            assert_eq!((task.as_str(), seeds), ("mig", 2));
            assert_eq!((from_pod.as_str(), to_pod.as_str()), ("a", "b"));
        }
        other => panic!("migrate answered {other:?}"),
    }
    for (i, (src_switch, _, src_vars)) in before.iter().enumerate() {
        let (dst_switch, dst_state, dst_vars) = describe(&fed, &format!("b:mig/m0/s{i}"));
        assert_eq!(dst_state, "done", "restored seed keeps its state");
        assert_eq!(
            dst_vars, *src_vars,
            "migration preserves seed variables byte for byte"
        );
        // Same local switch, pod b's global window.
        assert_eq!(u64::from(dst_switch), u64::from(*src_switch) + POD_SWITCHES);
    }
    assert!(
        !seed_keys(&direct["a"])
            .iter()
            .any(|k| k.starts_with("mig/")),
        "source pod forgot the migrated task"
    );

    // --- Federated stats are the sum of the pods' own stats.
    let fed_stats = stats_doc(&fed);
    let pod_seed_sum: u64 = direct
        .values()
        .map(|c| stat_u64(&stats_doc(c), "seeds"))
        .sum();
    assert_eq!(stat_u64(&fed_stats, "seeds"), pod_seed_sum);
    assert_eq!(stat_u64(&fed_stats, "seeds"), 5, "span 3 + mig 2");
    assert_eq!(stat_u64(&fed_stats, "switches"), 3 * POD_SWITCHES);
    assert_eq!(stat_u64(&fed_stats, "pods_live"), 3);
    assert_eq!(stat_u64(&fed_stats, "pods_reached"), 3);

    // --- Kill pod c outright; the coordinator must degrade to the
    // survivors once the liveness window lapses.
    let (_, mut pod_c, _) = pods.pop().expect("pod c");
    pod_c.kill().expect("SIGKILL pod c");
    pod_c.wait().expect("reap pod c");
    util::wait_for(Duration::from_secs(10), "liveness sweep", || {
        (!pods_view(&fed)["c"].1).then_some(())
    });

    let degraded = stats_doc(&fed);
    assert_eq!(stat_u64(&degraded, "pods_total"), 3);
    assert_eq!(stat_u64(&degraded, "pods_live"), 2);
    assert_eq!(stat_u64(&degraded, "seeds"), 4, "span 2 + mig 2 survive");
    let survivor_sum: u64 = ["a", "b"]
        .iter()
        .map(|n| stat_u64(&stats_doc(&direct[*n]), "seeds"))
        .sum();
    assert_eq!(stat_u64(&degraded, "seeds"), survivor_sum);
    let fed_keys = seed_keys(&fed);
    assert!(
        !fed_keys.iter().any(|k| k.starts_with("c:")),
        "dead pod's seeds left the federated listing: {fed_keys:?}"
    );

    if let Ok(path) = std::env::var("FED_STATS_OUT") {
        let body = match rpc(&fed, ControlOp::stats_all()) {
            ControlReply::Json { body } => body,
            other => panic!("stats answered {other:?}"),
        };
        std::fs::write(&path, body).expect("write FED_STATS_OUT");
    }

    // --- Graceful teardown: coordinator first (pods keep running),
    // then the surviving pods.
    graceful_shutdown(&fed, &mut fedd, "fedd");
    let (_, mut pod_b, _) = pods.pop().expect("pod b");
    let (_, mut pod_a, _) = pods.pop().expect("pod a");
    graceful_shutdown(&direct["b"], &mut pod_b, "pod b");
    graceful_shutdown(&direct["a"], &mut pod_a, "pod a");
}
