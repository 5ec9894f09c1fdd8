//! # farm-fed — sharded pod federation ("a farmd of farmds")
//!
//! One data center is many pods, each already run by its own `farmd`.
//! This crate adds the layer above: `fedd`, a coordinator daemon that
//! speaks the exact same farm-net wire protocol — to its clients
//! (`farmctl --fed`) *and* to the fleet of pod daemons it shards over.
//!
//! * [`registry`] — pod membership: registration manifests (switch
//!   count, headroom quota, wire address), heartbeat liveness, and the
//!   contiguous global switch-id space the coordinator assigns
//!   (`global = pod.base + local`).
//! * [`split`] — cross-pod admission: an Almanac program whose `place`
//!   set falls inside one pod routes there verbatim; one that spans
//!   pods is split into per-pod sub-programs with switch ids rewritten
//!   into each pod's local space.
//! * [`server`] — the daemon: a single core thread owning the registry
//!   and one control-plane session per pod, serving federated reads
//!   (fan-out + merge, cursor pagination preserved), all-or-nothing
//!   split submission, and cross-pod seed migration over the existing
//!   `VSeedSnapshot` export/import ops. Pod `Stats` bodies are read and
//!   the merged view re-rendered with [`farm_telemetry::json`].
//!
//! Everything the coordinator does is audited under the `fed.*`
//! telemetry family: `fed.pods.total` / `fed.pods.live` gauges,
//! `fed.route.single` / `fed.route.split` / `fed.route.rollback` and
//! `fed.migrate.ok` / `fed.migrate.fail` counters, and the
//! `fed.fanout_us` fan-out latency histogram.

pub mod config;
pub mod registry;
pub mod server;
pub mod split;

pub use config::FeddConfig;
pub use registry::Registry;
pub use server::Fedd;
pub use split::{split_program, PodTarget, Route};
