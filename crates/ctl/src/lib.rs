//! FARM control plane.
//!
//! Two halves, one wire protocol:
//!
//! - [`Farmd`] — the daemon. Hosts a [`farm_core::Farm`] on a dedicated
//!   core thread and serves the versioned [`farm_net::ControlOp`]
//!   surface over TCP: program submission with server-side Almanac
//!   compilation and diagnostics, seed listing/inspection, stats and
//!   metrics dumps as JSON, switch drain/uncordon with migration-based
//!   evacuation, on-demand and periodic replanning, checkpoint/restore,
//!   and graceful shutdown.
//! - [`CtlClient`] — the client library behind the `farmctl` CLI and
//!   the integration tests.
//!
//! Configuration is a small hand-rolled TOML subset ([`FarmdConfig`]);
//! every served op is audited through `ctl.*` counters, the
//! `ctl.op_latency_us` histogram, and `control-op` events.

pub mod ckpt;
pub mod client;
pub mod config;
pub mod server;

pub use client::CtlClient;
pub use config::{ConfigError, FarmdConfig, FedMembership};
pub use server::Farmd;
