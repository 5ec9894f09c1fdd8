//! # farm-telemetry — observability for the FARM stack
//!
//! The paper's entire evaluation is about observing FARM itself:
//! detection latency (Fig. 4), switch CPU load (Fig. 6), poll
//! aggregation savings (Fig. 7), IPC latency (Fig. 10), migration
//! overhead (Tab. 5). This crate is the shared substrate those numbers
//! flow through:
//!
//! * a **typed event stream** — [`Event`] — with pluggable
//!   [`EventSink`]s ([`NullSink`], [`RingBufferSink`], [`JsonLinesSink`]);
//! * an **instrument registry** — [`Registry`] — of named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s with p50/p99 accessors;
//! * a [`Telemetry`] handle bundling the two, cloned cheaply (`Arc`
//!   inside) into every layer of the stack;
//! * the workspace's one JSON codec — [`json`] — shared by the sinks,
//!   the control-plane bodies, `farmctl --json` and the bench files.
//!
//! The crate has **zero dependencies** so it can sit below `farm-netsim`
//! at the bottom of the workspace; events therefore carry plain scalars
//! (switch ids as `u32`, times as nanoseconds).
//!
//! ```
//! use farm_telemetry::{Event, RingBufferSink, Telemetry};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingBufferSink::new(16));
//! let telemetry = Telemetry::new();
//! telemetry.add_sink(ring.clone());
//!
//! telemetry.counter("farm.replans").inc();
//! telemetry.emit_with(|| Event::SolverPhase {
//!     phase: "greedy",
//!     elapsed_ns: 1_200,
//!     items: 4,
//! });
//!
//! assert_eq!(telemetry.snapshot().counter("farm.replans"), 1);
//! assert_eq!(ring.events().len(), 1);
//! ```

pub mod event;
pub mod json;
pub mod registry;
pub mod sink;

pub use event::{Event, PressureResource, ReplanOutcome, UndeployReason};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, LATENCY_US_BOUNDS,
};
pub use sink::{EventSink, JsonLinesSink, NullSink, RingBufferSink};

use std::sync::{Arc, RwLock};

/// Shared handle over one [`Registry`] plus a set of [`EventSink`]s.
///
/// Cloning is cheap (two `Arc`s); every clone observes the same
/// instruments and sinks. Instrument updates are lock-free; event
/// emission takes a read lock on the sink list only when at least one
/// sink is installed — use [`Telemetry::emit_with`] so the event itself
/// is only constructed when somebody is listening.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Arc<Registry>,
    sinks: Arc<RwLock<Vec<Arc<dyn EventSink>>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("sinks", &self.sink_count())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Creates a handle with an empty registry and no sinks.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// The shared instrument registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Shorthand for [`Registry::counter`].
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Shorthand for [`Registry::gauge`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// Shorthand for [`Registry::histogram`].
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.registry.histogram(name, bounds)
    }

    /// Shorthand for [`Registry::latency_histogram`].
    pub fn latency_histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.latency_histogram(name)
    }

    /// Shorthand for [`Registry::snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Installs a sink; every subsequently emitted event reaches it.
    pub fn add_sink(&self, sink: Arc<dyn EventSink>) {
        self.sinks.write().expect("sink list poisoned").push(sink);
    }

    /// Number of installed sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.read().expect("sink list poisoned").len()
    }

    /// True when at least one sink is installed. Hot paths can use this
    /// to skip expensive event construction, but prefer
    /// [`Telemetry::emit_with`] which does so automatically.
    pub fn has_sinks(&self) -> bool {
        self.sink_count() > 0
    }

    /// Delivers an already-built event to every sink.
    pub fn emit(&self, event: &Event) {
        for sink in self.sinks.read().expect("sink list poisoned").iter() {
            sink.record(event);
        }
    }

    /// Builds the event lazily and delivers it — the closure only runs
    /// when at least one sink is installed, keeping zero-observer hot
    /// paths free of allocation.
    pub fn emit_with<F: FnOnce() -> Event>(&self, make: F) {
        let sinks = self.sinks.read().expect("sink list poisoned");
        if sinks.is_empty() {
            return;
        }
        let event = make();
        for sink in sinks.iter() {
            sink.record(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn clones_share_registry_and_sinks() {
        let t1 = Telemetry::new();
        let t2 = t1.clone();
        t1.counter("a").inc();
        t2.counter("a").add(2);
        assert_eq!(t1.snapshot().counter("a"), 3);

        let ring = Arc::new(RingBufferSink::new(8));
        t2.add_sink(ring.clone());
        t1.emit_with(|| Event::SolverPhase {
            phase: "greedy",
            elapsed_ns: 1,
            items: 1,
        });
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn emit_with_skips_construction_without_sinks() {
        let t = Telemetry::new();
        let built = AtomicU64::new(0);
        t.emit_with(|| {
            built.fetch_add(1, Ordering::Relaxed);
            Event::SolverPhase {
                phase: "never",
                elapsed_ns: 0,
                items: 0,
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 0);
        t.add_sink(Arc::new(NullSink));
        t.emit_with(|| {
            built.fetch_add(1, Ordering::Relaxed);
            Event::SolverPhase {
                phase: "now",
                elapsed_ns: 0,
                items: 0,
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1);
    }
}
