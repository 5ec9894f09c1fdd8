//! Pluggable event sinks.
//!
//! A sink receives every [`Event`] emitted anywhere in the stack. Sinks
//! must be cheap and non-blocking: they run inline on simulation hot
//! paths. Three implementations ship here — [`NullSink`] (drop
//! everything), [`RingBufferSink`] (keep the last N in memory) and
//! [`JsonLinesSink`] (serialize to any `Write`).

use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

use crate::event::Event;
use crate::json::Obj;

/// Receives emitted events. Implementations must tolerate concurrent
/// calls (`Send + Sync`) and should never panic.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &Event);
}

/// Discards every event. Useful as an explicit "no observer" marker.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Keeps the most recent `capacity` events in memory, dropping the
/// oldest on overflow and counting how many were lost.
#[derive(Debug)]
pub struct RingBufferSink {
    inner: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> RingBufferSink {
        assert!(capacity > 0, "ring buffer sink needs capacity >= 1");
        RingBufferSink {
            inner: Mutex::new(Ring::default()),
            capacity,
        }
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("ring sink poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events lost to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("ring sink poisoned").dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring sink poisoned").events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained events (the overflow count is kept).
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("ring sink poisoned")
            .events
            .clear();
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: &Event) {
        let mut ring = self.inner.lock().expect("ring sink poisoned");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event.clone());
    }
}

/// Serializes each event as one JSON object per line to a `Write`.
///
/// Each line streams through the [`json::Obj`](crate::json::Obj) writer:
/// every event becomes `{"event":"<kind>",...fields}` with the fields in
/// declaration order. Write errors are swallowed — telemetry must never
/// take the simulation down.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Wraps any writer (a `File`, `Vec<u8>`, `io::stdout()`, ...).
    pub fn new(out: Box<dyn Write + Send>) -> JsonLinesSink {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.out.lock().expect("json sink poisoned").flush();
    }
}

impl EventSink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let line = to_json_line(event);
        let mut out = self.out.lock().expect("json sink poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
    }
}

/// Renders one event as a single-line JSON object.
pub fn to_json_line(event: &Event) -> String {
    let f = Obj::new().str("event", event.kind());
    match event {
        Event::SeedDeployed {
            at_ns,
            switch,
            seed,
            task,
            poll_interval_ns,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .str("task", task)
            .num("poll_interval_ns", *poll_interval_ns),
        Event::SeedUndeployed {
            at_ns,
            switch,
            seed,
            task,
            reason,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .str("task", task)
            .str("reason", &format!("{reason:?}")),
        Event::SeedMigrated {
            at_ns,
            from_switch,
            to_switch,
            task,
            state_bytes,
        } => f
            .num("at_ns", *at_ns)
            .num("from_switch", *from_switch as u64)
            .num("to_switch", *to_switch as u64)
            .str("task", task)
            .num("state_bytes", *state_bytes),
        Event::SeedErrored {
            at_ns,
            switch,
            seed,
            message,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .str("message", message),
        Event::PollIssued {
            at_ns,
            switch,
            seed,
            subjects,
            latency_ns,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .num("subjects", *subjects)
            .num("latency_ns", *latency_ns),
        Event::PollAggregated {
            at_ns,
            switch,
            group,
            saved,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("group", *group)
            .num("saved", *saved),
        Event::PcieSaturation {
            switch,
            utilization,
            saturated,
        } => f
            .num("switch", *switch as u64)
            .float("utilization", *utilization)
            .bool("saturated", *saturated),
        Event::ChannelDelivery {
            at_ns,
            switch,
            seed,
            bytes,
            latency_ns,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .num("bytes", *bytes)
            .num("latency_ns", *latency_ns),
        Event::SolverPhase {
            phase,
            elapsed_ns,
            items,
        } => f
            .str("phase", phase)
            .num("elapsed_ns", *elapsed_ns)
            .num("items", *items),
        Event::ReplanCompleted {
            at_ns,
            outcome,
            actions,
            dropped_tasks,
        } => f
            .num("at_ns", *at_ns)
            .str("outcome", &format!("{outcome:?}"))
            .num("actions", *actions)
            .num("dropped_tasks", *dropped_tasks),
        Event::HarvesterReport {
            at_ns,
            task,
            from_switch,
            bytes,
            latency_ns,
        } => f
            .num("at_ns", *at_ns)
            .str("task", task)
            .num("from_switch", *from_switch as u64)
            .num("bytes", *bytes)
            .num("latency_ns", *latency_ns),
        Event::SwitchCrashed { at_ns, switch } => {
            f.num("at_ns", *at_ns).num("switch", *switch as u64)
        }
        Event::SwitchRestarted { at_ns, switch } => {
            f.num("at_ns", *at_ns).num("switch", *switch as u64)
        }
        Event::LinkDown { at_ns, a, b } => f
            .num("at_ns", *at_ns)
            .num("a", *a as u64)
            .num("b", *b as u64),
        Event::LinkUp { at_ns, a, b } => f
            .num("at_ns", *at_ns)
            .num("a", *a as u64)
            .num("b", *b as u64),
        Event::SwitchDeclaredFailed {
            at_ns,
            switch,
            missed,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("missed", *missed),
        Event::SeedOrphaned {
            at_ns,
            switch,
            seed,
            task,
            has_snapshot,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .str("task", task)
            .bool("has_snapshot", *has_snapshot),
        Event::SeedShed {
            at_ns,
            switch,
            seed,
            task,
            resource,
            demand,
            budget,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .str("task", task)
            .str("resource", &format!("{resource:?}"))
            .float("demand", *demand)
            .float("budget", *budget),
        Event::SeedRecovered {
            at_ns,
            switch,
            seed,
            task,
            cold_start,
            mttr_ns,
            attempts,
        } => f
            .num("at_ns", *at_ns)
            .num("switch", *switch as u64)
            .num("seed", *seed)
            .str("task", task)
            .bool("cold_start", *cold_start)
            .num("mttr_ns", *mttr_ns)
            .num("attempts", *attempts),
        Event::RecoveryAbandoned {
            at_ns,
            task,
            seed,
            attempts,
        } => f
            .num("at_ns", *at_ns)
            .str("task", task)
            .num("seed", *seed)
            .num("attempts", *attempts),
        Event::DeliveryRetried {
            at_ns,
            from_switch,
            task,
            attempt,
        } => f
            .num("at_ns", *at_ns)
            .num("from_switch", *from_switch as u64)
            .str("task", task)
            .num("attempt", *attempt),
        Event::DeliveryDeadLettered {
            at_ns,
            from_switch,
            task,
            attempts,
        } => f
            .num("at_ns", *at_ns)
            .num("from_switch", *from_switch as u64)
            .str("task", task)
            .num("attempts", *attempts),
        Event::ReplanSummary {
            at_ns,
            elapsed_us,
            deploys,
            migrations,
            reallocs,
            undeploys,
        } => f
            .num("at_ns", *at_ns)
            .num("elapsed_us", *elapsed_us)
            .num("deploys", *deploys)
            .num("migrations", *migrations)
            .num("reallocs", *reallocs)
            .num("undeploys", *undeploys),
        Event::ControlOp {
            at_ns,
            op,
            outcome,
            elapsed_us,
        } => f
            .num("at_ns", *at_ns)
            .str("op", op)
            .str("outcome", outcome)
            .num("elapsed_us", *elapsed_us),
    }
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deploy(seed: u64) -> Event {
        Event::SeedDeployed {
            at_ns: 1_000,
            switch: 3,
            seed,
            task: "hh".to_string(),
            poll_interval_ns: 50_000,
        }
    }

    #[test]
    fn ring_buffer_retains_and_overflows() {
        let sink = RingBufferSink::new(3);
        for i in 0..5 {
            sink.record(&deploy(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let seeds: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::SeedDeployed { seed, .. } => *seed,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seeds, [2, 3, 4], "oldest events are dropped first");
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 2, "clear keeps the overflow count");
    }

    #[test]
    fn json_lines_are_one_object_per_event() {
        let buf: Vec<u8> = Vec::new();
        let line = to_json_line(&deploy(7));
        assert_eq!(
            line,
            "{\"event\":\"seed-deployed\",\"at_ns\":1000,\"switch\":3,\
             \"seed\":7,\"task\":\"hh\",\"poll_interval_ns\":50000}"
        );
        drop(buf);
    }

    #[test]
    fn json_escapes_special_characters() {
        let e = Event::SeedErrored {
            at_ns: 0,
            switch: 0,
            seed: 0,
            message: "bad \"value\"\nline2".to_string(),
        };
        let line = to_json_line(&e);
        assert!(line.contains("bad \\\"value\\\"\\nline2"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn null_sink_ignores_everything() {
        NullSink.record(&deploy(0));
    }
}
