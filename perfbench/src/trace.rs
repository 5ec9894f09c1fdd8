//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and a group id: every span
//! of one replay tick, churn event or control op shares the group id of
//! its root. Spans are timed from outside the program, around calls into
//! each crate's public functions; a span whose length the program
//! measured itself (a server-side histogram difference) is recorded as
//! *attributed* and placed at its parent's start.
//!
//! With tracing off, [`Tracer::open`] returns `None` without reading the
//! clock, so the untraced run pays one branch per call site.
//!
//! Tracing overhead is the time the traced run spends on work the
//! untraced run does not do: every clocked span costs what the start-up
//! calibration ([`span_cost_ns`]) measured, and every other piece of
//! trace-only work (reading the daemons' histograms, turning solver
//! events into spans) runs inside [`Tracer::overhead`], which times it.

use std::collections::BTreeMap;
use std::time::Instant;

use std::fmt::Write as _;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub group: u64,
    /// Length measured by the program's own telemetry, not by a clock
    /// read around a call.
    pub attributed: bool,
}

/// Total and self time of every span name, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Spans opened with a clock read, as opposed to attributed ones.
    clocked: u64,
    /// Wall time of the trace-only work run through [`Tracer::overhead`].
    overhead_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            clocked: 0,
            overhead_ns: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span; `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.clocked += 1;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group,
            attributed: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, group);
        let out = f();
        self.close(id);
        out
    }

    /// Records a child of `parent` whose length the program measured
    /// itself; it starts where its parent starts. Returns its id so
    /// attributed spans can nest.
    pub fn attribute(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        dur_ns: u64,
    ) -> Option<SpanId> {
        let p = parent?;
        let start_ns = self.spans[p].start_ns;
        let group = self.spans[p].group;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(p),
            group,
            attributed: true,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs trace-only work and adds its wall time to the overhead. The
    /// untraced run skips such work altogether.
    pub fn overhead<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let started = Instant::now();
        let out = f(self);
        self.overhead_ns += started.elapsed().as_nanos() as u64;
        out
    }

    /// The run's tracing overhead, seconds: clocked spans at the
    /// calibrated cost of one, plus the timed trace-only work.
    pub fn overhead_s(&self, span_cost_ns: f64) -> f64 {
        (self.clocked as f64 * span_cost_ns + self.overhead_ns as f64) / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name total and self time. Self time is a span's length
    /// minus its children's; children run one after another inside their
    /// parent, so their lengths add up. A child measured longer than its
    /// parent (the program's microsecond histograms round) leaves the
    /// parent zero self time rather than a negative one.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Every span as tab-separated lines under a header, for the file
    /// written at exit.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tgroup\tattributed\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.group,
                u8::from(s.attributed)
            );
        }
        out
    }
}

/// Cost of recording one clocked span, in nanoseconds: a calibration
/// loop of empty spans timed with tracing on, minus the same loop with
/// tracing off.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let run = |on: bool| {
        let mut t = Tracer::new(on);
        let started = Instant::now();
        for i in 0..N {
            let id = t.open("calibrate", None, i);
            t.close(std::hint::black_box(id));
        }
        started.elapsed().as_nanos() as f64
    };
    // Warm the allocator once so the timed loops compare like with like.
    run(true);
    let traced = run(true);
    let untraced = run(false);
    ((traced - untraced) / N as f64).max(0.0)
}
