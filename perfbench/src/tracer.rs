//! The traced run's span recorder.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions (and, through [`crate::timed::TimedDefense`], around
//! the controller's calls into the defense). Every span is timed against
//! one monotonic tick clock (the time-stamp counter on x86-64); on close
//! its *self* time — its duration minus the durations of its direct
//! children — is added to its kind's total. The first
//! [`Tracer::with_capacity`] spans are also kept in memory (name, start,
//! end, parent, cell) and written out at the end as Chrome `trace_event`
//! JSON; spans past that cap are counted as unstored but still timed.
//!
//! Recording a span costs time of its own: part of it falls between the
//! span's two clock reads, the rest in its parent. [`calibrate`] measures
//! both parts on empty spans, and [`Tracer::totals`] subtracts them, so a
//! layer's self time is not inflated by the recorder's work for it or
//! for its children. [`Tracer::coverage_pct`] compares the layers' self
//! time with the wall time the tracer was installed for, less that
//! recorder work: the benchmark's own spans (`bench.*`), gaps between
//! roots and any untimed call lower it.
//!
//! The recorder is thread-local and off unless [`install`]ed, so
//! [`span`] costs one thread-local lookup in untraced code.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The spans the benchmark records. The text before the first `.` of
/// [`Kind::name`] is the layer (crate) the span times; `bench` spans time
/// the benchmark's own code (its roots and its copy of the `System::feed`
/// routing loop) and belong to no layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Root: one set-up (inputs plus systems).
    BenchSetup,
    /// Root: one cell's feed and drain.
    BenchCell,
    /// A workload source constructor, or reading a trace's bytes.
    WorkloadsBuild,
    /// Materializing requests from an `AccessSource`.
    WorkloadsGen,
    /// Decoding a v2 trace.
    WorkloadsDecode,
    /// Building one cell's channel controllers, defense included.
    SimSystemNew,
    /// The benchmark's copy of the `System::feed` routing loop over one
    /// chunk of requests.
    BenchFeed,
    /// The benchmark's copy of the `System::drain` loop.
    BenchDrain,
    /// `make_defense_chaos`.
    MitigationsNew,
    /// `RowHammerDefense::on_activate`.
    MitigationsOnAct,
    /// `RowHammerDefense::on_auto_refresh`.
    MitigationsOnRef,
    /// `ChannelController::new`.
    MemctrlNew,
    /// `ChannelController::submit`.
    MemctrlSubmit,
    /// `ChannelController::service_one`.
    MemctrlService,
}

/// Number of [`Kind`]s.
pub const NUM_KINDS: usize = 14;

impl Kind {
    /// Every kind, indexed by `Kind as usize`.
    pub const ALL: [Kind; NUM_KINDS] = [
        Kind::BenchSetup,
        Kind::BenchCell,
        Kind::WorkloadsBuild,
        Kind::WorkloadsGen,
        Kind::WorkloadsDecode,
        Kind::SimSystemNew,
        Kind::BenchFeed,
        Kind::BenchDrain,
        Kind::MitigationsNew,
        Kind::MitigationsOnAct,
        Kind::MitigationsOnRef,
        Kind::MemctrlNew,
        Kind::MemctrlSubmit,
        Kind::MemctrlService,
    ];

    /// The span name, `layer.what`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BenchSetup => "bench.setup",
            Kind::BenchCell => "bench.cell",
            Kind::WorkloadsBuild => "workloads.build",
            Kind::WorkloadsGen => "workloads.gen",
            Kind::WorkloadsDecode => "workloads.decode",
            Kind::SimSystemNew => "sim.system_new",
            Kind::BenchFeed => "bench.feed",
            Kind::BenchDrain => "bench.drain",
            Kind::MitigationsNew => "mitigations.new",
            Kind::MitigationsOnAct => "mitigations.on_act",
            Kind::MitigationsOnRef => "mitigations.on_ref",
            Kind::MemctrlNew => "memctrl.new",
            Kind::MemctrlSubmit => "memctrl.submit",
            Kind::MemctrlService => "memctrl.service",
        }
    }

    /// The layer this span times (`bench` for the benchmark's roots).
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("span names are layer.what")]
    }

    /// Whether this span times a layer of the program (not the
    /// benchmark's own code).
    pub fn is_layer(self) -> bool {
        self.layer() != "bench"
    }
}

/// Marks a span with no parent.
const NO_PARENT: u32 = u32::MAX;

/// Reads the tick clock: the time-stamp counter on x86-64 (constant-rate
/// on the CPUs this runs on, and several times cheaper to read than
/// `Instant::now`), nanoseconds since the first read elsewhere.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions; it reads a counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One stored span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was timed.
    pub kind: Kind,
    /// The cell the span belongs to (0 = set-up).
    pub cell: u32,
    /// Index of the enclosing stored span, if any.
    pub parent: Option<u32>,
    /// Start, in ticks since the tracer was created.
    pub start: u64,
    /// End, in ticks since the tracer was created.
    pub end: u64,
}

struct Open {
    kind: Kind,
    start: u64,
    child_ticks: u64,
    children: u64,
    stored: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct RawTotals {
    calls: u64,
    children: u64,
    total: u64,
    self_ticks: u64,
}

/// Per-kind totals over every span closed so far, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations, less the recorder's own work inside them.
    pub total_ns: f64,
    /// Summed self times: duration minus direct children, less the
    /// recorder's own work inside the span and for its children.
    pub self_ns: f64,
}

/// The recorder's own cost per span, in ticks, as [`calibrate`] measured
/// it on empty spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    /// Between the span's two clock reads.
    pub inside: f64,
    /// In the parent, outside the span's clock reads.
    pub outside: f64,
}

/// The recorder: an open-span stack, stored spans, and per-kind totals.
pub struct Tracer {
    epoch_instant: Instant,
    epoch: u64,
    /// Set by [`take`]: nanoseconds per tick over the tracer's life.
    ns_per_tick: f64,
    /// Set by [`take`]: ticks from creation to `take`.
    wall: u64,
    cost: SpanCost,
    cell: u32,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    capacity: usize,
    unstored: u64,
    totals: [RawTotals; NUM_KINDS],
}

impl Tracer {
    /// A tracer that stores at most `capacity` spans and assumes the
    /// recorder costs nothing per span.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch_instant: Instant::now(),
            epoch: ticks(),
            ns_per_tick: 1.0,
            wall: 0,
            cost: SpanCost::default(),
            cell: 0,
            stack: Vec::new(),
            spans: Vec::with_capacity(capacity),
            capacity,
            unstored: 0,
            totals: [RawTotals::default(); NUM_KINDS],
        }
    }

    /// The same tracer, with `cost` subtracted from every span.
    pub fn with_cost(mut self, cost: SpanCost) -> Tracer {
        self.cost = cost;
        self
    }

    fn now(&self) -> u64 {
        ticks().wrapping_sub(self.epoch)
    }

    #[inline]
    fn open(&mut self, kind: Kind) {
        let stored = if self.spans.len() < self.capacity {
            let parent = self
                .stack
                .last()
                .map(|o| o.stored)
                .filter(|&p| p != NO_PARENT);
            self.spans.push(SpanRecord {
                kind,
                cell: self.cell,
                parent,
                start: 0,
                end: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.unstored += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            kind,
            start: 0,
            child_ticks: 0,
            children: 0,
            stored,
        });
        let start = self.now();
        self.stack.last_mut().expect("pushed above").start = start;
    }

    #[inline]
    fn close(&mut self) {
        let end = self.now();
        let open = self.stack.pop().expect("span closed without being opened");
        let dur = end.saturating_sub(open.start);
        let t = &mut self.totals[open.kind as usize];
        t.calls += 1;
        t.children += open.children;
        t.total += dur;
        t.self_ticks += dur.saturating_sub(open.child_ticks);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ticks += dur;
            parent.children += 1;
        }
        if let Some(rec) = self.spans.get_mut(open.stored as usize) {
            rec.start = open.start;
            rec.end = end;
        }
    }

    /// Fixes the tick rate and the wall time; [`take`] calls it.
    fn finish(&mut self) {
        self.wall = self.now();
        let ns = self.epoch_instant.elapsed().as_nanos() as f64;
        if self.wall > 0 {
            self.ns_per_tick = ns / self.wall as f64;
        }
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    /// Totals for one kind, with the recorder's cost subtracted. Valid
    /// once the tracer is [`take`]n.
    pub fn totals(&self, kind: Kind) -> Totals {
        let t = self.totals[kind as usize];
        let inside = t.calls as f64 * self.cost.inside;
        let outside = t.children as f64 * self.cost.outside;
        Totals {
            calls: t.calls,
            total_ns: (t.total as f64 - inside).max(0.0) * self.ns_per_tick,
            self_ns: (t.self_ticks as f64 - inside - outside).max(0.0) * self.ns_per_tick,
        }
    }

    /// Nanoseconds from the tracer's creation to [`take`].
    pub fn wall_ns(&self) -> f64 {
        self.wall as f64 * self.ns_per_tick
    }

    /// The recorder's estimated own work over the whole run, ns: every
    /// span's cost inside and outside its clock reads.
    pub fn recorder_ns(&self) -> f64 {
        let spans: u64 = self.totals.iter().map(|t| t.calls).sum();
        spans as f64 * (self.cost.inside + self.cost.outside) * self.ns_per_tick
    }

    /// The stored spans, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Spans timed but not stored because the store was full.
    pub fn unstored(&self) -> u64 {
        self.unstored
    }

    /// Share of the traced wall time that the layers' self times account
    /// for, in percent: `sum(self of layer spans) / (wall − recorder)`.
    /// The benchmark's own spans, the gaps between roots and any work
    /// no layer span covers make up the rest.
    pub fn coverage_pct(&self) -> f64 {
        let layers: f64 = Kind::ALL
            .iter()
            .filter(|k| k.is_layer())
            .map(|&k| self.totals(k).self_ns)
            .sum();
        let program = self.wall_ns() - self.recorder_ns();
        if program <= 0.0 {
            0.0
        } else {
            100.0 * layers / program
        }
    }

    /// The stored spans as a Chrome `trace_event` document: one complete
    /// (`"ph":"X"`) event per span, the cell id as the thread so each
    /// cell gets its own row, and the span's own index and its parent's
    /// index under `args`.
    pub fn chrome_trace_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 128);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{label}\",\
             \"stored_spans\":{},\"unstored_spans\":{}}},\"traceEvents\":[",
            self.spans.len(),
            self.unstored
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let start_ns = (s.start as f64 * self.ns_per_tick) as u64;
            let dur = ((s.end.saturating_sub(s.start)) as f64 * self.ns_per_tick) as u64;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\
                 \"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i}",
                s.kind.name(),
                s.kind.layer(),
                start_ns / 1_000,
                start_ns % 1_000,
                dur / 1_000,
                dur % 1_000,
                s.cell,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Stops recording on this thread and returns the recorder, its wall
/// time and tick rate fixed.
pub fn take() -> Option<Tracer> {
    let mut tr = TRACER.with(|t| t.borrow_mut().take())?;
    tr.finish();
    Some(tr)
}

/// Measures the recorder's own cost per span on this thread: `n` empty
/// spans under one root, through the same thread-local path [`span`]
/// takes, five times; the median run's per-span cost. Call it with no
/// tracer installed.
pub fn calibrate(n: u64) -> SpanCost {
    let mut runs: Vec<SpanCost> = (0..5)
        .map(|_| {
            install(Tracer::with_capacity(0));
            {
                let _root = span(Kind::BenchCell);
                for _ in 0..n {
                    let _s = span(Kind::MemctrlSubmit);
                }
            }
            let tr = take().expect("installed above");
            let child = tr.totals[Kind::MemctrlSubmit as usize];
            let root = tr.totals[Kind::BenchCell as usize];
            SpanCost {
                inside: child.total as f64 / n as f64,
                outside: root.self_ticks as f64 / n as f64,
            }
        })
        .collect();
    runs.sort_by(|a, b| (a.inside + a.outside).total_cmp(&(b.inside + b.outside)));
    runs[runs.len() / 2]
}

/// Sets the cell id of the installed recorder (no-op when none is).
pub fn set_cell(cell: u32) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.set_cell(cell);
        }
    });
}

/// An open span; closes when dropped.
#[must_use = "a span times the scope it is bound to"]
pub struct SpanGuard {
    live: bool,
}

/// Opens a span of `kind` if a recorder is installed on this thread.
#[inline]
pub fn span(kind: Kind) -> SpanGuard {
    let live = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.open(kind);
            true
        }
        None => false,
    });
    SpanGuard { live }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            let _ = TRACER.try_with(|t| {
                if let Some(tr) = t.borrow_mut().as_mut() {
                    tr.close();
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    /// Per-kind self ticks recomputed from stored spans alone: each span's
    /// duration minus the durations of the stored spans whose parent it is.
    /// Equal to the live totals when nothing went unstored.
    fn self_ticks_from_spans(spans: &[SpanRecord]) -> [u64; NUM_KINDS] {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end.saturating_sub(s.start);
            }
        }
        let mut out = [0u64; NUM_KINDS];
        for (s, c) in spans.iter().zip(child) {
            out[s.kind as usize] += s.end.saturating_sub(s.start).saturating_sub(c);
        }
        out
    }

    /// Three cells of four chunks: each chunk spends `bench_ns` in the
    /// benchmark's own feed loop and 45 µs in layer spans; `gap_ns` is
    /// spent before each root, outside every span.
    fn record(capacity: usize, bench_ns: u64, gap_ns: u64) -> Tracer {
        install(Tracer::with_capacity(capacity));
        for cell in 1..=3 {
            set_cell(cell);
            spin(gap_ns);
            let _root = span(Kind::BenchCell);
            for _ in 0..4 {
                let _feed = span(Kind::BenchFeed);
                spin(bench_ns);
                {
                    let _svc = span(Kind::MemctrlService);
                    spin(30_000);
                    let _act = span(Kind::MitigationsOnAct);
                    spin(10_000);
                }
                let _sub = span(Kind::MemctrlSubmit);
                spin(5_000);
            }
        }
        take().expect("installed above")
    }

    fn record_nested(capacity: usize) -> Tracer {
        record(capacity, 20_000, 0)
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let tr = record_nested(1 << 10);
        assert_eq!(tr.unstored(), 0);
        let offline = self_ticks_from_spans(tr.spans());
        for k in Kind::ALL {
            assert_eq!(
                offline[k as usize],
                tr.totals[k as usize].self_ticks,
                "{}",
                k.name()
            );
        }
        let svc = tr.totals(Kind::MemctrlService);
        let act = tr.totals(Kind::MitigationsOnAct);
        assert_eq!(svc.calls, 12);
        assert!((svc.self_ns + act.total_ns - svc.total_ns).abs() < 1.0);
        assert!(act.total_ns >= 12.0 * 10_000.0);
    }

    #[test]
    fn untimed_work_lowers_coverage() {
        // The median of five recordings, so that one preemption of this
        // thread (wall time landing in whichever span is open) cannot
        // decide the test.
        let coverage = |bench_ns: u64, gap_ns: u64| {
            let mut v: Vec<f64> = (0..5)
                .map(|_| record(1 << 10, bench_ns, gap_ns).coverage_pct())
                .collect();
            v.sort_by(f64::total_cmp);
            v[2]
        };
        // Layer spans only: coverage is near 100%.
        let tight = coverage(0, 0);
        assert!(tight > 90.0 && tight <= 100.0, "{tight}");
        // As much time again in the benchmark's own loop: about half.
        let loop_heavy = coverage(45_000, 0);
        assert!((40.0..60.0).contains(&loop_heavy), "{loop_heavy}");
        // As much time again between roots, outside every span: about half.
        let gappy = coverage(0, 4 * 45_000);
        assert!((40.0..60.0).contains(&gappy), "{gappy}");
    }

    #[test]
    fn calibrated_cost_is_taken_off_empty_spans() {
        let n = 20_000;
        let cost = calibrate(n);
        assert!(cost.inside > 0.0 && cost.outside > 0.0, "{cost:?}");
        install(Tracer::with_capacity(0).with_cost(cost));
        {
            let _root = span(Kind::BenchCell);
            for _ in 0..n {
                let _s = span(Kind::MemctrlSubmit);
            }
        }
        let tr = take().expect("installed above");
        let raw = tr.totals[Kind::MemctrlSubmit as usize].total as f64 * tr.ns_per_tick;
        let net = tr.totals(Kind::MemctrlSubmit).total_ns;
        assert!(net < raw, "net {net} raw {raw}");
        assert!(tr.recorder_ns() > 0.0);
    }

    #[test]
    fn spans_past_capacity_are_timed_but_not_stored() {
        let full = record_nested(1 << 10);
        let capped = record_nested(10);
        assert_eq!(capped.spans().len(), 10);
        assert_eq!(
            capped.unstored() + 10,
            full.spans().len() as u64,
            "every span is either stored or counted"
        );
        assert_eq!(
            capped.totals(Kind::MemctrlSubmit).calls,
            full.totals(Kind::MemctrlSubmit).calls
        );
        let json = capped.chrome_trace_json("test");
        let events = twice_sim::profile::validate_trace_json(&json).expect("valid trace JSON");
        assert_eq!(events.len(), 10);
        assert_eq!(events[0], ("bench.cell".to_string(), "bench".to_string()));
    }

    #[test]
    fn parents_and_cells_are_recorded() {
        let tr = record_nested(1 << 10);
        let spans = tr.spans();
        assert_eq!(spans[0].kind, Kind::BenchCell);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].cell, 1);
        for s in spans.iter().filter(|s| s.kind != Kind::BenchCell) {
            let p = spans[s.parent.expect("only roots lack a parent") as usize];
            assert!(p.start <= s.start && s.end <= p.end);
            assert_eq!(p.cell, s.cell);
        }
    }

    #[test]
    fn span_without_recorder_is_a_no_op() {
        assert!(take().is_none());
        let g = span(Kind::MemctrlService);
        assert!(!g.live);
    }
}
