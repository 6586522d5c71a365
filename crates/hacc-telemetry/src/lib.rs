//! Structured observability for the CRK-HACC reproduction.
//!
//! The crate is a leaf: it knows nothing about devices, kernels, or the
//! simulation — those layers *emit* into a [`Recorder`] and this crate
//! stores, aggregates, and exports. The event model is deliberately
//! small:
//!
//! * **Spans** — hierarchical begin/end pairs (run → step → phase →
//!   kernel bracket). Nesting is tracked per host thread, so spans
//!   opened inside data-parallel workers parent correctly without any
//!   global coordination.
//! * **Counters** — named monotonically accumulated quantities
//!   (e.g. `xfer.h2d.bytes`).
//! * **Kernel profiles** — one [`KernelProfile`] per simulated kernel
//!   launch: instruction-class histogram, register pressure, spills,
//!   bytes moved, and the cost model's time estimate.
//! * **Timers** — the classic CRK-HACC named accumulators (`upGeo`,
//!   `upGrav`, …) as typed events, so the legacy
//!   `Timers` table becomes just one sink over the stream.
//!
//! Exporters live in [`chrome`] (Perfetto-loadable trace-event JSON),
//! [`jsonl`] (versioned JSON Lines), and [`table`] (end-of-run text
//! profile). The analysis plane lives in [`registry`] (typed metrics
//! with log-bucketed histograms), [`analysis`] (cross-rank
//! critical-path attribution over the span tree), and [`roofline`]
//! (per-kernel arithmetic-intensity placement).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

pub mod analysis;
pub mod chrome;
pub mod jsonl;
pub mod registry;
pub mod roofline;
pub mod table;

/// Version of the event schema emitted by [`jsonl`] and stamped into
/// every export. Bump on any breaking change to [`Event`] or
/// [`KernelProfile`]. Version 2 added the `Fault` event kind and the
/// optional per-event `fault` payload.
pub const SCHEMA_VERSION: u32 = 2;

/// Number of instruction classes in a [`KernelProfile`] histogram.
///
/// Mirrors `sycl_sim::meter::N_CLASSES`; the simulator crate carries a
/// test pinning the two (and the label order below) together.
pub const N_INSTR_CLASSES: usize = 15;

/// Labels for the instruction-class histogram slots, in slot order.
pub const INSTR_CLASS_LABELS: [&str; N_INSTR_CLASSES] = [
    "alu",
    "div",
    "math.fast",
    "math.precise",
    "mem.load",
    "mem.store",
    "slm.load",
    "slm.store",
    "shuffle.indirect",
    "shuffle.dedicated",
    "shuffle.regioned",
    "shuffle.visa",
    "atomic.native",
    "atomic.cas",
    "barrier",
];

/// What a single [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A span opened; `id` identifies the span, `parent` its enclosing
    /// span (0 for a root span).
    SpanBegin,
    /// A span closed; `parent` is the id of the matching `SpanBegin`.
    SpanEnd,
    /// A counter increment; `value` is the amount added.
    Counter,
    /// One simulated kernel launch; `kernel` holds the profile and
    /// `value` its estimated seconds.
    Kernel,
    /// A named timer charge; `value` is seconds.
    Timer,
    /// A fault-handling event (injected fault observed, retry, variant
    /// fallback, or checkpoint rollback); `fault` holds the detail and
    /// `value` a count.
    Fault,
}

/// Detail payload of a [`EventKind::Fault`] event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInfo {
    /// Fault or recovery-action kind (`transient`, `persistent-variant`,
    /// `corruption`, `device-lost`, `retry`, `fallback`, `rollback`).
    pub kind: String,
    /// Kernel the fault targeted (empty for simulation-level events).
    pub kernel: String,
    /// Communication-variant label in play, if any.
    pub variant: String,
    /// Free-form detail.
    pub detail: String,
}

/// Per-launch profile of one simulated kernel execution.
///
/// Everything the cost model knows about the launch, flattened for
/// export: identity (kernel, timer bucket, communication variant,
/// architecture), launch geometry, the instruction-class histogram
/// (slot order = [`INSTR_CLASS_LABELS`]), register pressure, and the
/// derived time estimate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name as reported by the simulator.
    pub kernel: String,
    /// CRK-HACC timer bucket this launch is charged to (`upGeo`, …).
    pub timer: String,
    /// Communication variant label (`Select`, `Memory32`, …).
    pub variant: String,
    /// Architecture id (`pvc`, `a100`, `mi250x`).
    pub arch: String,
    /// Sub-group size the kernel ran with.
    pub sg_size: u64,
    /// Work-group size.
    pub wg_size: u64,
    /// Number of sub-groups launched.
    pub n_subgroups: u64,
    /// Instruction-class histogram, slot order = [`INSTR_CLASS_LABELS`].
    pub instr: [u64; N_INSTR_CLASSES],
    /// Peak live virtual registers over all sub-groups.
    pub peak_regs: u64,
    /// Registers spilled (demand above the per-thread budget).
    pub spilled_regs: u64,
    /// Work-group local (shared) memory footprint in bytes.
    pub local_bytes_per_wg: u64,
    /// Global-memory traffic estimate in bytes (loads + stores).
    pub bytes_moved: u64,
    /// Cost-model time estimate for this launch, in seconds.
    pub est_seconds: f64,
    /// Combined stall multiplier (occupancy × spill × L1 pressure).
    pub stall_mult: f64,
    /// Achieved occupancy fraction in `[0, 1]`.
    pub occupancy: f64,
}

impl KernelProfile {
    /// Index of the most-executed instruction class.
    pub fn dominant_class(&self) -> usize {
        self.instr
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Total instruction count across all classes.
    pub fn total_instr(&self) -> u64 {
        self.instr.iter().sum()
    }
}

/// One record in the telemetry stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Unique id of this event (1-based, allocation order).
    pub id: u64,
    /// Enclosing span id (0 = none). For `SpanEnd`, the id of the
    /// matching `SpanBegin` event.
    pub parent: u64,
    /// Span / counter / timer / kernel name.
    pub name: String,
    /// Nanoseconds since the recorder's epoch. Assigned under the
    /// event-stream lock, so the stored stream is monotonic.
    pub t_ns: u64,
    /// Counter increment, timer seconds, or kernel estimated seconds.
    pub value: f64,
    /// Present only for `Kernel` events. Boxed so the common payload-free
    /// event stays small on the emit hot path (the profile is ~6× the
    /// size of the rest of the record).
    pub kernel: Option<Box<KernelProfile>>,
    /// Present only for `Fault` events. Boxed for the same reason.
    pub fault: Option<Box<FaultInfo>>,
}

/// A consumer notified of every event as it is recorded.
///
/// Sinks run synchronously on the emitting thread; keep them cheap.
pub trait Sink: Send + Sync {
    /// Called once per recorded event, in stream order per thread.
    fn on_event(&self, event: &Event);
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<Event>>,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    /// Mirrors `!sinks.is_empty()` so the emit hot path can skip the
    /// sink lock (and the per-event clone it forces) entirely in the
    /// common no-sink configuration.
    has_sinks: AtomicBool,
}

/// The telemetry collector. Cheap to clone (`Arc` inside); one
/// instance is shared across the simulation, kernel layer, and device.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("events", &self.len())
            .finish()
    }
}

thread_local! {
    /// Stack of open span ids on this host thread; the top is the
    /// implicit parent for new events.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// A fresh recorder with its epoch at "now".
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                sinks: Mutex::new(Vec::new()),
                has_sinks: AtomicBool::new(false),
            }),
        }
    }

    /// Registers a sink; it sees every event recorded afterwards.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        self.inner.sinks.lock().push(sink);
        self.inner.has_sinks.store(true, Ordering::Release);
    }

    fn emit(
        &self,
        kind: EventKind,
        name: String,
        parent: u64,
        value: f64,
        kernel: Option<KernelProfile>,
    ) -> u64 {
        self.emit_full(kind, name, parent, value, kernel, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_full(
        &self,
        kind: EventKind,
        name: String,
        parent: u64,
        value: f64,
        kernel: Option<KernelProfile>,
        fault: Option<FaultInfo>,
    ) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut ev = Event {
            kind,
            id,
            parent,
            name,
            t_ns: 0,
            value,
            kernel: kernel.map(Box::new),
            fault: fault.map(Box::new),
        };
        // Sinks force a clone (the stored stream and the sink both need
        // the event); without them the emit path is a single push.
        let for_sinks = self.inner.has_sinks.load(Ordering::Acquire);
        {
            // Timestamp under the lock so the stored stream is
            // monotonic even with concurrent emitters.
            let mut events = self.inner.events.lock();
            ev.t_ns = self.inner.epoch.elapsed().as_nanos() as u64;
            if for_sinks {
                events.push(ev.clone());
            } else {
                events.push(ev);
                return id;
            }
        }
        for sink in self.inner.sinks.lock().iter() {
            sink.on_event(&ev);
        }
        id
    }

    fn current_parent() -> u64 {
        SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// The id of the innermost span open on this host thread (0 when
    /// none): what a worker thread passes to [`Recorder::adopt_parent`].
    pub fn current_span() -> u64 {
        Self::current_parent()
    }

    /// Nests this thread's subsequent events under `parent` — a span
    /// opened on another thread — until the guard drops. Task-graph
    /// workers adopt the span open where the graph was run, so spans
    /// emitted inside task bodies land in the caller's span tree.
    pub fn adopt_parent(parent: u64) -> AdoptedParent {
        let depth = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.push(parent);
            stack.len() - 1
        });
        AdoptedParent { depth }
    }

    /// Opens a span nested under the current thread's innermost open
    /// span. Close it by dropping the returned guard.
    pub fn span(&self, name: &str) -> Span {
        let parent = Self::current_parent();
        let id = self.emit(EventKind::SpanBegin, name.to_string(), parent, 0.0, None);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        Span {
            recorder: self.clone(),
            id,
            name: name.to_string(),
        }
    }

    /// Adds `value` to the named counter.
    pub fn counter(&self, name: &str, value: f64) {
        self.emit(
            EventKind::Counter,
            name.to_string(),
            Self::current_parent(),
            value,
            None,
        );
    }

    /// Charges `seconds` to the named timer.
    pub fn timer(&self, name: &str, seconds: f64) {
        self.emit(
            EventKind::Timer,
            name.to_string(),
            Self::current_parent(),
            seconds,
            None,
        );
    }

    /// Records a complete span — begin, the given counter/timer payload
    /// nested inside it, end — under a single lock acquisition and a
    /// single timestamp.
    ///
    /// This is the high-frequency emit path: callers that charge a
    /// fixed bundle of events per occurrence (the transport emits one
    /// batch per delivered message) would otherwise pay a lock, an
    /// `Instant::now`, and the span-guard machinery per event. Entry
    /// kinds must be leaf kinds (`Counter` or `Timer`); the batch never
    /// touches the thread's span stack beyond reading the current
    /// parent, so it cannot unbalance surrounding spans.
    pub fn span_batch(&self, name: &str, entries: &[(EventKind, &str, f64)]) {
        debug_assert!(entries
            .iter()
            .all(|(k, _, _)| matches!(k, EventKind::Counter | EventKind::Timer)));
        let parent = Self::current_parent();
        let count = entries.len() as u64 + 2;
        let first = self.inner.next_id.fetch_add(count, Ordering::Relaxed);
        let leaf = |kind: EventKind, id: u64, ename: &str, value: f64| Event {
            kind,
            id,
            parent: first,
            name: ename.to_string(),
            t_ns: 0,
            value,
            kernel: None,
            fault: None,
        };
        let mut batch: Vec<Event> = Vec::with_capacity(entries.len() + 2);
        batch.push(Event {
            kind: EventKind::SpanBegin,
            id: first,
            parent,
            name: name.to_string(),
            t_ns: 0,
            value: 0.0,
            kernel: None,
            fault: None,
        });
        for (i, (kind, ename, value)) in entries.iter().enumerate() {
            batch.push(leaf(*kind, first + 1 + i as u64, ename, *value));
        }
        batch.push(leaf(EventKind::SpanEnd, first + count - 1, name, 0.0));

        let for_sinks = self.inner.has_sinks.load(Ordering::Acquire);
        let sink_copy = for_sinks.then(|| batch.clone());
        let t_ns;
        {
            let mut events = self.inner.events.lock();
            t_ns = self.inner.epoch.elapsed().as_nanos() as u64;
            for mut ev in batch {
                ev.t_ns = t_ns;
                events.push(ev);
            }
        }
        if let Some(mut copy) = sink_copy {
            let sinks = self.inner.sinks.lock();
            for ev in copy.iter_mut() {
                ev.t_ns = t_ns;
                for sink in sinks.iter() {
                    sink.on_event(ev);
                }
            }
        }
    }

    /// Records a fault-handling event; `name` is the event label
    /// (`fault.injected`, `fault.retry`, `fault.fallback`,
    /// `fault.rollback`) and `count` the number of occurrences it covers.
    pub fn fault(&self, name: &str, info: FaultInfo, count: f64) {
        self.emit_full(
            EventKind::Fault,
            name.to_string(),
            Self::current_parent(),
            count,
            None,
            Some(info),
        );
    }

    /// Records one kernel launch.
    pub fn kernel(&self, profile: KernelProfile) {
        let name = profile.kernel.clone();
        let value = profile.est_seconds;
        self.emit(
            EventKind::Kernel,
            name,
            Self::current_parent(),
            value,
            Some(profile),
        );
    }

    /// Snapshot of the event stream so far.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.lock().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events (sinks stay registered).
    pub fn clear(&self) {
        self.inner.events.lock().clear();
    }
}

/// RAII guard for an open span; dropping it emits the `SpanEnd`.
pub struct Span {
    recorder: Recorder,
    id: u64,
    name: String,
}

impl Span {
    /// The span's event id (what child events carry as `parent`).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Normally we are the top of the stack; truncating at our
            // position also force-closes any child spans leaked past
            // their parent (they still emit their own SpanEnd later,
            // but no longer parent new events).
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.truncate(pos);
            }
        });
        self.recorder.emit(
            EventKind::SpanEnd,
            std::mem::take(&mut self.name),
            self.id,
            0.0,
            None,
        );
    }
}

/// Guard from [`Recorder::adopt_parent`]; dropping it restores the
/// thread's span stack to what it was before the adoption.
pub struct AdoptedParent {
    depth: usize,
}

impl Drop for AdoptedParent {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| s.borrow_mut().truncate(self.depth));
    }
}

/// Sums the instruction-class histograms of every `Kernel` event.
///
/// This is the quantity conserved against the simulator's global
/// launch statistics: per-launch histograms partition the metered
/// instruction stream.
pub fn kernel_instr_totals(events: &[Event]) -> [u64; N_INSTR_CLASSES] {
    let mut totals = [0u64; N_INSTR_CLASSES];
    for ev in events {
        if let Some(profile) = &ev.kernel {
            for (slot, count) in totals.iter_mut().zip(profile.instr.iter()) {
                *slot += count;
            }
        }
    }
    totals
}

/// Sums `Timer` event seconds per timer name, with call counts.
pub fn timer_totals(events: &[Event]) -> Vec<(String, f64, u64)> {
    let mut map: std::collections::BTreeMap<String, (f64, u64)> = std::collections::BTreeMap::new();
    for ev in events {
        if ev.kind == EventKind::Timer {
            let entry = map.entry(ev.name.clone()).or_insert((0.0, 0));
            entry.0 += ev.value;
            entry.1 += 1;
        }
    }
    map.into_iter()
        .map(|(name, (seconds, calls))| (name, seconds, calls))
        .collect()
}

/// Sums the values of every `Counter` event with the given name.
pub fn counter_total(events: &[Event], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == name)
        .map(|e| e.value)
        .fold(0.0, |a, v| a + v)
}

/// Sums the values (occurrence counts) of every `Fault` event with the
/// given label (`fault.injected`, `fault.retry`, …).
pub fn fault_total(events: &[Event], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Fault && e.name == name)
        .map(|e| e.value)
        .fold(0.0, |a, v| a + v)
}

#[cfg(test)]
pub(crate) fn sample_profile(kernel: &str, timer: &str, seed: u64) -> KernelProfile {
    let mut instr = [0u64; N_INSTR_CLASSES];
    for (i, slot) in instr.iter_mut().enumerate() {
        *slot = (seed + 1) * (i as u64 + 3) % 997;
    }
    KernelProfile {
        kernel: kernel.to_string(),
        timer: timer.to_string(),
        variant: "Select".to_string(),
        arch: "pvc".to_string(),
        sg_size: 16,
        wg_size: 64,
        n_subgroups: 128 + seed,
        instr,
        peak_regs: 96 + seed % 32,
        spilled_regs: seed % 5,
        local_bytes_per_wg: 2048,
        bytes_moved: 1_048_576 + seed * 4096,
        est_seconds: 1.25e-4 * (seed + 1) as f64,
        stall_mult: 1.0 + (seed % 7) as f64 * 0.125,
        occupancy: 1.0 / (1.0 + (seed % 3) as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn ids_unique_and_stream_monotonic() {
        let rec = Recorder::new();
        {
            let _run = rec.span("run");
            for i in 0..10 {
                let _step = rec.span("step");
                rec.counter("bytes", i as f64);
            }
        }
        let events = rec.events();
        let mut ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), events.len(), "event ids must be unique");
        assert!(
            events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "stored stream must have monotonic timestamps"
        );
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let rec = Recorder::new();
        let run = rec.span("run");
        let step = rec.span("step");
        rec.counter("c", 1.0);
        drop(step);
        rec.counter("after", 1.0);
        drop(run);

        let events = rec.events();
        let run_begin = &events[0];
        let step_begin = &events[1];
        assert_eq!(run_begin.kind, EventKind::SpanBegin);
        assert_eq!(run_begin.parent, 0);
        assert_eq!(step_begin.parent, run_begin.id, "step nests under run");
        let counter = events.iter().find(|e| e.name == "c").unwrap();
        assert_eq!(counter.parent, step_begin.id, "counter nests under step");
        let after = events.iter().find(|e| e.name == "after").unwrap();
        assert_eq!(after.parent, run_begin.id, "parent pops back to run");
        let step_end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd && e.name == "step")
            .unwrap();
        assert_eq!(step_end.parent, step_begin.id, "end links to begin");
    }

    #[test]
    fn spans_balance_under_concurrent_use() {
        let rec = Recorder::new();
        let outer = rec.span("outer");
        (0u64..64).into_par_iter().for_each(|i| {
            let worker = rec.span("worker");
            {
                let _inner = rec.span("inner");
                rec.counter("work", i as f64);
            }
            drop(worker);
        });
        drop(outer);

        let events = rec.events();
        let begins: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .collect();
        let ends: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .collect();
        assert_eq!(begins.len(), ends.len(), "every span closes");
        assert_eq!(begins.len(), 1 + 64 * 2);
        // Every end points at exactly one begin.
        for end in &ends {
            let matching: Vec<_> = begins.iter().filter(|b| b.id == end.parent).collect();
            assert_eq!(matching.len(), 1);
            assert_eq!(matching[0].name, end.name);
        }
        // Inner spans parent to a worker span opened on the same
        // thread, never to another worker's inner span.
        let worker_ids: Vec<u64> = begins
            .iter()
            .filter(|b| b.name == "worker")
            .map(|b| b.id)
            .collect();
        for b in begins.iter().filter(|b| b.name == "inner") {
            assert!(
                worker_ids.contains(&b.parent),
                "inner spans nest under a worker span"
            );
        }
        // Worker spans parent either to `outer` (same thread) or to
        // root (fresh pool thread) — never to an unrelated span.
        let outer_id = begins.iter().find(|b| b.name == "outer").unwrap().id;
        for b in begins.iter().filter(|b| b.name == "worker") {
            assert!(b.parent == outer_id || b.parent == 0);
        }
        // Counter conservation across threads.
        let total: f64 = events
            .iter()
            .filter(|e| e.kind == EventKind::Counter)
            .map(|e| e.value)
            .sum();
        assert_eq!(total, (0..64).sum::<u64>() as f64);
    }

    #[test]
    fn adopted_parents_nest_other_threads_spans() {
        let rec = Recorder::new();
        let outer = rec.span("outer");
        let outer_id = Recorder::current_span();
        assert_eq!(outer_id, outer.id());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(Recorder::current_span(), 0, "fresh thread");
                {
                    let _nest = Recorder::adopt_parent(outer_id);
                    let _task = rec.span("task");
                    rec.counter("work", 1.0);
                }
                assert_eq!(Recorder::current_span(), 0, "guard restores");
                let _late = rec.span("late");
            });
        });
        drop(outer);
        let events = rec.events();
        let begin = |name: &str| {
            events
                .iter()
                .find(|e| e.kind == EventKind::SpanBegin && e.name == name)
                .unwrap()
        };
        assert_eq!(begin("task").parent, outer_id);
        let work = events.iter().find(|e| e.name == "work").unwrap();
        assert_eq!(work.parent, begin("task").id);
        assert_eq!(begin("late").parent, 0);
    }

    #[test]
    fn sinks_see_every_event() {
        struct CountSink(std::sync::atomic::AtomicU64);
        impl Sink for CountSink {
            fn on_event(&self, _event: &Event) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let rec = Recorder::new();
        let sink = std::sync::Arc::new(CountSink(std::sync::atomic::AtomicU64::new(0)));
        struct Fwd(std::sync::Arc<CountSink>);
        impl Sink for Fwd {
            fn on_event(&self, event: &Event) {
                self.0.on_event(event);
            }
        }
        rec.add_sink(Box::new(Fwd(sink.clone())));
        rec.timer("upGeo", 0.5);
        rec.counter("bytes", 7.0);
        let _s = rec.span("phase");
        drop(_s);
        assert_eq!(sink.0.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    #[test]
    fn kernel_histograms_aggregate() {
        let rec = Recorder::new();
        let mut expected = [0u64; N_INSTR_CLASSES];
        for seed in 0..5 {
            let p = sample_profile("k", "upGeo", seed);
            for (slot, c) in expected.iter_mut().zip(p.instr.iter()) {
                *slot += c;
            }
            rec.kernel(p);
        }
        assert_eq!(kernel_instr_totals(&rec.events()), expected);
    }

    #[test]
    fn timer_totals_accumulate() {
        let rec = Recorder::new();
        rec.timer("upGeo", 1.0);
        rec.timer("upGeo", 2.0);
        rec.timer("upGrav", 0.25);
        let totals = timer_totals(&rec.events());
        assert_eq!(
            totals,
            vec![
                ("upGeo".to_string(), 3.0, 2),
                ("upGrav".to_string(), 0.25, 1)
            ]
        );
    }

    #[test]
    fn fault_events_carry_their_payload() {
        let rec = Recorder::new();
        let _step = rec.span("step");
        rec.fault(
            "fault.injected",
            FaultInfo {
                kind: "transient".to_string(),
                kernel: "upGeo".to_string(),
                variant: "Select".to_string(),
                detail: "launch #3".to_string(),
            },
            1.0,
        );
        rec.fault(
            "fault.injected",
            FaultInfo {
                kind: "corruption".to_string(),
                kernel: "upGrav".to_string(),
                variant: "Select".to_string(),
                detail: "bit flip".to_string(),
            },
            2.0,
        );
        let events = rec.events();
        let faults: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::Fault)
            .collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].fault.as_ref().unwrap().kind, "transient");
        assert!(faults[0].parent > 0, "fault nests under the open span");
        assert_eq!(fault_total(&events, "fault.injected"), 3.0);
        assert_eq!(counter_total(&events, "missing"), 0.0);
    }

    #[test]
    fn labels_cover_every_slot() {
        assert_eq!(INSTR_CLASS_LABELS.len(), N_INSTR_CLASSES);
        let mut sorted = INSTR_CLASS_LABELS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), N_INSTR_CLASSES, "labels must be distinct");
    }
}
