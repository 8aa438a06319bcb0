//! Flight-recorder tracing: fixed-capacity per-thread event rings with
//! Chrome Trace Event export.
//!
//! [`FlightRecorder`] is the event-level companion to the aggregating
//! [`StatsRecorder`](crate::StatsRecorder): instead of folding probes into
//! sums it keeps the *last N* typed events per thread — span enters/exits,
//! counter deltas, gauges, latency samples, and instants — each stamped
//! with nanoseconds since the recorder was created. Memory is bounded by
//! construction (`capacity` events per lane, 32 bytes each) and overflow
//! is accounted exactly: the ring overwrites its oldest event and bumps
//! the lane's `dropped` counter, so `recorded + dropped` always equals the
//! number of events ever emitted on that lane.
//!
//! Each thread writes to its own *lane* (named after the thread when it
//! has a name), so worker threads never contend with the main thread or
//! each other; a lane's mutex is only ever touched by its owning thread
//! and the exporter. [`FlightRecorder::chrome_trace`] pairs span events
//! into Chrome Trace `"X"` (complete) events and emits one
//! `thread_name` metadata record per lane, producing JSON loadable in
//! `chrome://tracing` or Perfetto.
//!
//! Like every [`Recorder`], the flight recorder is a compile-time choice:
//! code instrumented against [`NoopRecorder`](crate::NoopRecorder) still
//! const-folds every probe away, and the recording overhead on the mapper
//! hot loop is bench-gated (see `crates/emts/tests/perf_guard.rs`).

use crate::recorder::Recorder;
use serde::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What a [`TraceEvent`] records. The payload lives in
/// [`TraceEvent::value`]; kinds with an `f64` payload store its raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened (`value` unused).
    SpanEnter,
    /// The innermost span closed (`value` unused).
    SpanExit,
    /// A counter delta (`value` = delta).
    Counter,
    /// A gauge observation (`value` = `f64` bits).
    Gauge,
    /// A latency sample in seconds (`value` = `f64` bits).
    Latency,
    /// A flat phase-time addition in seconds (`value` = `f64` bits).
    PhaseAdd,
    /// A point-in-time marker (`value` = caller-defined payload).
    Instant,
}

/// One recorded event: kind, static name, nanoseconds since the recorder
/// epoch, and a kind-dependent payload.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Event type; fixes the interpretation of `value`.
    pub kind: TraceEventKind,
    /// Probe name (static, so recording never allocates).
    pub name: &'static str,
    /// Nanoseconds since [`FlightRecorder::new`].
    pub t_ns: u64,
    /// Payload (see [`TraceEventKind`]).
    pub value: u64,
}

impl TraceEvent {
    /// The payload reinterpreted as `f64` (meaningful for `Gauge`,
    /// `Latency` and `PhaseAdd` events).
    pub fn value_f64(&self) -> f64 {
        f64::from_bits(self.value)
    }
}

/// Fixed-capacity ring of events plus exact drop accounting.
struct LaneBuf {
    /// Ring storage; grows up to the recorder capacity, then wraps.
    events: Vec<TraceEvent>,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

/// One thread's event stream inside a [`FlightRecorder`].
struct Lane {
    name: String,
    buf: Mutex<LaneBuf>,
}

impl Lane {
    /// Locks the ring, recovering from poison: an instrumented thread that
    /// panicked mid-`push` cannot tear the buffer (a single `Vec` write),
    /// and the crash timeline is exactly what a flight recorder exists to
    /// preserve.
    fn locked(&self) -> MutexGuard<'_, LaneBuf> {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, capacity: usize, ev: TraceEvent) {
        let mut buf = self.locked();
        if buf.events.len() < capacity {
            buf.events.push(ev);
        } else {
            let head = buf.head;
            buf.events[head] = ev;
            // Branch instead of `%`: capacity is arbitrary, and integer
            // division is the single most expensive op on this path.
            buf.head = if head + 1 == capacity { 0 } else { head + 1 };
            buf.dropped += 1;
        }
    }
}

/// Read-only copy of one lane taken by [`FlightRecorder::snapshot`].
pub struct LaneSnapshot {
    /// Lane (thread) name.
    pub name: String,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow, exact.
    pub dropped: u64,
}

/// Recorder-instance ids so thread-local lane caches can tell two
/// coexisting recorders apart.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of `(recorder id, lane)`. Entries hold a strong
    /// [`Arc`] so the per-event fast path is a borrow + linear scan with
    /// no refcount traffic; the cache is capped at [`LANE_CACHE_MAX`]
    /// entries (oldest evicted first), which bounds how many lanes of
    /// already-dropped recorders one thread can keep alive.
    static LANE_CACHE: RefCell<Vec<(u64, Arc<Lane>)>> = const { RefCell::new(Vec::new()) };
}

/// Per-thread lane-cache cap — the number of *coexisting* recorders one
/// thread emits through is in practice 1 or 2.
const LANE_CACHE_MAX: usize = 16;

/// The flight recorder: bounded per-thread event rings, one lane per
/// thread that emits through it.
///
/// See the [module docs](self) for the design. Every [`Recorder`] probe
/// maps to one ring push on the calling thread's lane; `span_enter` /
/// `span_exit` are lane-local here (unlike [`StatsRecorder`](crate::StatsRecorder)'s
/// main-thread-only span stack), so worker threads get real span
/// timelines.
pub struct FlightRecorder {
    id: u64,
    epoch: Instant,
    capacity: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

/// Default per-lane capacity: 64k events ≈ 2 MiB per lane.
pub const DEFAULT_CAPACITY: usize = 65_536;

impl FlightRecorder {
    /// A recorder with the [`DEFAULT_CAPACITY`] per-lane ring.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder whose lanes each retain at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity,
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// Per-lane ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lanes_locked(&self) -> MutexGuard<'_, Vec<Arc<Lane>>> {
        // Same poison policy as `Lane::locked`.
        self.lanes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates and registers the calling thread's lane, caching the
    /// `(recorder, thread)` pair thread-locally so the registry lock is
    /// taken once per thread, not per event.
    #[cold]
    fn register_lane(&self) -> Arc<Lane> {
        let mut lanes = self.lanes_locked();
        let name = match std::thread::current().name() {
            Some(n) => n.to_string(),
            None => format!("lane-{}", lanes.len()),
        };
        let lane = Arc::new(Lane {
            name,
            buf: Mutex::new(LaneBuf {
                events: Vec::with_capacity(self.capacity.min(1024)),
                head: 0,
                dropped: 0,
            }),
        });
        lanes.push(Arc::clone(&lane));
        drop(lanes);
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.len() >= LANE_CACHE_MAX {
                // Oldest entry first: almost certainly a dropped recorder.
                cache.remove(0);
            }
            cache.push((self.id, Arc::clone(&lane)));
        });
        lane
    }

    #[inline]
    fn push(&self, kind: TraceEventKind, name: &'static str, value: u64) {
        let ev = TraceEvent {
            kind,
            name,
            t_ns: self.now_ns(),
            value,
        };
        LANE_CACHE.with(|cache| {
            // Fast path: shared borrow, scan (the hit is almost always the
            // only entry), one uncontended lane-mutex lock.
            if let Some((_, lane)) = cache.borrow().iter().find(|(id, _)| *id == self.id) {
                lane.push(self.capacity, ev);
                return;
            }
            self.register_lane().push(self.capacity, ev);
        });
    }

    /// Copies every lane out in registration order, each lane's events
    /// oldest-first.
    pub fn snapshot(&self) -> Vec<LaneSnapshot> {
        let lanes = self.lanes_locked();
        lanes
            .iter()
            .map(|lane| {
                let buf = lane.locked();
                let mut events = Vec::with_capacity(buf.events.len());
                if buf.events.len() == self.capacity {
                    events.extend_from_slice(&buf.events[buf.head..]);
                    events.extend_from_slice(&buf.events[..buf.head]);
                } else {
                    events.extend_from_slice(&buf.events);
                }
                LaneSnapshot {
                    name: lane.name.clone(),
                    events,
                    dropped: buf.dropped,
                }
            })
            .collect()
    }

    /// Number of lanes (threads that have emitted at least one event).
    pub fn lane_count(&self) -> usize {
        self.lanes_locked().len()
    }

    /// Total events currently retained across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes_locked()
            .iter()
            .map(|lane| lane.locked().events.len())
            .sum()
    }

    /// Total events lost to ring overflow across all lanes, exact.
    pub fn total_dropped(&self) -> u64 {
        self.lanes_locked()
            .iter()
            .map(|lane| lane.locked().dropped)
            .sum()
    }

    /// Exports the recorded timeline as a Chrome Trace Event JSON value
    /// (`{"traceEvents": [...]}`), one `tid` per lane, loadable in
    /// `chrome://tracing` / Perfetto.
    ///
    /// Span enter/exit pairs become `"X"` complete events (guaranteeing
    /// proper nesting); a span still open at export time is closed at the
    /// export timestamp, and an exit whose enter was overwritten by ring
    /// overflow is skipped. Counters, gauges, phase additions and latency
    /// samples become `"C"` counter events; instants become `"i"`.
    pub fn chrome_trace(&self) -> Value {
        let export_ns = self.now_ns();
        let mut trace_events: Vec<Value> = Vec::new();
        for (tid, lane) in self.snapshot().into_iter().enumerate() {
            let tid = tid as i128 + 1;
            trace_events.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), Value::Int(tid)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(lane.name.clone()))]),
                ),
            ]));
            if lane.dropped > 0 {
                trace_events.push(instant_event(
                    "ring.dropped",
                    tid,
                    0.0,
                    Value::Int(lane.dropped as i128),
                ));
            }
            let mut open: Vec<(&'static str, u64)> = Vec::new();
            for ev in &lane.events {
                let ts = ev.t_ns as f64 / 1_000.0;
                match ev.kind {
                    TraceEventKind::SpanEnter => open.push((ev.name, ev.t_ns)),
                    TraceEventKind::SpanExit => {
                        // Orphan exits (enter lost to overflow, or
                        // mismatched nesting) are skipped rather than
                        // guessed at.
                        if open.last().is_some_and(|(name, _)| *name == ev.name) {
                            let (name, t0) = open.pop().expect("last() was Some");
                            trace_events.push(complete_event(name, tid, t0, ev.t_ns));
                        }
                    }
                    TraceEventKind::Counter => {
                        trace_events.push(counter_event(
                            ev.name,
                            tid,
                            ts,
                            Value::Int(ev.value as i128),
                        ));
                    }
                    TraceEventKind::Gauge | TraceEventKind::Latency | TraceEventKind::PhaseAdd => {
                        trace_events.push(counter_event(
                            ev.name,
                            tid,
                            ts,
                            Value::Float(ev.value_f64()),
                        ));
                    }
                    TraceEventKind::Instant => {
                        trace_events.push(instant_event(
                            ev.name,
                            tid,
                            ts,
                            Value::Int(ev.value as i128),
                        ));
                    }
                }
            }
            // Close spans still open at export time so they are visible
            // (innermost last, preserving nesting).
            while let Some((name, t0)) = open.pop() {
                trace_events.push(complete_event(name, tid, t0, export_ns));
            }
        }
        Value::Object(vec![("traceEvents".into(), Value::Array(trace_events))])
    }

    /// [`Self::chrome_trace`] rendered as a JSON string.
    pub fn chrome_trace_json(&self) -> String {
        serde_json::to_string_pretty(&self.chrome_trace())
            .expect("chrome traces serialize infallibly")
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

fn complete_event(name: &str, tid: i128, t0_ns: u64, t1_ns: u64) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        ("ph".into(), Value::Str("X".into())),
        ("pid".into(), Value::Int(1)),
        ("tid".into(), Value::Int(tid)),
        ("ts".into(), Value::Float(t0_ns as f64 / 1_000.0)),
        (
            "dur".into(),
            Value::Float(t1_ns.saturating_sub(t0_ns) as f64 / 1_000.0),
        ),
    ])
}

fn counter_event(name: &str, tid: i128, ts_us: f64, value: Value) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        ("ph".into(), Value::Str("C".into())),
        ("pid".into(), Value::Int(1)),
        ("tid".into(), Value::Int(tid)),
        ("ts".into(), Value::Float(ts_us)),
        ("args".into(), Value::Object(vec![("value".into(), value)])),
    ])
}

fn instant_event(name: &str, tid: i128, ts_us: f64, value: Value) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        ("ph".into(), Value::Str("i".into())),
        ("s".into(), Value::Str("t".into())),
        ("pid".into(), Value::Int(1)),
        ("tid".into(), Value::Int(tid)),
        ("ts".into(), Value::Float(ts_us)),
        ("args".into(), Value::Object(vec![("value".into(), value)])),
    ])
}

impl Recorder for FlightRecorder {
    const ENABLED: bool = true;

    fn span_enter(&self, name: &'static str) {
        self.push(TraceEventKind::SpanEnter, name, 0);
    }

    fn span_exit(&self, name: &'static str) {
        self.push(TraceEventKind::SpanExit, name, 0);
    }

    fn phase_add(&self, name: &'static str, seconds: f64) {
        self.push(TraceEventKind::PhaseAdd, name, seconds.to_bits());
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.push(TraceEventKind::Counter, name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.push(TraceEventKind::Gauge, name, value.to_bits());
    }

    fn latency(&self, name: &'static str, seconds: f64) {
        self.push(TraceEventKind::Latency, name, seconds.to_bits());
    }

    fn event(&self, name: &'static str, value: u64) {
        self.push(TraceEventKind::Instant, name, value);
    }

    fn trace_enter(&self, name: &'static str) {
        self.push(TraceEventKind::SpanEnter, name, 0);
    }

    fn trace_exit(&self, name: &'static str) {
        self.push(TraceEventKind::SpanExit, name, 0);
    }
}

/// Fans every probe out to two recorders.
///
/// `emts-sim --trace` uses this to aggregate a [`StatsRecorder`] RunReport
/// *and* capture a [`FlightRecorder`] timeline from the same run. The
/// compile-time [`Recorder::ENABLED`] guard stays honest: it is the OR of
/// the two sides, so tee-ing a no-op recorder in costs nothing extra.
///
/// [`StatsRecorder`]: crate::StatsRecorder
pub struct TeeRecorder<'a, A: Recorder, B: Recorder>(pub &'a A, pub &'a B);

impl<A: Recorder, B: Recorder> Recorder for TeeRecorder<'_, A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn span_enter(&self, name: &'static str) {
        self.0.span_enter(name);
        self.1.span_enter(name);
    }

    fn span_exit(&self, name: &'static str) {
        self.0.span_exit(name);
        self.1.span_exit(name);
    }

    fn phase_add(&self, name: &'static str, seconds: f64) {
        self.0.phase_add(name, seconds);
        self.1.phase_add(name, seconds);
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.0.add(name, delta);
        self.1.add(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.0.gauge(name, value);
        self.1.gauge(name, value);
    }

    fn latency(&self, name: &'static str, seconds: f64) {
        self.0.latency(name, seconds);
        self.1.latency(name, seconds);
    }

    fn event(&self, name: &'static str, value: u64) {
        self.0.event(name, value);
        self.1.event(name, value);
    }

    fn trace_enter(&self, name: &'static str) {
        self.0.trace_enter(name);
        self.1.trace_enter(name);
    }

    fn trace_exit(&self, name: &'static str) {
        self.0.trace_exit(name);
        self.1.trace_exit(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops_exactly() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            rec.event("tick", i);
        }
        let lanes = rec.snapshot();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].dropped, 6);
        let values: Vec<u64> = lanes[0].events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9]);
        assert_eq!(rec.total_dropped(), 6);
        assert_eq!(rec.total_events(), 4);
    }

    #[test]
    fn timestamps_are_monotone_within_a_lane() {
        let rec = FlightRecorder::new();
        for i in 0..100u64 {
            rec.event("tick", i);
        }
        let lanes = rec.snapshot();
        let ts: Vec<u64> = lanes[0].events.iter().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn each_thread_gets_its_own_lane() {
        let rec = FlightRecorder::new();
        rec.event("main", 0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| rec.event("worker", 1));
            }
        });
        assert_eq!(rec.lane_count(), 4);
    }

    #[test]
    fn named_threads_name_their_lanes() {
        let rec = FlightRecorder::new();
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("worker-7".into())
                .spawn_scoped(scope, || rec.event("x", 0))
                .expect("spawn named thread");
        });
        let lanes = rec.snapshot();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].name, "worker-7");
    }

    #[test]
    fn chrome_trace_pairs_spans_and_names_lanes() {
        let rec = FlightRecorder::new();
        rec.span_enter("outer");
        rec.span_enter("inner");
        rec.span_exit("inner");
        rec.span_exit("outer");
        rec.add("count", 3);
        rec.event("mark", 9);
        let trace = rec.chrome_trace();
        let events = trace
            .get("traceEvents")
            .and_then(|v| match v {
                Value::Array(a) => Some(a),
                _ => None,
            })
            .expect("traceEvents array");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        // Round-trip through the JSON text form.
        let parsed = serde_json::parse(&rec.chrome_trace_json()).expect("export parses");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn open_spans_are_closed_at_export_time() {
        let rec = FlightRecorder::new();
        rec.span_enter("never-exited");
        let trace = rec.chrome_trace();
        let events = match trace.get("traceEvents") {
            Some(Value::Array(a)) => a,
            _ => panic!("traceEvents array"),
        };
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("synthesized complete event");
        assert_eq!(x.get("name").and_then(Value::as_str), Some("never-exited"));
    }

    #[test]
    fn tee_forwards_to_both_sides() {
        let stats = crate::StatsRecorder::new();
        let flight = FlightRecorder::new();
        let tee = TeeRecorder(&stats, &flight);
        tee.add("c", 2);
        tee.time("span", || ());
        assert_eq!(stats.counter("c"), 2);
        assert_eq!(flight.total_events(), 3); // counter + enter + exit
    }
}
