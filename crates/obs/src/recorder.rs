//! The [`Recorder`] trait and its zero-cost no-op implementation.

/// A telemetry sink for instrumented code.
///
/// Instrumented functions take `&R` with `R: Recorder` (defaulted to
/// [`NoopRecorder`] wherever a type parameter would otherwise leak into
/// public signatures). The associated constant [`Recorder::ENABLED`] lets
/// hot paths guard *preparation* work — timestamp reads, local counters —
/// with `if R::ENABLED { ... }`, which monomorphization turns into a
/// compile-time branch: with the no-op recorder the whole probe, including
/// the `Instant::now()` calls, is erased.
///
/// Semantics of the four instrument families:
///
/// * **Spans** — monotonic wall-clock phases. Spans nest: a span entered
///   while another is open becomes its child, and its accumulated time is
///   recorded under the `/`-joined path (`"ea/mutate"`). Span methods are
///   only meaningful from one thread at a time; worker threads report via
///   the flat primitives below.
/// * **Phase accumulators** — [`Recorder::phase_add`] adds already-measured
///   seconds under a *flat* name (no nesting), callable from any thread.
/// * **Counters** — monotonically increasing `u64` sums.
/// * **Gauges** — last-write-wins `f64` observations.
/// * **Latency histograms** — fixed-bin log-scaled distributions of
///   durations in seconds (see [`crate::LogHistogram`]).
pub trait Recorder: Sync {
    /// `false` promises every method is a no-op, allowing instrumented code
    /// to skip measurement work entirely.
    const ENABLED: bool;

    /// Opens a nested span named `name` (stack discipline; main thread).
    fn span_enter(&self, name: &'static str);

    /// Closes the innermost span, which must be named `name`.
    fn span_exit(&self, name: &'static str);

    /// Adds `seconds` to the flat phase accumulator `name` (thread-safe).
    fn phase_add(&self, name: &'static str, seconds: f64);

    /// Adds `delta` to counter `name`.
    fn add(&self, name: &'static str, delta: u64);

    /// Sets gauge `name` to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: f64);

    /// Records one duration sample into latency histogram `name`.
    fn latency(&self, name: &'static str, seconds: f64);

    /// Records a point-in-time marker carrying an opaque payload
    /// (batch sizes, generation indices, …).
    ///
    /// Events mark the timeline; they are not counters. Event-stream
    /// sinks (the flight recorder) keep each occurrence, and every other
    /// sink ignores it by default, so a fact an event marks is counted
    /// only where its own record publishes it.
    fn event(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Opens a *trace* span: like [`Recorder::span_enter`] but scoped to
    /// the calling thread, so worker threads may use it concurrently.
    /// Aggregating sinks whose span stack is single-threaded default to
    /// ignoring trace spans (workers already report busy time through
    /// [`Recorder::phase_add`]); the flight recorder records them on the
    /// calling thread's lane.
    fn trace_enter(&self, name: &'static str) {
        let _ = name;
    }

    /// Closes the calling thread's innermost trace span, which must be
    /// named `name`.
    fn trace_exit(&self, name: &'static str) {
        let _ = name;
    }

    /// RAII guard: enters a thread-local trace span, exits it on drop.
    fn trace_span(&self, name: &'static str) -> TraceSpan<'_, Self>
    where
        Self: Sized,
    {
        TraceSpan::new(self, name)
    }

    /// RAII guard: enters a span, exits it on drop.
    fn span(&self, name: &'static str) -> Span<'_, Self>
    where
        Self: Sized,
    {
        Span::new(self, name)
    }

    /// Runs `f` inside a span named `name`.
    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T
    where
        Self: Sized,
    {
        let _guard = self.span(name);
        f()
    }
}

/// Publishes fields of a run's typed record to a [`Recorder`], each under
/// `prefix` followed by its field path, so a metric's name is built from
/// the field it reads and cannot drift from it. Fields listed in `add`
/// become counters, fields in `gauge` become gauges; nested fields are
/// written as paths (`kinds.crash.events`). Names stay `&'static str`.
///
/// ```
/// struct Kind { events: usize }
/// struct Totals { makespan: f64, crash: Kind }
/// let totals = Totals { makespan: 1.5, crash: Kind { events: 2 } };
/// let rec = obs::StatsRecorder::new();
/// obs::publish!(&rec, "run.", totals, add[crash.events], gauge[makespan]);
/// assert_eq!(rec.counter("run.crash.events"), 2);
/// assert_eq!(rec.report("doc").gauges["run.makespan"], 1.5);
/// ```
#[macro_export]
macro_rules! publish {
    (@name $prefix:literal, $head:ident $(. $rest:ident)*) => {
        concat!($prefix, stringify!($head) $(, ".", stringify!($rest))*)
    };
    ($rec:expr, $prefix:literal, $record:expr,
     add[$($($c:ident).+),* $(,)?] $(, gauge[$($($g:ident).+),* $(,)?])?) => {{
        let (rec, record) = ($rec, &$record);
        $($crate::Recorder::add(rec, $crate::publish!(@name $prefix, $($c).+), record.$($c).+ as u64);)*
        $($($crate::Recorder::gauge(rec, $crate::publish!(@name $prefix, $($g).+), record.$($g).+ as f64);)*)?
    }};
}

/// RAII span guard returned by [`Recorder::span`].
pub struct Span<'r, R: Recorder> {
    rec: &'r R,
    name: &'static str,
}

impl<'r, R: Recorder> Span<'r, R> {
    fn new(rec: &'r R, name: &'static str) -> Self {
        if R::ENABLED {
            rec.span_enter(name);
        }
        Span { rec, name }
    }
}

impl<R: Recorder> Drop for Span<'_, R> {
    fn drop(&mut self) {
        if R::ENABLED {
            self.rec.span_exit(self.name);
        }
    }
}

/// RAII guard for thread-local trace spans, returned by
/// [`Recorder::trace_span`].
pub struct TraceSpan<'r, R: Recorder> {
    rec: &'r R,
    name: &'static str,
}

impl<'r, R: Recorder> TraceSpan<'r, R> {
    fn new(rec: &'r R, name: &'static str) -> Self {
        if R::ENABLED {
            rec.trace_enter(name);
        }
        TraceSpan { rec, name }
    }
}

impl<R: Recorder> Drop for TraceSpan<'_, R> {
    fn drop(&mut self) {
        if R::ENABLED {
            self.rec.trace_exit(self.name);
        }
    }
}

/// The disabled recorder: every probe compiles to nothing.
///
/// This is the default recorder of every instrumented entry point, so
/// pre-existing call sites pay for telemetry exactly what they paid before
/// it existed (asserted by the release perf guard
/// `crates/bench/tests/perf_guard.rs` on the serial evaluation pool).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn span_enter(&self, _name: &'static str) {}

    #[inline(always)]
    fn span_exit(&self, _name: &'static str) {}

    #[inline(always)]
    fn phase_add(&self, _name: &'static str, _seconds: f64) {}

    #[inline(always)]
    fn add(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _name: &'static str, _value: f64) {}

    #[inline(always)]
    fn latency(&self, _name: &'static str, _seconds: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time: the disabled recorder must advertise itself as such,
    // or every `if R::ENABLED` probe in the hot paths stays live.
    const _: () = assert!(!NoopRecorder::ENABLED);

    #[test]
    fn noop_is_disabled_and_inert() {
        let rec = NoopRecorder;
        rec.add("c", 1);
        rec.gauge("g", 1.0);
        rec.latency("l", 1.0);
        rec.phase_add("p", 1.0);
        let out = rec.time("span", || 42);
        assert_eq!(out, 42);
    }
}
