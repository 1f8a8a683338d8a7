//! # pathfinder-telemetry
//!
//! Zero-cost observability for the PATHFINDER reproduction. The paper's
//! evaluation reasons about *internal* signals — per-neuron spike counts
//! (§3.6, Table 2), STDP update volume (§3.4's duty-cycling), confidence
//! transitions in the Inference Table (§3.3–3.4), and memory-system queue
//! behaviour (§4.1, Table 3) — and this crate is how the workspace surfaces
//! them without taxing the hot paths that produce them.
//!
//! ## Model
//!
//! Four instrument kinds, all keyed by `&'static str` metric names:
//!
//! * **counters** — monotonically increasing `u64` event counts
//!   ([`counter!`]);
//! * **gauges** — last-write-wins `f64` levels ([`gauge!`]);
//! * **histograms** — log₂-bucketed `u64` value distributions with
//!   count/sum/min/max and approximate percentiles ([`histogram!`]);
//! * **timers** — scoped wall-clock spans aggregated as count + total
//!   nanoseconds ([`timer!`], [`time!`]). Timers nest naturally: each guard
//!   measures its own span.
//!
//! Events flow to the thread's current [`Recorder`]. The default recorder is
//! an always-present per-thread [`MemoryRecorder`]; [`capture`] pushes a
//! fresh one for the duration of a closure and returns its [`Snapshot`],
//! which is how the harness scopes metrics to a single prefetcher run even
//! when workloads evaluate on parallel threads. [`record_into`] installs a
//! caller-owned [`MemoryRecorder`] instead, so a long-lived owner — a serve
//! daemon stream — accumulates what many short scopes record, on
//! whichever threads they run.
//!
//! ## Zero cost when disabled
//!
//! All recording entry points are compiled behind the `enabled` cargo
//! feature (off by default). With the feature off they are empty
//! `#[inline(always)]` functions, so instrumented code costs nothing — no
//! branch, no thread-local access. What recording costs when it is on is
//! measured end to end through the serve daemon (EXPERIMENTS.md,
//! "Telemetry overhead"). Downstream crates expose
//! their own `telemetry` feature forwarding to
//! `pathfinder-telemetry/enabled`; `pathfinder-harness` turns it on by
//! default so `repro` emits run reports out of the box.
//!
//! ## Quick start
//!
//! ```
//! use pathfinder_telemetry as telemetry;
//!
//! fn hot_loop() {
//!     let _span = telemetry::timer!("demo.phase");
//!     for i in 0..100u64 {
//!         telemetry::counter!("demo.events", 1);
//!         telemetry::histogram!("demo.queue_depth", i % 7);
//!     }
//! }
//!
//! let ((), snapshot) = telemetry::capture(hot_loop);
//! // With the `enabled` feature on, the snapshot now holds the metrics;
//! // with it off, recording is compiled out and the snapshot is empty.
//! if telemetry::enabled() {
//!     assert_eq!(snapshot.counter("demo.events"), 100);
//!     println!("{}", snapshot.to_json());
//! } else {
//!     assert!(snapshot.is_empty());
//! }
//! ```

#![warn(missing_docs)]

mod histogram;
pub mod json;
mod recorder;
mod snapshot;

pub use histogram::{bucket_index, bucket_upper_bound, Histogram, N_BUCKETS};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder};
pub use snapshot::{HistogramSnapshot, Snapshot, TimerSnapshot};

/// Whether telemetry recording is compiled in (the `enabled` feature).
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod active {
    use super::recorder::{MemoryRecorder, Recorder};
    use super::snapshot::Snapshot;
    use std::cell::RefCell;
    use std::rc::Rc;

    thread_local! {
        /// Stack of recorders; the innermost receives events. The bottom
        /// ambient recorder always exists so uncaptured code still records.
        static STACK: RefCell<Vec<Rc<dyn Recorder>>> =
            RefCell::new(vec![Rc::new(MemoryRecorder::new())]);
    }

    pub(super) fn with_current<T>(f: impl FnOnce(&dyn Recorder) -> T) -> T {
        STACK.with(|s| {
            let stack = s.borrow();
            let rec = stack.last().expect("recorder stack never empty").clone();
            drop(stack); // release before user code: recorders may re-enter
            f(rec.as_ref())
        })
    }

    pub(super) fn push(rec: Rc<dyn Recorder>) {
        STACK.with(|s| s.borrow_mut().push(rec));
    }

    pub(super) fn pop() {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.len() > 1 {
                stack.pop();
            }
        });
    }

    pub(super) fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
        let rec = Rc::new(MemoryRecorder::new());
        push(rec.clone());
        // Pop even on unwind so a panicking run cannot poison the stack.
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                pop();
            }
        }
        let guard = PopGuard;
        let out = f();
        drop(guard);
        (out, rec.snapshot())
    }

    pub(super) fn record_into<T>(rec: &MemoryRecorder, f: impl FnOnce() -> T) -> T {
        // The stack owns its recorders, so the caller's state moves into a
        // stacked recorder for the scope and moves back when it ends, even
        // on unwind.
        struct Restore<'a> {
            rec: &'a MemoryRecorder,
            scoped: Rc<MemoryRecorder>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                pop();
                self.rec.swap(&self.scoped);
            }
        }
        let scoped = Rc::new(MemoryRecorder::new());
        scoped.swap(rec);
        push(scoped.clone());
        let _restore = Restore { rec, scoped };
        f()
    }

    pub(super) fn snapshot_ambient() -> Snapshot {
        STACK.with(|s| {
            let stack = s.borrow();
            let rec = stack.first().expect("ambient recorder exists");
            rec.snapshot()
        })
    }

    pub(super) fn reset_ambient() {
        STACK.with(|s| {
            let stack = s.borrow();
            stack.first().expect("ambient recorder exists").reset();
        });
    }
}

/// Records `delta` onto counter `name`. Prefer the [`counter!`] macro.
#[inline(always)]
pub fn record_counter(name: &'static str, delta: u64) {
    #[cfg(feature = "enabled")]
    active::with_current(|r| r.counter_add(name, delta));
    #[cfg(not(feature = "enabled"))]
    let _ = (name, delta);
}

/// Sets gauge `name` to `value`. Prefer the [`gauge!`] macro.
#[inline(always)]
pub fn record_gauge(name: &'static str, value: f64) {
    #[cfg(feature = "enabled")]
    active::with_current(|r| r.gauge_set(name, value));
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// Records `value` into histogram `name`. Prefer the [`histogram!`] macro.
#[inline(always)]
pub fn record_histogram(name: &'static str, value: u64) {
    #[cfg(feature = "enabled")]
    active::with_current(|r| r.histogram_record(name, value));
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// Records `n` identical samples of `value` into histogram `name` in one
/// recorder round trip — bit-identical aggregates to `n` calls of
/// [`record_histogram`], and a no-op for `n == 0` (the histogram entry is
/// not created). Prefer the [`histogram_n!`] macro. This is the flush half
/// of the "tally locally, record once" pattern the replay engine uses for
/// per-access bounded-domain values like MSHR occupancy.
#[inline(always)]
pub fn record_histogram_n(name: &'static str, value: u64, n: u64) {
    #[cfg(feature = "enabled")]
    active::with_current(|r| r.histogram_record_n(name, value, n));
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value, n);
}

/// Adds one `elapsed_ns`-long span to timer `name`. Prefer [`timer!`].
#[inline(always)]
pub fn record_timer_ns(name: &'static str, elapsed_ns: u64) {
    #[cfg(feature = "enabled")]
    active::with_current(|r| r.timer_add_ns(name, elapsed_ns));
    #[cfg(not(feature = "enabled"))]
    let _ = (name, elapsed_ns);
}

/// A scoped wall-clock timer: measures from construction to drop and records
/// the span onto its metric. Obtain via [`timer!`]; guards nest freely (each
/// measures its own span).
#[must_use = "a timer records its span when dropped; binding it to `_` drops immediately"]
pub struct ScopedTimer {
    #[cfg(feature = "enabled")]
    name: &'static str,
    #[cfg(feature = "enabled")]
    start: std::time::Instant,
}

impl ScopedTimer {
    /// Starts a timer for `name`.
    #[inline(always)]
    pub fn start(name: &'static str) -> Self {
        #[cfg(not(feature = "enabled"))]
        let _ = name;
        ScopedTimer {
            #[cfg(feature = "enabled")]
            name,
            #[cfg(feature = "enabled")]
            start: std::time::Instant::now(),
        }
    }
}

impl Drop for ScopedTimer {
    #[inline(always)]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        record_timer_ns(self.name, self.start.elapsed().as_nanos() as u64);
    }
}

/// Runs `f` with a fresh recorder installed for the current thread and
/// returns `f`'s result together with the metrics it recorded.
///
/// With telemetry disabled the closure still runs; the snapshot is empty.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    #[cfg(feature = "enabled")]
    {
        active::capture(f)
    }
    #[cfg(not(feature = "enabled"))]
    {
        (f(), Snapshot::default())
    }
}

/// Runs `f` with the caller-owned `rec` as the current thread's recorder,
/// so everything `f` records lands in `rec`. Unlike [`capture`] this builds
/// no [`Snapshot`]: a recorder that outlives many short scopes (one per
/// served request, say) accumulates across them and is read only when
/// someone asks.
///
/// With telemetry disabled the closure runs and `rec` stays empty.
pub fn record_into<T>(rec: &MemoryRecorder, f: impl FnOnce() -> T) -> T {
    #[cfg(feature = "enabled")]
    {
        active::record_into(rec, f)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = rec;
        f()
    }
}

/// Snapshot of the thread's ambient (bottom-of-stack) recorder: everything
/// recorded on this thread outside any [`capture`] scope.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        active::snapshot_ambient()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Snapshot::default()
    }
}

/// Clears the thread's ambient recorder.
pub fn reset() {
    #[cfg(feature = "enabled")]
    active::reset_ambient();
}

/// Increments a named counter: `counter!("snn.spikes", n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::record_counter($name, $delta as u64)
    };
    ($name:expr) => {
        $crate::record_counter($name, 1)
    };
}

/// Sets a named gauge: `gauge!("pf.table_occupancy", v)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::record_gauge($name, $value as f64)
    };
}

/// Records a value into a named log-bucketed histogram:
/// `histogram!("sim.dram.queue_depth", depth)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::record_histogram($name, $value as u64)
    };
}

/// Records `n` identical histogram samples in one round trip:
/// `histogram_n!("sim.mshr.occupancy", depth, count)`. Equivalent to `n`
/// [`histogram!`] calls; a no-op when `n` is zero.
#[macro_export]
macro_rules! histogram_n {
    ($name:expr, $value:expr, $n:expr) => {
        $crate::record_histogram_n($name, $value as u64, $n as u64)
    };
}

/// Starts a scoped wall-clock timer; the span records when the guard drops:
/// `let _t = timer!("harness.replay");`
#[macro_export]
macro_rules! timer {
    ($name:expr) => {
        $crate::ScopedTimer::start($name)
    };
}

/// Times an expression: `let x = time!("phase.train", { train() });`
#[macro_export]
macro_rules! time {
    ($name:expr, $e:expr) => {{
        let __timer = $crate::ScopedTimer::start($name);
        let __out = $e;
        drop(__timer);
        __out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_build_records_nothing() {
        if enabled() {
            return; // covered by the enabled-feature tests instead
        }
        let ((), snap) = capture(|| {
            counter!("x", 5);
            histogram!("h", 3);
            gauge!("g", 1.5);
            let _t = timer!("t");
        });
        assert!(snap.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn capture_scopes_metrics() {
        let ((), outer) = capture(|| {
            counter!("a", 1);
            let ((), inner) = capture(|| counter!("a", 10));
            assert_eq!(inner.counter("a"), 10);
            counter!("a", 2);
        });
        assert_eq!(outer.counter("a"), 3, "inner capture must not leak out");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn capture_pops_recorder_on_panic() {
        let before = std::panic::catch_unwind(|| {
            let ((), _snap) = capture(|| {
                counter!("a", 1);
                panic!("boom");
            });
        });
        assert!(before.is_err());
        // The ambient recorder is current again: this must not record into
        // the panicked capture's recorder.
        let ((), snap) = capture(|| counter!("b", 7));
        assert_eq!(snap.counter("b"), 7);
        assert_eq!(snap.counter("a"), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn record_into_accumulates_in_the_callers_recorder() {
        let rec = MemoryRecorder::new();
        let ((), outer) = capture(|| {
            for _ in 0..2 {
                let v = record_into(&rec, || {
                    counter!("scoped", 3);
                    7
                });
                assert_eq!(v, 7);
            }
            counter!("outside", 1);
        });
        assert_eq!(rec.snapshot().counter("scoped"), 6);
        assert_eq!(rec.snapshot().counter("outside"), 0);
        assert_eq!(outer.counter("scoped"), 0, "scoped events stay out");
        assert_eq!(outer.counter("outside"), 1);

        // A panic inside the scope still hands the state back.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            record_into(&rec, || {
                counter!("scoped", 1);
                panic!("boom");
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(rec.snapshot().counter("scoped"), 7);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn timers_nest_and_record() {
        let ((), snap) = capture(|| {
            let _outer = timer!("outer");
            for _ in 0..3 {
                let _inner = timer!("inner");
                std::hint::black_box(());
            }
        });
        assert_eq!(snap.timer("inner").map(|t| t.count), Some(3));
        assert_eq!(snap.timer("outer").map(|t| t.count), Some(1));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn ambient_recorder_accumulates_and_resets() {
        reset();
        counter!("ambient.events", 4);
        assert_eq!(snapshot().counter("ambient.events"), 4);
        reset();
        assert_eq!(snapshot().counter("ambient.events"), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn time_macro_returns_value() {
        let ((), snap) = capture(|| {
            let v = time!("span", 21 * 2);
            assert_eq!(v, 42);
        });
        assert_eq!(snap.timer("span").map(|t| t.count), Some(1));
    }
}
