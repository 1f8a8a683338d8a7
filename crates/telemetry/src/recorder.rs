//! The [`Recorder`] sink trait and its two built-in implementations.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::snapshot::{HistogramSnapshot, Snapshot, TimerSnapshot};

/// A sink for telemetry events.
///
/// Metric names are `&'static str` so hot paths never allocate; recorders
/// use interior mutability because instrumented code only holds a shared
/// reference to the current recorder.
pub trait Recorder {
    /// Adds `delta` to counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64);
    /// Sets gauge `name` to `value` (last write wins).
    fn gauge_set(&self, name: &'static str, value: f64);
    /// Records `value` into histogram `name`.
    fn histogram_record(&self, name: &'static str, value: u64);
    /// Records `n` identical samples of `value` into histogram `name`,
    /// equivalent to `n` calls of [`Recorder::histogram_record`] (and a
    /// no-op when `n` is zero — the histogram entry is not even created).
    /// The default implementation loops; aggregating recorders should
    /// override it with a constant-time bucket update.
    fn histogram_record_n(&self, name: &'static str, value: u64, n: u64) {
        for _ in 0..n {
            self.histogram_record(name, value);
        }
    }
    /// Adds one span of `elapsed_ns` to timer `name`.
    fn timer_add_ns(&self, name: &'static str, elapsed_ns: u64);
    /// Returns the current aggregate state.
    fn snapshot(&self) -> Snapshot;
    /// Clears all recorded state.
    fn reset(&self);
}

/// Discards everything. Useful as an explicit "off" sink in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: f64) {}
    fn histogram_record(&self, _name: &'static str, _value: u64) {}
    fn histogram_record_n(&self, _name: &'static str, _value: u64, _n: u64) {}
    fn timer_add_ns(&self, _name: &'static str, _elapsed_ns: u64) {}
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
    fn reset(&self) {}
}

#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    timers: BTreeMap<&'static str, TimerSnapshot>,
}

/// In-memory single-threaded aggregation, the default sink. `RefCell`
/// suffices because a recorder is only ever current on one thread.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    store: RefCell<Store>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other`'s aggregates into this recorder: counters and timers
    /// add, histograms merge, and `other`'s gauges overwrite these.
    pub fn merge(&self, other: &MemoryRecorder) {
        let other = other.store.borrow();
        let mut store = self.store.borrow_mut();
        for (&name, &v) in &other.counters {
            *store.counters.entry(name).or_insert(0) += v;
        }
        for (&name, &v) in &other.gauges {
            store.gauges.insert(name, v);
        }
        for (&name, h) in &other.histograms {
            store.histograms.entry(name).or_default().merge(h);
        }
        for (&name, t) in &other.timers {
            let mine = store.timers.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns = mine.total_ns.saturating_add(t.total_ns);
        }
    }

    /// Exchanges the recorded state of two recorders.
    #[cfg(feature = "enabled")]
    pub(crate) fn swap(&self, other: &MemoryRecorder) {
        self.store.swap(&other.store);
    }
}

impl Recorder for MemoryRecorder {
    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.store.borrow_mut().counters.entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.store.borrow_mut().gauges.insert(name, value);
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.store
            .borrow_mut()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    fn histogram_record_n(&self, name: &'static str, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.store
            .borrow_mut()
            .histograms
            .entry(name)
            .or_default()
            .record_n(value, n);
    }

    fn timer_add_ns(&self, name: &'static str, elapsed_ns: u64) {
        let mut store = self.store.borrow_mut();
        let t = store.timers.entry(name).or_default();
        t.count += 1;
        t.total_ns = t.total_ns.saturating_add(elapsed_ns);
    }

    fn snapshot(&self) -> Snapshot {
        let store = self.store.borrow();
        Snapshot {
            counters: store
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: store
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: store
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), HistogramSnapshot::from_histogram(h)))
                .collect(),
            timers: store
                .timers
                .iter()
                .map(|(&k, t)| (k.to_string(), t.clone()))
                .collect(),
        }
    }

    fn reset(&self) {
        *self.store.borrow_mut() = Store::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_aggregates() {
        let r = MemoryRecorder::new();
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        r.gauge_set("g", 1.0);
        r.gauge_set("g", 2.5);
        r.histogram_record("h", 10);
        r.timer_add_ns("t", 100);
        r.timer_add_ns("t", 50);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
        let t = snap.timer("t").unwrap();
        assert_eq!((t.count, t.total_ns), (2, 150));
        r.reset();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn merge_adds_counters_timers_and_histograms() {
        let a = MemoryRecorder::new();
        a.counter_add("c", 2);
        a.histogram_record("h", 4);
        a.timer_add_ns("t", 10);
        let b = MemoryRecorder::new();
        b.counter_add("c", 3);
        b.counter_add("only_b", 1);
        b.histogram_record("h", 8);
        b.timer_add_ns("t", 5);
        b.gauge_set("g", 2.0);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counter("only_b"), 1);
        assert_eq!(snap.histogram("h").map(|h| (h.count, h.sum)), Some((2, 12)));
        let t = snap.timer("t").unwrap();
        assert_eq!((t.count, t.total_ns), (2, 15));
        assert_eq!(snap.gauge("g"), Some(2.0));
    }

    #[test]
    fn noop_recorder_discards() {
        let r = NoopRecorder;
        r.counter_add("c", 5);
        r.histogram_record("h", 1);
        assert!(r.snapshot().is_empty());
    }
}
