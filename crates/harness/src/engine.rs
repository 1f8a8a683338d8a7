//! The parallel sweep engine: every experiment decomposes into
//! (prefetcher × workload) cells scheduled on a bounded worker pool, with
//! traces and no-prefetch baselines memoized process-wide.
//!
//! Two properties make the engine safe to use everywhere:
//!
//! * **Bit-determinism.** A cell's result depends only on its own
//!   `(seed, workload, prefetcher)` derivation — cells share nothing mutable
//!   but the [`TraceStore`], whose entries are immutable once initialized —
//!   so results are identical at `--threads 1` and `--threads N`, and the
//!   engine reassembles them in Table 5 × line-up order regardless of which
//!   worker finished first.
//! * **Generate-once memoization.** [`TraceStore`] keys each trace by
//!   `(workload, loads, seed)` and generates it exactly once per process
//!   (concurrent requesters block on the same `OnceLock`), sharing it as an
//!   `Arc<Trace>` across all cells and experiments; no-prefetch baselines
//!   are memoized the same way, additionally keyed by the simulator
//!   configuration they were measured under.
//!
//! The pool size defaults to the machine's available parallelism and is
//! configurable with `repro --threads N` (see [`set_threads`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pathfinder_sim::{Simulator, Trace};
use pathfinder_telemetry as telemetry;
use pathfinder_telemetry::Snapshot;
use pathfinder_traces::Workload;

use crate::metrics::Evaluation;
use crate::runner::{PrefetcherKind, Scenario};

/// Configured pool size; 0 means "unset, use available parallelism".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker-pool size used by [`parallel_map`] and [`run_grid`]
/// (the `repro --threads N` flag). Passing 0 restores the default.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The worker-pool size currently in effect: the [`set_threads`] override,
/// or the machine's available parallelism.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `items` on the configured worker pool, preserving input
/// order in the output.
pub fn parallel_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_threads(threads(), items, f)
}

/// Like [`parallel_map`] with an explicit pool size (used by the
/// determinism tests to pin `--threads 1` vs `--threads N`).
///
/// Workers pull the next unclaimed item from a shared cursor, so load
/// balances dynamically: a worker that drew a cheap cell immediately steals
/// the next one instead of idling behind a slow sibling.
pub fn parallel_map_threads<I, T, F>(pool: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let workers = pool.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                s.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect::<Vec<_>>()
    });

    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|v| v.expect("every cell index claimed exactly once"))
        .collect()
}

/// A trace (or baseline) memoization key: the complete derivation of the
/// generated data.
type TraceKey = (Workload, usize, u64);

/// A once-per-key memo table: the map lock is held only to find or insert a
/// slot; generation itself happens inside the slot's [`OnceLock`], so
/// concurrent requesters of one key block on the single in-flight
/// computation without serializing unrelated keys.
type MemoMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// One memoized trace plus the recency bookkeeping the LRU bound needs.
#[derive(Debug, Default)]
struct TraceSlot {
    slot: Arc<OnceLock<Arc<Trace>>>,
    last_used: u64,
}

/// Default bound on distinct memoized traces. Batch experiments touch at
/// most |Table 5| × a few `(loads, seed)` scales and never approach it; the
/// bound exists for long-running serves, where an unbounded memo over
/// client-chosen derivations is a slow leak.
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// Process-wide memoization of generated traces and their no-prefetch
/// baselines.
///
/// Each entry is generated exactly once (concurrent requesters block on the
/// in-flight generation) and then shared as an `Arc<Trace>` by every cell
/// and experiment in the process. Baselines carry an additional simulator
/// configuration fingerprint in their key because the same trace replays to
/// different miss counts under different cache hierarchies.
///
/// The trace map is **bounded**: beyond [`DEFAULT_TRACE_CAPACITY`] (or the
/// [`TraceStore::with_capacity`] override), the least-recently-used
/// *initialized* entries are dropped — in-flight generations are never
/// evicted out from under their waiters, and outstanding `Arc<Trace>`
/// references keep evicted traces alive until their holders finish. A
/// re-request of an evicted key regenerates deterministically, so eviction
/// affects memory and time, never results. Lookups and evictions feed the
/// `harness.trace_store.{hits,evictions}` telemetry counters. Baseline
/// entries are bare `u64`s and stay unbounded.
#[derive(Debug)]
pub struct TraceStore {
    traces: Mutex<HashMap<TraceKey, TraceSlot>>,
    baselines: MemoMap<(TraceKey, String), u64>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

impl TraceStore {
    /// Creates an empty store with the default trace capacity (tests;
    /// production code shares [`TraceStore::global`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates an empty store bounded to `capacity` memoized traces
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceStore {
            traces: Mutex::new(HashMap::new()),
            baselines: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide store every experiment shares.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(TraceStore::new)
    }

    /// The workload's trace at the scenario's `(loads, seed)` scale,
    /// generated on first request and shared afterwards (until evicted by
    /// the LRU bound).
    pub fn trace(&self, scenario: &Scenario, workload: Workload) -> Arc<Trace> {
        let key = (workload, scenario.loads, scenario.seed);
        let slot = {
            let mut map = self.traces.lock().expect("trace map lock");
            let tick = self.tick.fetch_add(1, Ordering::Relaxed);
            let slot = match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter!("harness.trace_store.hits", 1);
                    e.get().slot.clone()
                }
                std::collections::hash_map::Entry::Vacant(e) => e
                    .insert(TraceSlot {
                        slot: Arc::default(),
                        last_used: tick,
                    })
                    .slot
                    .clone(),
            };
            if map.len() > self.capacity {
                // Oldest initialized entries first; uninitialized slots are
                // in-flight generations with waiters and must stay. (The
                // just-inserted slot is uninitialized, so it survives too.)
                let mut victims: Vec<(u64, TraceKey)> = map
                    .iter()
                    .filter(|(_, v)| v.slot.get().is_some())
                    .map(|(k, v)| (v.last_used, *k))
                    .collect();
                victims.sort_unstable_by_key(|&(t, _)| t);
                for (_, victim) in victims {
                    if map.len() <= self.capacity {
                        break;
                    }
                    map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter!("harness.trace_store.evictions", 1);
                }
            }
            slot
        };
        slot.get_or_init(|| {
            let _span = telemetry::timer!("harness.trace_gen");
            Arc::new(workload.generate(scenario.loads, scenario.seed))
        })
        .clone()
    }

    /// LLC load misses of a no-prefetch replay of the workload's trace (the
    /// coverage denominator), measured once per (trace key, sim config).
    pub fn baseline_misses(&self, scenario: &Scenario, workload: Workload) -> u64 {
        let key = (
            (workload, scenario.loads, scenario.seed),
            format!("{:?}", scenario.sim),
        );
        let slot = self
            .baselines
            .lock()
            .expect("baseline map lock")
            .entry(key)
            .or_default()
            .clone();
        *slot.get_or_init(|| {
            let trace = self.trace(scenario, workload);
            let _span = telemetry::timer!("harness.baseline");
            Simulator::new(scenario.sim).run(&trace, &[]).llc_misses
        })
    }

    /// Number of distinct traces currently memoized (test observability).
    pub fn traces_cached(&self) -> usize {
        self.traces.lock().expect("trace map lock").len()
    }

    /// Lifetime count of trace lookups that found an existing entry.
    pub fn trace_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of traces dropped by the LRU bound.
    pub fn trace_evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Results of one grid sweep: `cells[workload_index][kind_index]`, i.e.
/// workload-major in Table 5 order, each row in line-up order.
pub type Grid = Vec<Vec<(Evaluation, Snapshot)>>;

/// Evaluates every (prefetcher × workload) cell on the configured worker
/// pool and returns the grid in deterministic workload-major order.
pub fn run_grid(scenario: &Scenario, kinds: &[PrefetcherKind], workloads: &[Workload]) -> Grid {
    run_grid_threads(threads(), scenario, kinds, workloads)
}

/// Like [`run_grid`] with an explicit pool size.
pub fn run_grid_threads(
    pool: usize,
    scenario: &Scenario,
    kinds: &[PrefetcherKind],
    workloads: &[Workload],
) -> Grid {
    // Kind-major scheduling order: the first `pool` cells touch distinct
    // workloads, so trace generation itself saturates the pool instead of
    // serializing behind one workload's OnceLock.
    let cells: Vec<(usize, usize)> = (0..kinds.len())
        .flat_map(|ki| (0..workloads.len()).map(move |wi| (wi, ki)))
        .collect();
    let store = TraceStore::global();
    let results = parallel_map_threads(pool, &cells, |&(wi, ki)| {
        let w = workloads[wi];
        let trace = store.trace(scenario, w);
        let baseline = store.baseline_misses(scenario, w);
        scenario.evaluate_with_telemetry(&kinds[ki], w, &trace, baseline)
    });

    let mut grid: Vec<Vec<Option<(Evaluation, Snapshot)>>> = (0..workloads.len())
        .map(|_| (0..kinds.len()).map(|_| None).collect())
        .collect();
    for (&(wi, ki), cell) in cells.iter().zip(results) {
        grid[wi][ki] = Some(cell);
    }
    grid.into_iter()
        .map(|row| {
            row.into_iter()
                .map(|c| c.expect("every grid cell evaluated"))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_at_any_pool_size() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for pool in [1, 2, 5, 16, 64] {
            assert_eq!(
                parallel_map_threads(pool, &items, |&i| i * 3),
                expect,
                "pool={pool}"
            );
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map_threads(4, &empty, |&i: &usize| i).is_empty());
    }

    #[test]
    fn trace_store_generates_once_and_shares() {
        let store = TraceStore::new();
        let sc = Scenario::with_loads(1500);
        let a = store.trace(&sc, Workload::Sphinx);
        let b = store.trace(&sc, Workload::Sphinx);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one Arc<Trace>");
        assert_eq!(store.traces_cached(), 1);
        // Different derivation -> different entry.
        let other = Scenario {
            seed: sc.seed + 1,
            ..sc
        };
        let c = store.trace(&other, Workload::Sphinx);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.traces_cached(), 2);
        // Baselines agree with a direct no-prefetch replay.
        let direct = Simulator::new(sc.sim).run(&a, &[]).llc_misses;
        assert_eq!(store.baseline_misses(&sc, Workload::Sphinx), direct);
        assert_eq!(store.baseline_misses(&sc, Workload::Sphinx), direct);
    }

    #[test]
    fn trace_store_is_shared_across_threads() {
        let store = TraceStore::new();
        let sc = Scenario::with_loads(1200);
        let traces = parallel_map_threads(4, &[(); 8], |_| store.trace(&sc, Workload::Cc5));
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
        assert_eq!(store.traces_cached(), 1);
    }

    #[test]
    fn trace_store_evicts_least_recently_used_beyond_capacity() {
        let store = TraceStore::with_capacity(2);
        let sc = Scenario::with_loads(1000);
        let a = store.trace(&sc, Workload::Cc5);
        let _b = store.trace(&sc, Workload::Bfs10);
        assert_eq!(store.trace_hits(), 0);
        assert_eq!(store.trace_evictions(), 0);

        // Touch Cc5 so Bfs10 becomes the LRU victim when Sphinx arrives.
        let a2 = store.trace(&sc, Workload::Cc5);
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(store.trace_hits(), 1);
        let _c = store.trace(&sc, Workload::Sphinx);
        assert_eq!(store.trace_evictions(), 1);
        assert_eq!(store.traces_cached(), 2);

        // Cc5 survived (hit); the evicted Bfs10 regenerates on re-request
        // as a fresh allocation with identical contents.
        let a3 = store.trace(&sc, Workload::Cc5);
        assert!(Arc::ptr_eq(&a, &a3));
        let before = store.trace_evictions();
        let b2 = store.trace(&sc, Workload::Bfs10);
        assert_eq!(*b2, Workload::Bfs10.generate(sc.loads, sc.seed));
        assert!(
            store.trace_evictions() > before,
            "refill evicts again at capacity"
        );
    }

    #[test]
    fn grid_is_workload_major_in_lineup_order() {
        let sc = Scenario::with_loads(1500);
        let kinds = [PrefetcherKind::NoPrefetch, PrefetcherKind::NextLine];
        let ws = [Workload::Sphinx, Workload::Cc5];
        let grid = run_grid_threads(3, &sc, &kinds, &ws);
        assert_eq!(grid.len(), 2);
        for (wi, row) in grid.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (ki, (eval, _)) in row.iter().enumerate() {
                assert_eq!(eval.workload, ws[wi]);
                assert_eq!(eval.prefetcher, kinds[ki].label());
            }
        }
    }
}
