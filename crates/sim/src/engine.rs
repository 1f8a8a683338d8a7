//! Two-phase replay engine: a trace plus a precomputed prefetch schedule in,
//! a [`SimReport`] out.
//!
//! This mirrors the ML Prefetching Competition's ChampSim fork (§4.1 of the
//! paper): prefetchers run offline over the load trace to produce a prefetch
//! file; the timed simulation then replays the trace, injecting each prefetch
//! into the LLC when its trigger access executes.

use pathfinder_telemetry as telemetry;

use crate::access::{MemoryAccess, PrefetchRequest, Trace};
use crate::addr::Block;
use crate::cache::{Cache, CacheLevel, LookupResult};
use crate::config::SimConfig;
use crate::core::RobModel;
use crate::dram::DramModel;
use crate::mshr::MshrTracker;
use crate::stats::{DetailedStats, SimReport};

/// The trace-driven simulator.
///
/// # Examples
///
/// ```
/// use pathfinder_sim::{MemoryAccess, SimConfig, Simulator, Trace};
///
/// let trace: Trace = (0..100)
///     .map(|i| MemoryAccess::new(i * 4, 0x400, i * 64))
///     .collect();
/// let report = Simulator::new(SimConfig::default()).run(&trace, &[]);
/// assert!(report.ipc() > 0.0);
/// assert_eq!(report.loads, 100);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    dram: DramModel,
    rob: RobModel,
    /// Completion cycles of outstanding demand misses, bounded by
    /// `core.mshrs` at construction (no steady-state allocation).
    outstanding: MshrTracker,
    report: SimReport,
    /// Per-depth tally for the `sim.mshr.occupancy` histogram: slot `d`
    /// counts accesses that saw `d` outstanding misses. The tracker is
    /// bounded by its capacity, so `capacity + 1` slots cover every
    /// observable depth; the end-of-replay flush folds the tally into the
    /// recorder in one pass. Only written when telemetry is compiled in.
    occupancy_counts: Box<[u64]>,
    /// Accesses that stalled on a full MSHR file. `SimReport` has no field
    /// for this, so the engine tallies it here for the telemetry flush.
    mshr_stalls: u64,
    /// Measured-window prefetches filtered by LLC residency (ditto).
    prefetches_filtered: u64,
    /// Counter totals already published to telemetry, so the flush emits
    /// deltas: (mshr_stalls, filtered, useful, late, issued).
    flushed_counts: [u64; 5],
}

impl Simulator {
    /// Creates a simulator with cold caches.
    pub fn new(config: SimConfig) -> Self {
        Simulator {
            config,
            l1d: Cache::labeled(config.l1d, CacheLevel::L1d),
            l2: Cache::labeled(config.l2, CacheLevel::L2),
            llc: Cache::labeled(config.llc, CacheLevel::Llc),
            dram: DramModel::new(config.dram),
            rob: RobModel::new(config.core),
            outstanding: MshrTracker::new(config.core.mshrs),
            report: SimReport::default(),
            occupancy_counts: vec![0; config.core.mshrs.max(1) + 1].into_boxed_slice(),
            mshr_stalls: 0,
            prefetches_filtered: 0,
            flushed_counts: [0; 5],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` with the given prefetch schedule and returns the
    /// report. Prefetches should be sorted by `trigger_instr_id` (schedules
    /// produced by walking the trace in order always are); a misordered
    /// schedule is detected in every build profile, logged, and sorted
    /// before replay rather than silently skipping requests.
    ///
    /// A warm-up fraction of the trace can be replayed first via
    /// [`Simulator::run_with_warmup`].
    pub fn run(mut self, trace: &Trace, prefetches: &[PrefetchRequest]) -> SimReport {
        self.run_inner(trace, prefetches, 0);
        self.report
    }

    /// Replays `trace`, treating the first `warmup_loads` loads as cache
    /// warm-up: they update cache/DRAM state but are excluded from the
    /// reported counters and cycle count. A `warmup_loads` of `trace.len()`
    /// or more leaves an empty measured window (all counters and the cycle
    /// count report zero).
    pub fn run_with_warmup(
        mut self,
        trace: &Trace,
        prefetches: &[PrefetchRequest],
        warmup_loads: usize,
    ) -> SimReport {
        self.run_inner(trace, prefetches, warmup_loads);
        self.report
    }

    /// Replays and also returns per-component statistics.
    pub fn run_detailed(
        self,
        trace: &Trace,
        prefetches: &[PrefetchRequest],
    ) -> (SimReport, DetailedStats) {
        self.run_detailed_with_warmup(trace, prefetches, 0)
    }

    /// Like [`Simulator::run_detailed`] with a warm-up window (see
    /// [`Simulator::run_with_warmup`]). The per-component statistics cover
    /// the whole replay including warm-up — they describe component state,
    /// not the measured window.
    pub fn run_detailed_with_warmup(
        mut self,
        trace: &Trace,
        prefetches: &[PrefetchRequest],
        warmup_loads: usize,
    ) -> (SimReport, DetailedStats) {
        self.run_inner(trace, prefetches, warmup_loads);
        let detail = DetailedStats {
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            llc: *self.llc.stats(),
            dram: *self.dram.stats(),
        };
        (self.report, detail)
    }

    fn run_inner(&mut self, trace: &Trace, prefetches: &[PrefetchRequest], warmup_loads: usize) {
        // The replay cursor silently skips prefetches whose trigger has
        // already passed, so a misordered schedule must never reach it.
        // Validate in every build profile (the check is O(n), the replay is
        // not) and recover by sorting a copy rather than dropping requests.
        let sorted_copy: Vec<PrefetchRequest>;
        let prefetches = if prefetches
            .windows(2)
            .all(|w| w[0].trigger_instr_id <= w[1].trigger_instr_id)
        {
            prefetches
        } else {
            telemetry::counter!("sim.schedule.unsorted", 1);
            eprintln!(
                "warning: prefetch schedule of {} requests is not sorted by \
                 trigger_instr_id; sorting before replay (schedules built by \
                 walking the trace in order are always sorted)",
                prefetches.len()
            );
            sorted_copy = {
                let mut v = prefetches.to_vec();
                v.sort_by_key(|p| p.trigger_instr_id);
                v
            };
            &sorted_copy
        };
        // A warmup window longer than the trace means "everything is
        // warm-up": clamp so the measured window is empty instead of
        // silently reporting full-run cycles for zero measured loads.
        let warmup_loads = warmup_loads.min(trace.len());
        let _replay_span = telemetry::timer!("sim.replay");
        let mut pf_cursor = 0usize;
        let mut measured_start_cycle = 0u64;
        let mut measured_start_instr = 0u64;
        let mut prev_completion = 0u64;

        for (i, access) in trace.iter().enumerate() {
            let measuring = i >= warmup_loads;
            let mut issue = self.issue_with_hazards(access.instr_id);
            // Address dependence: a pointer-chasing load cannot compute its
            // address until the previous load's data arrives.
            if access.depends_on_prev {
                issue = issue.max(prev_completion);
            }
            if i == warmup_loads {
                measured_start_cycle = issue;
                measured_start_instr = access.instr_id;
            }
            let latency = self.demand_latency(access, issue, measuring);
            prev_completion = issue + latency;
            self.rob.complete_load(access.instr_id, issue, latency);

            // Issue all prefetches triggered by this access, at its issue
            // time: the prefetcher logically observes the access and reacts.
            while pf_cursor < prefetches.len()
                && prefetches[pf_cursor].trigger_instr_id <= access.instr_id
            {
                let pf = prefetches[pf_cursor];
                pf_cursor += 1;
                if measuring {
                    self.report.prefetches_requested += 1;
                }
                self.issue_prefetch(pf.block, issue, measuring);
            }
        }

        let total_instr = trace.total_instructions();
        let end_cycle = self.rob.finish(total_instr);
        if warmup_loads == trace.len() {
            // The entire trace was warm-up: no load set the measured-window
            // start, so report an empty window, not the full run.
            measured_start_instr = total_instr;
            measured_start_cycle = end_cycle;
        }
        self.report.instructions = total_instr.saturating_sub(measured_start_instr);
        self.report.cycles = end_cycle.saturating_sub(measured_start_cycle);
        self.report.prefetches_useless = self.llc.stats().useless_evictions;

        // Hot-loop telemetry is deferred: the loop above only tallied into
        // plain fields and bounded count arrays; publish everything in one
        // batch now. Counter totals and histogram aggregates are
        // bit-identical to per-access recording (the canonical-report test
        // pins this against the reference engine, which still records per
        // access).
        self.l1d.flush_telemetry();
        self.l2.flush_telemetry();
        self.llc.flush_telemetry();
        self.dram.flush_telemetry();
        self.flush_engine_telemetry();
    }

    /// Publishes the engine-level telemetry accumulated during the replay:
    /// the MSHR-occupancy distribution and deltas of the stall and prefetch
    /// counters. Counters that did not move emit nothing, preserving the
    /// "absent, not zero" snapshot semantics (e.g. `sim.prefetch.filtered`
    /// stays absent when the whole trace was warm-up).
    fn flush_engine_telemetry(&mut self) {
        if !telemetry::enabled() {
            return;
        }
        for depth in 0..self.occupancy_counts.len() {
            let n = self.occupancy_counts[depth];
            telemetry::histogram_n!("sim.mshr.occupancy", depth as u64, n);
            self.occupancy_counts[depth] = 0;
        }
        let totals = [
            ("sim.mshr.stalls", self.mshr_stalls),
            ("sim.prefetch.filtered", self.prefetches_filtered),
            ("sim.prefetch.useful", self.report.prefetches_useful),
            ("sim.prefetch.late", self.report.prefetches_late),
            ("sim.prefetch.issued", self.report.prefetches_issued),
        ];
        for ((name, total), flushed) in totals.into_iter().zip(self.flushed_counts.iter_mut()) {
            let delta = total - *flushed;
            if delta > 0 {
                telemetry::counter!(name, delta);
            }
            *flushed = total;
        }
    }

    /// Dispatch cycle after ROB and MSHR structural hazards.
    fn issue_with_hazards(&mut self, instr_id: u64) -> u64 {
        let mut issue = self.rob.issue_cycle(instr_id);
        // MSHR hazard: too many outstanding misses delays further dispatch.
        self.outstanding.drain_completed(issue);
        if telemetry::enabled() {
            // Tally locally; the end-of-replay flush folds the whole
            // distribution into `sim.mshr.occupancy` at once.
            self.occupancy_counts[self.outstanding.len()] += 1;
        }
        if self.outstanding.len() >= self.config.core.mshrs {
            self.mshr_stalls += 1;
            if let Some(done) = self.outstanding.pop_earliest() {
                issue = issue.max(done);
            }
            // Drain anything else that finished by the new issue time.
            self.outstanding.drain_completed(issue);
        }
        issue
    }

    /// Walks the hierarchy for a demand load, returns its total latency.
    fn demand_latency(&mut self, access: &MemoryAccess, issue: u64, measuring: bool) -> u64 {
        let block = access.block();
        if measuring {
            self.report.loads += 1;
        }

        // The per-level hit/miss counters (`sim.<level>.{hits,misses}`) are
        // tallied by the labeled caches themselves in `demand_access` and
        // published by their end-of-replay telemetry flush.
        if let LookupResult::Hit { .. } = self.l1d.demand_access(block) {
            if measuring {
                self.report.l1d_hits += 1;
            }
            return self.config.l1_hit_latency();
        }
        if let LookupResult::Hit { .. } = self.l2.demand_access(block) {
            if measuring {
                self.report.l2_hits += 1;
            }
            // Every fill in the demand walk targets a block that just
            // missed at that level, so the absent fast path applies (it is
            // bit-identical to `fill`; the equivalence suite pins this).
            self.l1d.fill_absent(block, false, 0);
            return self.config.l2_hit_latency();
        }

        if measuring {
            self.report.llc_load_accesses += 1;
        }
        match self.llc.demand_access(block) {
            LookupResult::Hit {
                first_demand_to_prefetch,
                fill_ready_cycle,
            } => {
                if measuring {
                    self.report.llc_hits += 1;
                    if first_demand_to_prefetch {
                        // `sim.prefetch.{useful,late}` flush from these
                        // report fields at the end of the replay.
                        self.report.prefetches_useful += 1;
                        if fill_ready_cycle > issue {
                            self.report.prefetches_late += 1;
                        }
                    }
                }
                self.l2.fill_absent(block, false, 0);
                self.l1d.fill_absent(block, false, 0);
                // Late prefetch: the demand merges into the in-flight fill
                // and completes when the data arrives (never faster than a
                // plain LLC hit).
                let wait = fill_ready_cycle.saturating_sub(issue);
                self.config.llc_hit_latency().max(wait)
            }
            LookupResult::Miss => {
                if measuring {
                    self.report.llc_misses += 1;
                }
                let dram_submit = issue + self.config.llc_hit_latency();
                let data_back = self.dram.service(block, dram_submit);
                self.outstanding.push(data_back);
                self.llc.fill_absent(block, false, 0);
                self.l2.fill_absent(block, false, 0);
                self.l1d.fill_absent(block, false, 0);
                data_back - issue
            }
        }
    }

    /// Issues one prefetch into the LLC (if not already resident). The DRAM
    /// side may shed the request under demand load.
    fn issue_prefetch(&mut self, block: Block, now: u64, measuring: bool) {
        if self.llc.probe(block) {
            // Gated like `sim.prefetch.issued`: warmup-phase prefetch
            // traffic must not skew canonical reports.
            if measuring {
                self.prefetches_filtered += 1;
            }
            return; // already resident (or already being prefetched)
        }
        let Some(data_back) = self
            .dram
            .service_prefetch(block, now + self.config.llc_hit_latency())
        else {
            return; // queue busy with demands: prefetch dropped
        };
        if measuring {
            // `sim.prefetch.issued` flushes from this field at the end of
            // the replay, staying in lockstep with the report — the
            // harness's run-report integration test asserts equality.
            self.report.prefetches_issued += 1;
        }
        // The probe above proved the block absent; nothing between the
        // probe and this fill touches the LLC.
        self.llc.fill_absent(block, true, data_back);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_trace(n: u64, stride: u64) -> Trace {
        (0..n)
            .map(|i| MemoryAccess::new(i * 4, 0x400, 0x10_0000 + i * stride))
            .collect()
    }

    /// Trace with no reuse and page-sized jumps: every access misses all levels.
    fn miss_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| MemoryAccess::new(i * 4, 0x400, 0x10_0000 + i * 4096 * 7))
            .collect()
    }

    #[test]
    fn repeated_block_hits_l1() {
        let trace: Trace = (0..100)
            .map(|i| MemoryAccess::new(i * 4, 0x400, 0x8000))
            .collect();
        let report = Simulator::new(SimConfig::default()).run(&trace, &[]);
        assert_eq!(report.loads, 100);
        assert_eq!(report.l1d_hits, 99);
        assert_eq!(report.llc_misses, 1);
    }

    #[test]
    fn cold_misses_all_reach_dram() {
        let trace = miss_trace(50);
        let report = Simulator::new(SimConfig::default()).run(&trace, &[]);
        assert_eq!(report.llc_misses, 50);
        assert_eq!(report.llc_load_accesses, 50);
        assert_eq!(report.l1d_hits, 0);
    }

    #[test]
    fn perfect_prefetching_raises_ipc() {
        let trace = miss_trace(2000);
        let no_pf = Simulator::new(SimConfig::default()).run(&trace, &[]);

        // Oracle: prefetch access i+1's block when access i triggers.
        let accesses = trace.accesses();
        let prefetches: Vec<PrefetchRequest> = accesses
            .windows(2)
            .map(|w| PrefetchRequest::new(w[0].instr_id, w[1].block()))
            .collect();
        let with_pf = Simulator::new(SimConfig::default()).run(&trace, &prefetches);

        assert!(
            with_pf.ipc() > no_pf.ipc(),
            "prefetching must help: {} vs {}",
            with_pf.ipc(),
            no_pf.ipc()
        );
        // The DRAM side sheds prefetches when banks are congested, so a
        // fully bandwidth-bound miss stream cannot cover everything — but
        // what does issue should be accurate and substantially useful.
        assert!(
            with_pf.prefetches_useful > 700,
            "{}",
            with_pf.prefetches_useful
        );
        assert!(with_pf.accuracy() > 0.85, "{}", with_pf.accuracy());
    }

    #[test]
    fn useless_prefetches_do_not_count_useful() {
        let trace = miss_trace(100);
        // Prefetch blocks nobody will touch.
        let prefetches: Vec<PrefetchRequest> = trace
            .iter()
            .map(|a| PrefetchRequest::new(a.instr_id, Block(a.block().0 + 1_000_000)))
            .collect();
        let report = Simulator::new(SimConfig::default()).run(&trace, &prefetches);
        assert_eq!(report.prefetches_useful, 0);
        // Some prefetches may be shed under demand congestion; the rest
        // issue and are all useless.
        assert!(report.prefetches_issued > 0);
        assert!(report.prefetches_issued <= 100);
        assert_eq!(report.accuracy(), 0.0);
    }

    #[test]
    fn duplicate_prefetches_filtered() {
        let trace = miss_trace(10);
        let target = Block(999_999);
        let prefetches: Vec<PrefetchRequest> = trace
            .iter()
            .map(|a| PrefetchRequest::new(a.instr_id, target))
            .collect();
        let report = Simulator::new(SimConfig::default()).run(&trace, &prefetches);
        assert_eq!(report.prefetches_requested, 10);
        assert_eq!(
            report.prefetches_issued, 1,
            "resident block filters re-prefetch"
        );
    }

    #[test]
    fn warmup_excludes_counters() {
        let trace = miss_trace(100);
        let report = Simulator::new(SimConfig::default()).run_with_warmup(&trace, &[], 50);
        assert_eq!(report.loads, 50);
        assert!(report.cycles > 0);
    }

    #[test]
    fn warmup_covering_whole_trace_measures_nothing() {
        let trace = miss_trace(100);
        // Boundary (warmup == len) and beyond (warmup > len): both leave an
        // empty measured window instead of claiming full-run cycles and
        // instructions for zero measured loads.
        for warmup in [100usize, 101, 10_000] {
            let report = Simulator::new(SimConfig::default()).run_with_warmup(&trace, &[], warmup);
            assert_eq!(report.loads, 0, "warmup={warmup}");
            assert_eq!(report.instructions, 0, "warmup={warmup}");
            assert_eq!(report.cycles, 0, "warmup={warmup}");
            assert_eq!(report.ipc(), 0.0, "warmup={warmup}");
        }
        // One load short of the boundary still measures the last load.
        let report = Simulator::new(SimConfig::default()).run_with_warmup(&trace, &[], 99);
        assert_eq!(report.loads, 1);
        assert!(report.cycles > 0);
        assert!(report.instructions > 0);
    }

    #[test]
    fn misordered_schedule_is_sorted_not_skipped() {
        let trace = miss_trace(2000);
        let accesses = trace.accesses();
        let sorted: Vec<PrefetchRequest> = accesses
            .windows(2)
            .map(|w| PrefetchRequest::new(w[0].instr_id, w[1].block()))
            .collect();
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        let a = Simulator::new(SimConfig::default()).run(&trace, &sorted);
        let b = Simulator::new(SimConfig::default()).run(&trace, &shuffled);
        // Release builds used to skip almost every prefetch of the reversed
        // schedule via the cursor; now both replays are identical.
        assert_eq!(a, b);
        assert!(b.prefetches_useful > 0);
    }

    #[test]
    fn streaming_faster_than_random_misses() {
        // Sequential blocks enjoy DRAM row hits; scattered pages don't.
        let seq = Simulator::new(SimConfig::default()).run(&stream_trace(2000, 64), &[]);
        let rand = Simulator::new(SimConfig::default()).run(&miss_trace(2000), &[]);
        assert!(seq.ipc() > rand.ipc());
    }

    #[test]
    fn dependent_chains_serialize() {
        let independent = miss_trace(1000);
        let dependent: Trace = independent.iter().map(|a| a.dependent()).collect();
        let free = Simulator::new(SimConfig::default()).run(&independent, &[]);
        let chained = Simulator::new(SimConfig::default()).run(&dependent, &[]);
        assert!(
            chained.ipc() < free.ipc() * 0.5,
            "pointer chasing must serialize: {} vs {}",
            chained.ipc(),
            free.ipc()
        );
    }

    #[test]
    fn prefetching_rescues_dependent_chains() {
        let dependent: Trace = miss_trace(2000).iter().map(|a| a.dependent()).collect();
        let accesses = dependent.accesses();
        let prefetches: Vec<PrefetchRequest> = accesses
            .windows(2)
            .map(|w| PrefetchRequest::new(w[0].instr_id, w[1].block()))
            .collect();
        let base = Simulator::new(SimConfig::default()).run(&dependent, &[]);
        let with_pf = Simulator::new(SimConfig::default()).run(&dependent, &prefetches);
        assert!(
            with_pf.ipc() > base.ipc() * 1.5,
            "accurate prefetching should break the serialization: {} vs {}",
            with_pf.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn demand_refill_stops_charging_stale_late_prefetch_wait() {
        // Regression (PR 5): `Cache::fill` on an already-present line used
        // to refresh only the LRU stamp, so a demand fill landing on a
        // resident in-flight-prefetch line kept the stale
        // `fill_ready_cycle` — and every later demand through
        // `demand_latency` re-paid the old late-prefetch wait.
        let cfg = SimConfig::default();
        let block = Block(42);
        let access = MemoryAccess::new(0, 0x400, block.0 * 64);

        // A genuine in-flight prefetch hit still charges the wait ...
        let mut sim = Simulator::new(cfg);
        sim.llc.fill(block, true, 2_000);
        let latency = sim.demand_latency(&access, 100, true);
        assert_eq!(latency, 1_900, "in-flight prefetch: wait until arrival");

        // ... but once a demand fill supersedes the in-flight prefetch
        // line, the stale arrival cycle is gone: plain LLC hit latency.
        let mut sim = Simulator::new(cfg);
        sim.llc.fill(block, true, 2_000);
        sim.llc.fill(block, false, 0);
        let latency = sim.demand_latency(&access, 100, true);
        assert_eq!(latency, cfg.llc_hit_latency());
        // The superseded prefetch no longer counts as a first demand touch.
        assert_eq!(sim.report.prefetches_useful, 0);
    }

    #[test]
    fn warmup_prefetch_traffic_is_excluded_from_counters() {
        // Duplicate-heavy schedule: first request issues, the rest are
        // residency-filtered. With the whole schedule inside the warmup
        // window, no prefetch counter may leak into the measured report.
        let trace = miss_trace(100);
        let target = Block(999_999);
        let prefetches: Vec<PrefetchRequest> = trace
            .iter()
            .take(50)
            .map(|a| PrefetchRequest::new(a.instr_id, target))
            .collect();
        let report = Simulator::new(SimConfig::default()).run_with_warmup(&trace, &prefetches, 50);
        assert_eq!(report.prefetches_requested, 0);
        assert_eq!(report.prefetches_issued, 0);
    }

    #[test]
    fn detailed_stats_consistent_with_report() {
        let trace = miss_trace(100);
        let (report, detail) = Simulator::new(SimConfig::default()).run_detailed(&trace, &[]);
        assert_eq!(detail.llc.misses, report.llc_misses);
        assert_eq!(detail.dram.requests, 100);
    }
}
