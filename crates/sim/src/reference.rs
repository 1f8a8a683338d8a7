//! The pre-rewrite replay engine, retained as the equivalence baseline for
//! the flat-layout hot path in [`crate::cache`] and [`crate::engine`].
//!
//! [`ReferenceCache`] keeps the original `Vec<Vec<Line>>` set layout
//! (array-of-structures lines, one heap allocation per set) and
//! [`ReferenceSimulator`] the original `BinaryHeap`-backed MSHR tracker.
//! The flat engine re-lays the same state out as contiguous
//! structure-of-arrays buffers; it does **not** re-associate any
//! arithmetic, so — unlike the SNN kernel pair, which agrees only up to fp
//! re-association — the two replay engines must produce **bit-identical**
//! [`SimReport`]s and [`DetailedStats`] on every trace, geometry
//! (power-of-two set counts and otherwise), warmup window, and prefetch
//! schedule. `tests/engine_equivalence.rs` pins exactly that.
//!
//! The one deliberate semantic change of the rewrite — a refill of an
//! already-present line now refreshes the line's `prefetched` bit and
//! `fill_ready_cycle` instead of only its LRU stamp (see
//! [`crate::cache::Cache::fill`]) — is applied here too, so the reference
//! pins the *fixed* semantics rather than the old bug.
//!
//! This module is *not* a second implementation to maintain feature-parity
//! with: it exists to (a) pin the semantics of the flat engine and (b)
//! serve as the "before" measurement in `repro bench` (the
//! `sim.replay.e2e.reference` suite).

use std::collections::BinaryHeap;

use pathfinder_telemetry as telemetry;

use crate::access::{MemoryAccess, PrefetchRequest, Trace};
use crate::addr::Block;
use crate::cache::{CacheLevel, CacheStats, LookupResult};
use crate::config::{CacheConfig, SimConfig};
use crate::core::RobModel;
use crate::dram::DramModel;
use crate::stats::{DetailedStats, SimReport};

#[derive(Debug, Clone, Copy)]
struct Line {
    block: Block,
    valid: bool,
    /// LRU stamp; larger = more recently used.
    lru: u64,
    /// Filled by a prefetch and not yet touched by a demand access.
    prefetched: bool,
    /// Cycle at which the fill completes (for in-flight prefetch hits).
    fill_ready_cycle: u64,
}

impl Line {
    const INVALID: Line = Line {
        block: Block(0),
        valid: false,
        lru: 0,
        prefetched: false,
        fill_ready_cycle: 0,
    };
}

/// The pre-rewrite set-associative cache: per-set `Vec<Line>` storage with
/// the same LRU replacement, prefetch-bit tracking, and statistics as the
/// flat [`crate::cache::Cache`].
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    config: CacheConfig,
    level: CacheLevel,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
}

impl ReferenceCache {
    /// Creates an empty, unlabeled reference cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        ReferenceCache::labeled(config, CacheLevel::Unlabeled)
    }

    /// Creates an empty reference cache recording `sim.<level>.*` telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn labeled(config: CacheConfig, level: CacheLevel) -> Self {
        assert!(
            config.sets > 0 && config.ways > 0,
            "cache must be non-empty"
        );
        ReferenceCache {
            config,
            level,
            sets: vec![vec![Line::INVALID; config.ways]; config.sets],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, block: Block) -> usize {
        (block.0 % self.config.sets as u64) as usize
    }

    /// Performs a demand access (pre-rewrite line scan).
    pub fn demand_access(&mut self, block: Block) -> LookupResult {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(block);
        for line in &mut self.sets[set] {
            if line.valid && line.block == block {
                line.lru = tick;
                let first = line.prefetched;
                if first {
                    line.prefetched = false;
                    self.stats.useful_prefetches += 1;
                }
                self.stats.hits += 1;
                if let Some(metric) = self.level.hit_metric() {
                    telemetry::counter!(metric, 1);
                }
                return LookupResult::Hit {
                    first_demand_to_prefetch: first,
                    fill_ready_cycle: line.fill_ready_cycle,
                };
            }
        }
        self.stats.misses += 1;
        if let Some(metric) = self.level.miss_metric() {
            telemetry::counter!(metric, 1);
        }
        LookupResult::Miss
    }

    /// Checks presence without updating LRU, stats, or prefetch bits.
    pub fn probe(&self, block: Block) -> bool {
        let set = self.set_index(block);
        self.sets[set].iter().any(|l| l.valid && l.block == block)
    }

    /// Fills `block`, evicting the LRU line if needed. Refill semantics
    /// match the flat cache: see [`crate::cache::Cache::fill`].
    pub fn fill(&mut self, block: Block, prefetched: bool, ready_cycle: u64) -> Option<Block> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(block);

        if let Some(line) = self.sets[set]
            .iter_mut()
            .find(|l| l.valid && l.block == block)
        {
            line.lru = tick;
            if !prefetched {
                line.prefetched = false;
                line.fill_ready_cycle = ready_cycle;
            }
            return None;
        }

        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        let victim_idx = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = &mut self.sets[set][victim_idx];
        let evicted = if victim.valid {
            if victim.prefetched {
                self.stats.useless_evictions += 1;
            }
            Some(victim.block)
        } else {
            None
        };
        *victim = Line {
            block,
            valid: true,
            lru: tick,
            prefetched,
            fill_ready_cycle: ready_cycle,
        };
        evicted
    }

    /// Invalidates `block` if present, returning whether it was found.
    pub fn invalidate(&mut self, block: Block) -> bool {
        let set = self.set_index(block);
        for line in &mut self.sets[set] {
            if line.valid && line.block == block {
                *line = Line::INVALID;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.valid).count())
            .sum()
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.fill(Line::INVALID);
        }
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

/// The pre-rewrite replay engine: [`ReferenceCache`] levels plus a
/// `BinaryHeap<Reverse<u64>>` MSHR tracker. Shares the [`DramModel`],
/// [`RobModel`], and [`SimConfig`] with the flat [`crate::Simulator`].
#[derive(Debug)]
pub struct ReferenceSimulator {
    config: SimConfig,
    l1d: ReferenceCache,
    l2: ReferenceCache,
    llc: ReferenceCache,
    dram: DramModel,
    rob: RobModel,
    /// Completion cycles of outstanding demand misses (min-heap via Reverse).
    outstanding: BinaryHeap<std::cmp::Reverse<u64>>,
    report: SimReport,
}

impl ReferenceSimulator {
    /// Creates a reference simulator with cold caches.
    pub fn new(config: SimConfig) -> Self {
        ReferenceSimulator {
            config,
            l1d: ReferenceCache::labeled(config.l1d, CacheLevel::L1d),
            l2: ReferenceCache::labeled(config.l2, CacheLevel::L2),
            llc: ReferenceCache::labeled(config.llc, CacheLevel::Llc),
            dram: DramModel::new(config.dram),
            rob: RobModel::new(config.core),
            outstanding: BinaryHeap::new(),
            report: SimReport::default(),
        }
    }

    /// Replays `trace` with the given prefetch schedule; see
    /// [`crate::Simulator::run`].
    pub fn run(mut self, trace: &Trace, prefetches: &[PrefetchRequest]) -> SimReport {
        self.run_inner(trace, prefetches, 0);
        self.report
    }

    /// Replays with a warm-up window; see
    /// [`crate::Simulator::run_with_warmup`].
    pub fn run_with_warmup(
        mut self,
        trace: &Trace,
        prefetches: &[PrefetchRequest],
        warmup_loads: usize,
    ) -> SimReport {
        self.run_inner(trace, prefetches, warmup_loads);
        self.report
    }

    /// Replays and also returns per-component statistics; see
    /// [`crate::Simulator::run_detailed`].
    pub fn run_detailed(
        self,
        trace: &Trace,
        prefetches: &[PrefetchRequest],
    ) -> (SimReport, DetailedStats) {
        self.run_detailed_with_warmup(trace, prefetches, 0)
    }

    /// Warm-up-windowed detailed replay; see
    /// [`crate::Simulator::run_detailed_with_warmup`].
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
        let sorted_copy: Vec<PrefetchRequest>;
        let prefetches = if prefetches
            .windows(2)
            .all(|w| w[0].trigger_instr_id <= w[1].trigger_instr_id)
        {
            prefetches
        } else {
            telemetry::counter!("sim.schedule.unsorted", 1);
            sorted_copy = {
                let mut v = prefetches.to_vec();
                v.sort_by_key(|p| p.trigger_instr_id);
                v
            };
            &sorted_copy
        };
        let warmup_loads = warmup_loads.min(trace.len());
        let _replay_span = telemetry::timer!("sim.replay");
        let mut pf_cursor = 0usize;
        let mut measured_start_cycle = 0u64;
        let mut measured_start_instr = 0u64;
        let mut prev_completion = 0u64;

        for (i, access) in trace.iter().enumerate() {
            let measuring = i >= warmup_loads;
            let mut issue = self.issue_with_hazards(access.instr_id);
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
            measured_start_instr = total_instr;
            measured_start_cycle = end_cycle;
        }
        self.report.instructions = total_instr.saturating_sub(measured_start_instr);
        self.report.cycles = end_cycle.saturating_sub(measured_start_cycle);
        self.report.prefetches_useless = self.llc.stats().useless_evictions;
        // The shared DramModel defers its telemetry (the flat engine's
        // optimization); publish it here so reference replays report the
        // same DRAM counters and queue-depth histogram they always did.
        self.dram.flush_telemetry();
    }

    /// Dispatch cycle after ROB and MSHR structural hazards (heap-backed).
    fn issue_with_hazards(&mut self, instr_id: u64) -> u64 {
        let mut issue = self.rob.issue_cycle(instr_id);
        while let Some(&std::cmp::Reverse(done)) = self.outstanding.peek() {
            if done <= issue {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        telemetry::histogram!("sim.mshr.occupancy", self.outstanding.len() as u64);
        if self.outstanding.len() >= self.config.core.mshrs {
            telemetry::counter!("sim.mshr.stalls", 1);
            if let Some(std::cmp::Reverse(done)) = self.outstanding.pop() {
                issue = issue.max(done);
            }
            while let Some(&std::cmp::Reverse(done)) = self.outstanding.peek() {
                if done <= issue {
                    self.outstanding.pop();
                } else {
                    break;
                }
            }
        }
        issue
    }

    /// Walks the hierarchy for a demand load, returns its total latency.
    fn demand_latency(&mut self, access: &MemoryAccess, issue: u64, measuring: bool) -> u64 {
        let block = access.block();
        if measuring {
            self.report.loads += 1;
        }

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
            self.l1d.fill(block, false, 0);
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
                        self.report.prefetches_useful += 1;
                        telemetry::counter!("sim.prefetch.useful", 1);
                        if fill_ready_cycle > issue {
                            self.report.prefetches_late += 1;
                            telemetry::counter!("sim.prefetch.late", 1);
                        }
                    }
                }
                self.l2.fill(block, false, 0);
                self.l1d.fill(block, false, 0);
                let wait = fill_ready_cycle.saturating_sub(issue);
                self.config.llc_hit_latency().max(wait)
            }
            LookupResult::Miss => {
                if measuring {
                    self.report.llc_misses += 1;
                }
                let dram_submit = issue + self.config.llc_hit_latency();
                let data_back = self.dram.service(block, dram_submit);
                self.outstanding.push(std::cmp::Reverse(data_back));
                self.llc.fill(block, false, 0);
                self.l2.fill(block, false, 0);
                self.l1d.fill(block, false, 0);
                data_back - issue
            }
        }
    }

    /// Issues one prefetch into the LLC (if not already resident).
    fn issue_prefetch(&mut self, block: Block, now: u64, measuring: bool) {
        if self.llc.probe(block) {
            if measuring {
                telemetry::counter!("sim.prefetch.filtered", 1);
            }
            return;
        }
        let Some(data_back) = self
            .dram
            .service_prefetch(block, now + self.config.llc_hit_latency())
        else {
            return;
        };
        if measuring {
            self.report.prefetches_issued += 1;
            telemetry::counter!("sim.prefetch.issued", 1);
        }
        self.llc.fill(block, true, data_back);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    fn miss_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| MemoryAccess::new(i * 4, 0x400, 0x10_0000 + i * 4096 * 7))
            .collect()
    }

    #[test]
    fn reference_matches_flat_engine_on_a_smoke_trace() {
        let trace = miss_trace(500);
        let accesses = trace.accesses();
        let prefetches: Vec<PrefetchRequest> = accesses
            .windows(2)
            .map(|w| PrefetchRequest::new(w[0].instr_id, w[1].block()))
            .collect();
        let (a, da) = Simulator::new(SimConfig::default()).run_detailed(&trace, &prefetches);
        let (b, db) =
            ReferenceSimulator::new(SimConfig::default()).run_detailed(&trace, &prefetches);
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    #[test]
    fn reference_cache_basics() {
        let mut c = ReferenceCache::new(CacheConfig::new(2, 2, 1));
        assert_eq!(c.demand_access(Block(4)), LookupResult::Miss);
        c.fill(Block(4), false, 0);
        assert!(matches!(
            c.demand_access(Block(4)),
            LookupResult::Hit { .. }
        ));
        assert!(c.probe(Block(4)));
        assert_eq!(c.occupancy(), 1);
        assert!(c.invalidate(Block(4)));
        assert!(!c.probe(Block(4)));
        c.reset();
        assert_eq!(*c.stats(), CacheStats::default());
    }
}
