//! A set-associative cache with LRU replacement and prefetch-bit tracking,
//! laid out as flat structure-of-arrays buffers for the replay hot path.
//!
//! The timed replay spends most of its cycles scanning cache sets (three
//! levels per demand load, plus a residency probe per prefetch), so the
//! line array is split by access pattern:
//!
//! * `tags` — one contiguous `u64` per line packing the block tag and the
//!   valid bit (`(block << 1) | 1`; `0` is "invalid"). Every lookup scans
//!   only this array: a whole 16-way set is 128 contiguous bytes (two
//!   cache lines) instead of sixteen 40-byte `Line` structs behind a
//!   per-set `Vec` indirection.
//! * `lru` — one `u64` recency stamp per line. Victim selection is a pure
//!   min-scan of this array alone: the code maintains the invariant that
//!   invalid lines carry stamp `0` and valid lines carry stamps `>= 1`
//!   (the tick counter pre-increments), so "first invalid line, else LRU"
//!   collapses to "first minimum stamp" over contiguous `u64`s.
//! * `fill_info` — fill-ready cycle and prefetch bit packed as
//!   `(ready_cycle << 1) | prefetched`, read on hits and rewritten on
//!   fills; never touched by a scan.
//!
//! Set selection uses a bitmask when the set count is a power of two (the
//! Table 3 geometries all are) and falls back to modulo otherwise; the two
//! paths are pinned against each other and against the retained
//! [`crate::reference::ReferenceCache`] by `tests/cache_prop.rs`. Both
//! buffers are allocated once at construction — no allocation ever happens
//! during replay.
//!
//! Both hot scans — the tag lookup and the LRU victim min-scan — are
//! plain scalar walks over one set's contiguous `u64`s (at most 16 ways
//! in Table 3). They stay scalar because replay time goes to DRAM and ROB
//! timing arithmetic: AVX2 scans measured 0.97–1.05× end to end.

use pathfinder_telemetry as telemetry;

use crate::addr::Block;
use crate::config::CacheConfig;

/// Which level of the hierarchy a [`Cache`] models; labels the cache's own
/// telemetry so hit/miss counters are recorded where they happen instead of
/// on-behalf by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// First-level data cache — records `sim.l1d.{hits,misses}`.
    L1d,
    /// Second-level cache — records `sim.l2.{hits,misses}`.
    L2,
    /// Last-level cache — records `sim.llc.{hits,misses}`.
    Llc,
    /// No level label; telemetry stays silent ([`Cache::new`] default for
    /// standalone caches in tests and examples).
    Unlabeled,
}

impl CacheLevel {
    pub(crate) fn hit_metric(self) -> Option<&'static str> {
        match self {
            CacheLevel::L1d => Some("sim.l1d.hits"),
            CacheLevel::L2 => Some("sim.l2.hits"),
            CacheLevel::Llc => Some("sim.llc.hits"),
            CacheLevel::Unlabeled => None,
        }
    }

    pub(crate) fn miss_metric(self) -> Option<&'static str> {
        match self {
            CacheLevel::L1d => Some("sim.l1d.misses"),
            CacheLevel::L2 => Some("sim.l2.misses"),
            CacheLevel::Llc => Some("sim.llc.misses"),
            CacheLevel::Unlabeled => None,
        }
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Block present; was it originally brought in by a prefetch and never
    /// yet demanded, and at what cycle did its fill complete?
    Hit {
        /// True if this is the first demand touch to a prefetched block.
        first_demand_to_prefetch: bool,
        /// Cycle at which the block's fill completed (0 for demand fills in
        /// the functional pass).
        fill_ready_cycle: u64,
    },
    /// Block absent.
    Miss,
}

/// An invalid tag word: valid bit clear (the tag bits are irrelevant).
const TAG_INVALID: u64 = 0;

/// Packs a line's fill-completion cycle and prefetch bit into one word.
/// Ready cycles are simulator clock values and stay far below 2^63.
#[inline]
fn pack_fill_info(ready_cycle: u64, prefetched: bool) -> u64 {
    debug_assert!(ready_cycle < 1 << 63, "ready cycle overflows fill info");
    (ready_cycle << 1) | prefetched as u64
}

/// Packs a block into its tag word. Block indices are `vaddr >> 6`, so
/// they always fit in 58 bits; the shift cannot discard address bits.
#[inline]
fn pack_tag(block: Block) -> u64 {
    debug_assert!(block.0 < 1 << 63, "block index overflows packed tag");
    (block.0 << 1) | 1
}

/// Statistics kept by each cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Blocks filled by prefetch.
    pub prefetch_fills: u64,
    /// Prefetched blocks that later served a demand access.
    pub useful_prefetches: u64,
    /// Prefetched blocks evicted without ever serving a demand access.
    pub useless_evictions: u64,
}

/// A single set-associative cache level (flat layout).
///
/// The simulator's functional pass only needs presence/absence plus enough
/// metadata to classify prefetch usefulness, so lines carry a block tag, an
/// LRU stamp, a prefetch bit, and the fill-completion cycle — each kept in
/// its own contiguous array: packed tags for the lookup scan, recency
/// stamps for the victim min-scan, and packed fill info touched only on
/// hit/fill.
///
/// # Examples
///
/// ```
/// use pathfinder_sim::{Block, Cache, CacheConfig, LookupResult};
///
/// let mut c = Cache::new(CacheConfig::new(16, 2, 1));
/// assert_eq!(c.demand_access(Block(7)), LookupResult::Miss);
/// c.fill(Block(7), false, 0);
/// assert!(matches!(c.demand_access(Block(7)), LookupResult::Hit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    level: CacheLevel,
    /// Packed `(block << 1) | valid` words, set-major: line `w` of set `s`
    /// lives at `s * ways + w`. The only array the lookup scan touches.
    tags: Box<[u64]>,
    /// Recency stamps, indexed like `tags`; larger = more recently used.
    /// Invariant: invalid lines hold `0`, valid lines hold `>= 1` (the
    /// tick counter pre-increments), so the victim scan never needs the
    /// tag array to rank invalid lines first.
    lru: Box<[u64]>,
    /// `(fill_ready_cycle << 1) | prefetched` per line, indexed like
    /// `tags`; read on hits, rewritten on fills.
    fill_info: Box<[u64]>,
    /// `sets - 1` when the set count is a power of two (bitmask fast
    /// path); unused otherwise.
    set_mask: u64,
    /// Whether `set_mask` is valid.
    pow2_sets: bool,
    stats: CacheStats,
    tick: u64,
    /// Hit/miss totals already published to telemetry, so
    /// [`Cache::flush_telemetry`] emits deltas and repeated flushes stay
    /// correct. The hot path only bumps `stats`; the recorder round trips
    /// happen once per replay instead of once per access.
    flushed_hits: u64,
    flushed_misses: u64,
}

impl Cache {
    /// Creates an empty, unlabeled cache with the given geometry (no
    /// telemetry). Simulator levels use [`Cache::labeled`].
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        Cache::labeled(config, CacheLevel::Unlabeled)
    }

    /// Creates an empty cache that attributes `sim.<level>.{hits,misses}`
    /// telemetry to this level: [`Cache::demand_access`] tallies into the
    /// stats fields and [`Cache::flush_telemetry`] publishes the totals.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn labeled(config: CacheConfig, level: CacheLevel) -> Self {
        assert!(
            config.sets > 0 && config.ways > 0,
            "cache must be non-empty"
        );
        let lines = config.sets * config.ways;
        Cache {
            config,
            level,
            tags: vec![TAG_INVALID; lines].into_boxed_slice(),
            lru: vec![0; lines].into_boxed_slice(),
            fill_info: vec![0; lines].into_boxed_slice(),
            set_mask: (config.sets as u64).wrapping_sub(1),
            pow2_sets: config.sets.is_power_of_two(),
            stats: CacheStats::default(),
            tick: 0,
            flushed_hits: 0,
            flushed_misses: 0,
        }
    }

    /// The hierarchy level this cache is labeled as.
    pub fn level(&self) -> CacheLevel {
        self.level
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Maps a block to its set: a bitmask when the set count is a power of
    /// two, modulo otherwise (identical results where both apply).
    #[inline]
    fn set_index(&self, block: Block) -> usize {
        if self.pow2_sets {
            (block.0 & self.set_mask) as usize
        } else {
            (block.0 % self.config.sets as u64) as usize
        }
    }

    /// First line index of the block's set.
    #[inline]
    fn set_base(&self, block: Block) -> usize {
        self.set_index(block) * self.config.ways
    }

    /// Scans the block's set; returns the line index on a match. Valid tags
    /// are packed odd and invalid lines hold the even `TAG_INVALID`, so the
    /// packed needle can never alias an invalid line — one dense equality
    /// scan covers both the tag match and the valid check.
    #[inline]
    fn find(&self, block: Block) -> Option<usize> {
        let base = self.set_base(block);
        let packed = pack_tag(block);
        self.tags[base..base + self.config.ways]
            .iter()
            .position(|&t| t == packed)
            .map(|w| base + w)
    }

    /// Performs a demand access. On a hit the line becomes MRU and loses its
    /// prefetch bit (counting a useful prefetch the first time).
    pub fn demand_access(&mut self, block: Block) -> LookupResult {
        self.tick += 1;
        if let Some(idx) = self.find(block) {
            self.lru[idx] = self.tick;
            let info = self.fill_info[idx];
            let first = info & 1 == 1;
            if first {
                self.fill_info[idx] = info & !1;
                self.stats.useful_prefetches += 1;
            }
            self.stats.hits += 1;
            return LookupResult::Hit {
                first_demand_to_prefetch: first,
                fill_ready_cycle: info >> 1,
            };
        }
        self.stats.misses += 1;
        LookupResult::Miss
    }

    /// Publishes `sim.<level>.{hits,misses}` deltas accumulated since the
    /// previous flush. The counter totals are bit-identical to recording
    /// per access (counters are order-insensitive sums), but the demand
    /// path pays a plain field increment instead of a recorder lookup.
    /// Counters that did not move — and unlabeled caches — emit nothing,
    /// preserving the "absent, not zero" snapshot semantics.
    pub fn flush_telemetry(&mut self) {
        if !telemetry::enabled() {
            return;
        }
        let hit_delta = self.stats.hits - self.flushed_hits;
        if hit_delta > 0 {
            if let Some(metric) = self.level.hit_metric() {
                telemetry::counter!(metric, hit_delta);
            }
        }
        let miss_delta = self.stats.misses - self.flushed_misses;
        if miss_delta > 0 {
            if let Some(metric) = self.level.miss_metric() {
                telemetry::counter!(metric, miss_delta);
            }
        }
        self.flushed_hits = self.stats.hits;
        self.flushed_misses = self.stats.misses;
    }

    /// Checks presence without updating LRU, stats, or prefetch bits.
    #[inline]
    pub fn probe(&self, block: Block) -> bool {
        self.find(block).is_some()
    }

    /// Fills `block` into the cache, evicting the LRU line if needed.
    ///
    /// `prefetched` marks the fill as speculative; `ready_cycle` records when
    /// the data actually arrives (used to charge partial latency to demands
    /// that hit a still-in-flight prefetch). Returns the evicted block, if a
    /// valid line was displaced.
    ///
    /// A refill of an already-present line refreshes the line's metadata,
    /// not just its LRU stamp: a *demand* refill clears the prefetch bit
    /// and replaces `fill_ready_cycle` with the new fill's arrival, so a
    /// demand fill landing on a resident in-flight-prefetch line stops
    /// charging the old late-prefetch wait on later hits. (The superseded
    /// prefetch is classified neither useful nor useless — it never served
    /// a demand access, and it is not being evicted.) A *prefetch* refill
    /// of a resident line adds no new speculative data and only refreshes
    /// the LRU stamp.
    pub fn fill(&mut self, block: Block, prefetched: bool, ready_cycle: u64) -> Option<Block> {
        self.tick += 1;
        let tick = self.tick;

        if let Some(idx) = self.find(block) {
            self.lru[idx] = tick;
            if !prefetched {
                self.fill_info[idx] = pack_fill_info(ready_cycle, false);
            }
            return None;
        }

        self.fill_victim(block, prefetched, ready_cycle, tick)
    }

    /// [`Cache::fill`] for a block the caller has just proven absent (a
    /// demand fill directly after a miss at this level, or a prefetch fill
    /// behind a failed residency probe), skipping the residency re-scan.
    /// Tick evolution and victim choice are identical to `fill`, so the
    /// replay engine's use of this path stays bit-identical to calling
    /// `fill` — the engine-equivalence suite pins that.
    pub(crate) fn fill_absent(
        &mut self,
        block: Block,
        prefetched: bool,
        ready_cycle: u64,
    ) -> Option<Block> {
        debug_assert!(self.find(block).is_none(), "fill_absent on resident block");
        self.tick += 1;
        let tick = self.tick;
        self.fill_victim(block, prefetched, ready_cycle, tick)
    }

    /// Shared victim-selection tail of [`Cache::fill`]/[`Cache::fill_absent`].
    fn fill_victim(
        &mut self,
        block: Block,
        prefetched: bool,
        ready_cycle: u64,
        tick: u64,
    ) -> Option<Block> {
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        let base = self.set_base(block);
        // Victim: first invalid line if any, else the LRU line. Invalid
        // lines hold stamp 0 and valid lines hold >= 1 (struct invariant),
        // so both cases are one dense min-scan of the stamp array — no tag
        // reads, no branches on validity. The strict `<` keeps the *first*
        // minimum, matching the reference cache's `min_by_key`.
        let mut victim = base;
        for w in base + 1..base + self.config.ways {
            if self.lru[w] < self.lru[victim] {
                victim = w;
            }
        }
        let evicted = if self.tags[victim] != TAG_INVALID {
            if self.fill_info[victim] & 1 == 1 {
                self.stats.useless_evictions += 1;
            }
            Some(Block(self.tags[victim] >> 1))
        } else {
            None
        };
        self.tags[victim] = pack_tag(block);
        self.lru[victim] = tick;
        self.fill_info[victim] = pack_fill_info(ready_cycle, prefetched);
        evicted
    }

    /// Invalidates `block` if present, returning whether it was found.
    pub fn invalidate(&mut self, block: Block) -> bool {
        if let Some(idx) = self.find(block) {
            self.tags[idx] = TAG_INVALID;
            // Restore the invariant that invalid lines rank as stamp 0 in
            // the victim scan.
            self.lru[idx] = 0;
            self.fill_info[idx] = 0;
            return true;
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != TAG_INVALID).count()
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(TAG_INVALID);
        self.lru.fill(0);
        self.fill_info.fill(0);
        self.stats = CacheStats::default();
        self.tick = 0;
        self.flushed_hits = 0;
        self.flushed_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways
        Cache::new(CacheConfig::new(2, 2, 1))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.demand_access(Block(4)), LookupResult::Miss);
        c.fill(Block(4), false, 0);
        assert!(matches!(
            c.demand_access(Block(4)),
            LookupResult::Hit {
                first_demand_to_prefetch: false,
                ..
            }
        ));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Blocks 0,2,4 all map to set 0.
        c.fill(Block(0), false, 0);
        c.fill(Block(2), false, 0);
        // Touch 0 so 2 becomes LRU.
        c.demand_access(Block(0));
        let evicted = c.fill(Block(4), false, 0);
        assert_eq!(evicted, Some(Block(2)));
        assert!(c.probe(Block(0)));
        assert!(c.probe(Block(4)));
        assert!(!c.probe(Block(2)));
    }

    #[test]
    fn useful_prefetch_counted_once() {
        let mut c = tiny();
        c.fill(Block(6), true, 100);
        assert_eq!(c.stats().prefetch_fills, 1);
        let r = c.demand_access(Block(6));
        assert_eq!(
            r,
            LookupResult::Hit {
                first_demand_to_prefetch: true,
                fill_ready_cycle: 100
            }
        );
        // Second touch is an ordinary hit.
        assert!(matches!(
            c.demand_access(Block(6)),
            LookupResult::Hit {
                first_demand_to_prefetch: false,
                ..
            }
        ));
        assert_eq!(c.stats().useful_prefetches, 1);
    }

    #[test]
    fn useless_prefetch_eviction_counted() {
        let mut c = tiny();
        c.fill(Block(0), true, 0);
        c.fill(Block(2), false, 0);
        c.fill(Block(4), false, 0); // evicts Block(0), never demanded
        assert_eq!(c.stats().useless_evictions, 1);
        assert_eq!(c.stats().useful_prefetches, 0);
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny();
        c.fill(Block(8), false, 0);
        c.fill(Block(8), false, 0);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn demand_refill_clears_stale_prefetch_metadata() {
        // Regression (PR 5): a refill used to refresh only the LRU stamp,
        // so a demand fill landing on a resident in-flight-prefetch line
        // kept the stale `fill_ready_cycle` and `prefetched` bit — every
        // later hit re-charged the old late-prefetch wait.
        let mut c = tiny();
        c.fill(Block(6), true, 1_000); // prefetch, data arrives at 1000
        c.fill(Block(6), false, 0); // demand fill supersedes it
        assert_eq!(
            c.demand_access(Block(6)),
            LookupResult::Hit {
                first_demand_to_prefetch: false,
                fill_ready_cycle: 0
            }
        );
        // The superseded prefetch is classified neither useful nor useless.
        assert_eq!(c.stats().useful_prefetches, 0);
        assert_eq!(c.stats().useless_evictions, 0);
    }

    #[test]
    fn prefetch_refill_of_resident_line_only_refreshes_lru() {
        let mut c = tiny();
        c.fill(Block(0), false, 0); // demand line
        c.fill(Block(0), true, 1_000); // prefetch refill: no new data
        assert_eq!(
            c.demand_access(Block(0)),
            LookupResult::Hit {
                first_demand_to_prefetch: false,
                fill_ready_cycle: 0
            }
        );
        // Not counted as a prefetch fill either.
        assert_eq!(c.stats().prefetch_fills, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(Block(3), false, 0);
        assert!(c.invalidate(Block(3)));
        assert!(!c.probe(Block(3)));
        assert!(!c.invalidate(Block(3)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.fill(Block(1), true, 0);
        c.demand_access(Block(1));
        c.reset();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(*c.stats(), CacheStats::default());
    }

    #[test]
    fn new_is_unlabeled_and_labeled_carries_its_level() {
        assert_eq!(tiny().level(), CacheLevel::Unlabeled);
        let c = Cache::labeled(CacheConfig::new(2, 2, 1), CacheLevel::Llc);
        assert_eq!(c.level(), CacheLevel::Llc);
        // Label choice never affects functional behaviour or stats.
        let mut a = Cache::labeled(CacheConfig::new(2, 2, 1), CacheLevel::L1d);
        let mut b = tiny();
        for blk in [0u64, 2, 4, 0, 2] {
            a.fill(Block(blk), false, 0);
            b.fill(Block(blk), false, 0);
            assert_eq!(a.demand_access(Block(blk)), b.demand_access(Block(blk)));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn probe_does_not_touch_lru_or_stats() {
        let mut c = tiny();
        c.fill(Block(0), false, 0);
        c.fill(Block(2), false, 0);
        let before = *c.stats();
        assert!(c.probe(Block(0)));
        assert_eq!(*c.stats(), before);
        // Probing 0 must NOT have refreshed it: filling a conflicting block
        // should still evict the true LRU, which is 0.
        let evicted = c.fill(Block(4), false, 0);
        assert_eq!(evicted, Some(Block(0)));
    }

    #[test]
    fn non_power_of_two_sets_use_modulo_mapping() {
        // 3 sets: blocks 1, 4, 7 share set 1; block 2 does not.
        let mut c = Cache::new(CacheConfig::new(3, 2, 1));
        c.fill(Block(1), false, 0);
        c.fill(Block(4), false, 0);
        let evicted = c.fill(Block(7), false, 0);
        assert_eq!(evicted, Some(Block(1)), "set conflict must evict LRU");
        c.fill(Block(2), false, 0);
        assert_eq!(c.occupancy(), 3);
        assert!(c.probe(Block(4)) && c.probe(Block(7)) && c.probe(Block(2)));
    }

    #[test]
    fn pow2_mask_and_modulo_agree() {
        // For a power-of-two set count the bitmask fast path must place
        // blocks exactly where the modulo fallback would.
        let cfg = CacheConfig::new(8, 1, 1);
        let mut c = Cache::new(cfg);
        for blk in [0u64, 7, 8, 9, 15, 16, 1_000_003] {
            c.fill(Block(blk), false, 0);
            assert!(c.probe(Block(blk)));
            // A conflicting block (same residue mod 8) evicts it (1 way).
            let evicted = c.fill(Block(blk + 8 * 5), false, 0);
            assert_eq!(evicted, Some(Block(blk)));
        }
    }
}
