//! Bank- and bus-aware DRAM timing model.
//!
//! Models the Table 3 memory system: one channel of 8 ranks x 8 banks with
//! open-row policy, `tRP/tRCD/tCAS` timing, a shared data bus, and a bounded
//! read queue. The model answers a single question for the replay engine:
//! *given a block request arriving at cycle `t`, when does its data return?*

use pathfinder_telemetry as telemetry;

use crate::addr::Block;
use crate::config::DramConfig;

/// Per-request service classification, useful for tests and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The open row matched: only CAS latency applies.
    Hit,
    /// A different row was open: precharge + activate + CAS.
    Conflict,
    /// Bank had no open row (first touch): activate + CAS.
    Empty,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    free_at: u64,
}

/// Counters accumulated by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests that hit the open row.
    pub row_hits: u64,
    /// Requests that had to close an open row first.
    pub row_conflicts: u64,
    /// Requests to a bank with no open row.
    pub row_empties: u64,
    /// Total requests served.
    pub requests: u64,
    /// Cycles spent waiting for a free read-queue slot.
    pub queue_stall_cycles: u64,
    /// Prefetch reads shed because the queue was busy with demand traffic.
    pub prefetches_dropped: u64,
}

/// The DRAM subsystem.
///
/// The bank array and the in-flight read queue are both bounded by
/// construction: banks are fixed at `total_banks()`, and the queue is
/// preallocated to `read_queue_size` slots and can never hold more (a
/// request arriving at a full queue waits for the oldest in-flight read to
/// drain before it is enqueued). Like the flat cache and MSHR tracker, the
/// model therefore allocates nothing after construction.
///
/// # Examples
///
/// ```
/// use pathfinder_sim::{Block, DramModel};
/// use pathfinder_sim::DramConfig;
///
/// let mut dram = DramModel::new(DramConfig::default());
/// let done_a = dram.service(Block(0), 0);
/// let done_b = dram.service(Block(1), 0); // same row: faster second access
/// assert!(done_b - done_a < done_a);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    banks: Vec<Bank>,
    /// Completion cycles of in-flight reads, bounded by `read_queue_size`.
    inflight: Vec<u64>,
    /// Smallest in-flight completion cycle (`u64::MAX` when empty): lets
    /// the per-request queue drain early-exit with one compare.
    inflight_earliest: u64,
    /// `row_bytes / BLOCK_SIZE`, precomputed off the request path.
    blocks_per_row: u64,
    /// `total_banks()`, precomputed off the request path.
    total_banks: u64,
    /// Shift equivalent of dividing by `blocks_per_row` (power-of-two
    /// geometries — the Table 3 defaults are); `None` falls back to
    /// division with identical results.
    row_shift: Option<u32>,
    /// Shift/mask equivalent of dividing by `total_banks`.
    bank_shift: Option<u32>,
    /// [`DramConfig::prefetch_headroom`] clamped below the queue size at
    /// construction, so an idle queue can always accept a prefetch.
    prefetch_headroom: usize,
    bus_free_at: u64,
    stats: DramStats,
    /// Per-depth occupancy tally for the `sim.dram.queue_depth` histogram:
    /// slot `d` counts requests that saw `d` reads in flight. The queue is
    /// bounded by `read_queue_size`, so `read_queue_size + 1` slots cover
    /// every observable depth; [`DramModel::flush_telemetry`] folds the
    /// tally into the recorder in one pass and zeroes it. Only written when
    /// telemetry is compiled in.
    depth_counts: Box<[u64]>,
    /// Stats totals already emitted to telemetry, so
    /// [`DramModel::flush_telemetry`] publishes deltas and stays correct
    /// across repeated flushes.
    flushed: DramStats,
}

impl DramModel {
    /// Creates an idle DRAM model.
    pub fn new(config: DramConfig) -> Self {
        let banks = vec![
            Bank {
                open_row: None,
                free_at: 0
            };
            config.total_banks()
        ];
        let blocks_per_row = (config.row_bytes / crate::addr::BLOCK_SIZE).max(1);
        let total_banks = (config.total_banks() as u64).max(1);
        DramModel {
            config,
            banks,
            // Full capacity up front: the queue's length is bounded by
            // `read_queue_size` (see `service_classified`), so no push
            // ever reallocates.
            inflight: Vec::with_capacity(config.read_queue_size),
            inflight_earliest: u64::MAX,
            blocks_per_row,
            total_banks,
            row_shift: blocks_per_row
                .is_power_of_two()
                .then(|| blocks_per_row.trailing_zeros()),
            bank_shift: total_banks
                .is_power_of_two()
                .then(|| total_banks.trailing_zeros()),
            // Clamp so `len + headroom >= queue_size` can never hold on an
            // idle queue: demand reads keep priority, but a quiet memory
            // system accepts prefetches at every queue size (the unclamped
            // constant used to shed 100% of prefetches whenever
            // `read_queue_size <= headroom`).
            prefetch_headroom: config
                .prefetch_headroom
                .min(config.read_queue_size.saturating_sub(1)),
            bus_free_at: 0,
            stats: DramStats::default(),
            depth_counts: vec![0; config.read_queue_size + 1].into_boxed_slice(),
            flushed: DramStats::default(),
        }
    }

    /// Removes every in-flight read that completed by `now`, keeping the
    /// cached minimum current. One compare when nothing has drained.
    #[inline]
    fn drain_inflight(&mut self, now: u64) {
        if self.inflight_earliest > now {
            return;
        }
        self.inflight.retain(|&c| c > now);
        // Recompute the cached minimum over the survivors (`u64::MAX` when
        // the queue emptied).
        self.inflight_earliest = self.inflight.iter().copied().fold(u64::MAX, u64::min);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Maps a block to its (bank index, row id).
    ///
    /// Consecutive blocks stay in one row; rows round-robin across banks so
    /// streaming accesses exploit bank-level parallelism, as real address
    /// interleaving does.
    fn map(&self, block: Block) -> (usize, u64) {
        let row_global = match self.row_shift {
            Some(s) => block.0 >> s,
            None => block.0 / self.blocks_per_row,
        };
        match self.bank_shift {
            Some(s) => (
                (row_global & (self.total_banks - 1)) as usize,
                row_global >> s,
            ),
            None => (
                (row_global % self.total_banks) as usize,
                row_global / self.total_banks,
            ),
        }
    }

    /// Services a read request arriving at cycle `now`; returns the cycle at
    /// which the data has been transferred back.
    pub fn service(&mut self, block: Block, now: u64) -> u64 {
        let (outcome, done) = self.service_classified(block, now);
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
            RowOutcome::Empty => self.stats.row_empties += 1,
        }
        done
    }

    /// Services a *prefetch* read, which runs at lower priority than demand
    /// traffic: the request is shed (returning `None`) when its target bank
    /// is already congested or the read queue is nearly full — mirroring
    /// how FR-FCFS controllers serve demands first and drop speculative
    /// requests under load rather than letting them delay demands.
    pub fn service_prefetch(&mut self, block: Block, now: u64) -> Option<u64> {
        self.drain_inflight(now);
        // `prefetch_headroom` queue slots stay reserved for demand reads
        // (clamped below the queue size at construction, so an idle queue
        // always has room — `read_queue_size <= headroom` used to shed
        // every prefetch unconditionally).
        if self.inflight.len() + self.prefetch_headroom >= self.config.read_queue_size {
            self.stats.prefetches_dropped += 1;
            return None;
        }
        let (bank_idx, _) = self.map(block);
        let congestion_slack = 2 * self.config.t_cas;
        if self.banks[bank_idx].free_at > now + congestion_slack {
            self.stats.prefetches_dropped += 1;
            return None;
        }
        Some(self.service(block, now))
    }

    /// Like [`DramModel::service`] but also reports the row-buffer outcome.
    pub fn service_classified(&mut self, block: Block, now: u64) -> (RowOutcome, u64) {
        self.stats.requests += 1;

        // Bounded read queue: if full, the request waits until the oldest
        // in-flight read drains.
        let mut start = now;
        self.drain_inflight(start);
        if telemetry::enabled() {
            // Tally locally; `flush_telemetry` folds the whole distribution
            // into `sim.dram.queue_depth` in one recorder round trip.
            self.depth_counts[self.inflight.len()] += 1;
        }
        if self.inflight.len() >= self.config.read_queue_size {
            let earliest = self.inflight_earliest;
            debug_assert_eq!(
                Some(&earliest),
                self.inflight.iter().min(),
                "cached queue minimum out of date"
            );
            let stall = earliest.saturating_sub(start);
            self.stats.queue_stall_cycles += stall;
            start = earliest;
            self.drain_inflight(start);
        }

        let (bank_idx, row) = self.map(block);
        let bank = &mut self.banks[bank_idx];
        let begin = start.max(bank.free_at);

        let (outcome, access_cycles) = match bank.open_row {
            Some(open) if open == row => (RowOutcome::Hit, self.config.t_cas),
            Some(_) => (
                RowOutcome::Conflict,
                self.config.t_rp + self.config.t_rcd + self.config.t_cas,
            ),
            None => (RowOutcome::Empty, self.config.t_rcd + self.config.t_cas),
        };
        bank.open_row = Some(row);

        let data_ready = begin + access_cycles;
        // Data bus is shared: transfers serialize.
        let bus_start = data_ready.max(self.bus_free_at);
        let done = bus_start + self.config.burst_cycles;
        self.bus_free_at = done;
        // Row hits pipeline column accesses (CAS-to-CAS), so the bank is only
        // held for one burst; activates occupy it for the whole access.
        bank.free_at = match outcome {
            RowOutcome::Hit => begin + self.config.burst_cycles,
            _ => data_ready,
        };

        debug_assert!(
            self.inflight.len() < self.config.read_queue_size,
            "read queue over capacity"
        );
        self.inflight.push(done);
        self.inflight_earliest = self.inflight_earliest.min(done);
        (outcome, done)
    }

    /// Publishes telemetry accumulated since the previous flush: the
    /// queue-depth distribution and deltas of every counter the model
    /// tracks. The aggregates are bit-identical to recording per request —
    /// counters are order-insensitive sums and the depth tally preserves
    /// exact bucket counts — but the hot path pays one array increment per
    /// request instead of recorder lookups. Counters that did not move are
    /// skipped, preserving the "absent, not zero" snapshot semantics.
    pub fn flush_telemetry(&mut self) {
        if !telemetry::enabled() {
            return;
        }
        for depth in 0..self.depth_counts.len() {
            let n = self.depth_counts[depth];
            telemetry::histogram_n!("sim.dram.queue_depth", depth as u64, n);
            self.depth_counts[depth] = 0;
        }
        let delta = |now: u64, then: u64| now - then;
        let pairs = [
            (
                "sim.dram.requests",
                delta(self.stats.requests, self.flushed.requests),
            ),
            (
                "sim.dram.row_hits",
                delta(self.stats.row_hits, self.flushed.row_hits),
            ),
            (
                "sim.dram.row_conflicts",
                delta(self.stats.row_conflicts, self.flushed.row_conflicts),
            ),
            (
                "sim.dram.row_empties",
                delta(self.stats.row_empties, self.flushed.row_empties),
            ),
            (
                "sim.dram.queue_stall_cycles",
                delta(
                    self.stats.queue_stall_cycles,
                    self.flushed.queue_stall_cycles,
                ),
            ),
            (
                "sim.dram.prefetches_dropped",
                delta(
                    self.stats.prefetches_dropped,
                    self.flushed.prefetches_dropped,
                ),
            ),
        ];
        for (name, d) in pairs {
            if d > 0 {
                telemetry::counter!(name, d);
            }
        }
        self.flushed = self.stats;
    }

    /// Resets banks, queues, and statistics.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = Bank {
                open_row: None,
                free_at: 0,
            };
        }
        self.inflight.clear();
        self.inflight_earliest = u64::MAX;
        self.bus_free_at = 0;
        self.stats = DramStats::default();
        self.depth_counts.fill(0);
        self.flushed = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DramConfig {
        DramConfig {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 2,
            t_rp: 10,
            t_rcd: 10,
            t_cas: 10,
            burst_cycles: 2,
            read_queue_size: 4,
            write_queue_size: 4,
            row_bytes: 256, // 4 blocks per row
            prefetch_headroom: 4,
        }
    }

    #[test]
    fn first_access_is_row_empty() {
        let mut d = DramModel::new(small_cfg());
        let (o, done) = d.service_classified(Block(0), 0);
        assert_eq!(o, RowOutcome::Empty);
        assert_eq!(done, 10 + 10 + 2); // tRCD + tCAS + burst
    }

    #[test]
    fn same_row_hits_are_cheaper() {
        let mut d = DramModel::new(small_cfg());
        let (_, first) = d.service_classified(Block(0), 0);
        let (o, second) = d.service_classified(Block(1), first);
        assert_eq!(o, RowOutcome::Hit);
        assert_eq!(second - first, 10 + 2); // tCAS + burst
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = small_cfg();
        let mut d = DramModel::new(cfg);
        // Rows alternate across the 2 banks; rows 0 and 2 share bank 0.
        let blocks_per_row = cfg.row_bytes / crate::addr::BLOCK_SIZE;
        let (_, t1) = d.service_classified(Block(0), 0);
        let (o, _) = d.service_classified(Block(blocks_per_row * 2), t1);
        assert_eq!(o, RowOutcome::Conflict);
    }

    #[test]
    fn banks_overlap_but_bus_serializes() {
        let cfg = small_cfg();
        let blocks_per_row = cfg.row_bytes / crate::addr::BLOCK_SIZE;
        let mut d = DramModel::new(cfg);
        // Two requests to different banks at the same instant.
        let (_, a) = d.service_classified(Block(0), 0);
        let (_, b) = d.service_classified(Block(blocks_per_row), 0);
        // Bank access overlaps (both start at 0) but bus transfer serializes,
        // so b completes exactly one burst after a.
        assert_eq!(b, a + cfg.burst_cycles);
    }

    #[test]
    fn read_queue_backpressure() {
        let mut cfg = small_cfg();
        cfg.read_queue_size = 1;
        let mut d = DramModel::new(cfg);
        let (_, first) = d.service_classified(Block(0), 0);
        // Second request at time 0 must wait for the queue slot.
        let (_, second) = d.service_classified(Block(1), 0);
        assert!(second >= first);
        assert!(d.stats().queue_stall_cycles > 0);
    }

    #[test]
    fn read_queue_never_exceeds_capacity() {
        // Bounded-buffer audit: whatever the arrival pattern, the in-flight
        // queue stays within the preallocated `read_queue_size` slots, so
        // the model never allocates after construction.
        let cfg = small_cfg();
        let mut d = DramModel::new(cfg);
        let cap_before = d.inflight.capacity();
        let mut x = 1u64;
        for i in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Arrival times progress slowly so the queue saturates.
            d.service(Block(x >> 40), i / 4);
            assert!(d.inflight.len() <= cfg.read_queue_size);
        }
        assert_eq!(d.inflight.capacity(), cap_before, "queue reallocated");
    }

    #[test]
    fn non_pow2_geometry_uses_division_mapping() {
        // 3 blocks per row and 3 banks: both fall off the shift/mask fast
        // path onto the division fallback, which must behave exactly like
        // the original arithmetic.
        let cfg = DramConfig {
            banks_per_rank: 3,
            row_bytes: 192,
            ..small_cfg()
        };
        let mut d = DramModel::new(cfg);
        assert_eq!(d.row_shift, None);
        assert_eq!(d.bank_shift, None);
        // Blocks 0..3 share row 0; block 3 opens a row on the next bank.
        let (_, t) = d.service_classified(Block(0), 0);
        let (o, t) = d.service_classified(Block(1), t);
        assert_eq!(o, RowOutcome::Hit);
        let (o, t) = d.service_classified(Block(2), t);
        assert_eq!(o, RowOutcome::Hit);
        let (o, t) = d.service_classified(Block(3), t);
        assert_eq!(o, RowOutcome::Empty, "block 3 starts row 1 on bank 1");
        // Global rows 0 and 3 share bank 0 (3 banks): conflict.
        let (o, _) = d.service_classified(Block(3 * 3), t);
        assert_eq!(o, RowOutcome::Conflict);
    }

    #[test]
    fn idle_queue_accepts_prefetches_at_every_queue_size() {
        // Regression: the headroom used to be hardwired to 4, so
        // `len + 4 >= read_queue_size` held even on an *empty* queue
        // whenever `read_queue_size <= 4` — every prefetch was shed and
        // small-queue sensitivity studies silently ran prefetch-less.
        for qsize in 1..=4usize {
            let cfg = DramConfig {
                read_queue_size: qsize,
                ..small_cfg()
            };
            let mut d = DramModel::new(cfg);
            assert!(
                d.service_prefetch(Block(0), 0).is_some(),
                "idle queue of size {qsize} must accept a prefetch"
            );
            assert_eq!(d.stats().prefetches_dropped, 0, "queue size {qsize}");
        }
    }

    #[test]
    fn full_small_queue_still_sheds_prefetches() {
        // The clamp keeps demand priority: with one slot and one in-flight
        // demand, a prefetch is shed until the demand drains.
        let cfg = DramConfig {
            read_queue_size: 1,
            ..small_cfg()
        };
        let mut d = DramModel::new(cfg);
        let done = d.service(Block(0), 0);
        assert!(d.service_prefetch(Block(64), 0).is_none());
        assert_eq!(d.stats().prefetches_dropped, 1);
        // Once the demand completes the queue is idle again.
        assert!(d.service_prefetch(Block(1), done).is_some());
    }

    #[test]
    fn oversized_headroom_is_clamped_below_queue_size() {
        let cfg = DramConfig {
            read_queue_size: 2,
            prefetch_headroom: 10,
            ..small_cfg()
        };
        let mut d = DramModel::new(cfg);
        assert_eq!(d.prefetch_headroom, 1);
        assert!(d.service_prefetch(Block(0), 0).is_some());
    }

    #[test]
    fn default_headroom_reserves_demand_slots() {
        // Default geometry behaviour is unchanged: a 64-slot queue sheds
        // prefetches once 60 reads are in flight (4 slots reserved).
        let mut d = DramModel::new(DramConfig::default());
        for i in 0..60u64 {
            d.service(Block(i), 0);
        }
        assert_eq!(d.inflight.len(), 60);
        assert!(d.service_prefetch(Block(1_000_000), 0).is_none());
        assert_eq!(d.stats().prefetches_dropped, 1);
    }

    #[test]
    fn reset_restores_idle_state() {
        let mut d = DramModel::new(small_cfg());
        d.service(Block(0), 0);
        d.reset();
        assert_eq!(*d.stats(), DramStats::default());
        let (o, _) = d.service_classified(Block(0), 0);
        assert_eq!(o, RowOutcome::Empty);
    }

    #[test]
    fn default_config_row_hit_latency_matches_table3() {
        let mut d = DramModel::new(DramConfig::default());
        let (_, first) = d.service_classified(Block(0), 0);
        assert_eq!(first, 50 + 50 + 4); // empty row: tRCD + tCAS + burst
        let (o, second) = d.service_classified(Block(1), first);
        assert_eq!(o, RowOutcome::Hit);
        assert_eq!(second - first, 54);
    }
}
