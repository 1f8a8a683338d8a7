//! Per-stream serving state: one PATHFINDER prefetcher and a replay log of
//! the accesses it has seen and the prefetch schedule it has produced.
//!
//! The parity discipline lives here. A [`StreamSession`] feeds each access
//! through exactly the per-access loop of
//! [`pathfinder_prefetch::generate_prefetches`] — same dedup, same
//! `max_degree` truncation, same `PrefetchRequest` construction — and its
//! drain replays the logged accesses and schedule through the same
//! [`Simulator`] the batch path uses. `Prefetcher::prepare` is a no-op for
//! PATHFINDER (it learns online), so serving accesses one at a time is the
//! same computation as handing the whole trace over at once: schedules and
//! reports are bit-identical across the service boundary.

use pathfinder_core::{PathfinderConfig, PathfinderPrefetcher, PathfinderStats};
use pathfinder_sim::{
    Block, MemoryAccess, PrefetchRequest, ReplayAccess, SimConfig, SimReport, Simulator,
};

use crate::protocol::{AccessRecord, ConfigDelta, DrainedStream};

/// The immutable template new streams are built from: a PATHFINDER
/// configuration (whose seed each stream XORs its id into) and the simulator
/// configuration used at drain time.
#[derive(Debug, Clone, Default)]
pub struct StreamTemplate {
    /// PATHFINDER configuration; `seed` is the template seed.
    pub config: PathfinderConfig,
    /// Simulator configuration for the drain-time timed replay.
    pub sim: SimConfig,
}

impl StreamTemplate {
    /// The per-stream configuration: the template with `seed ^ stream_id`,
    /// mirroring the harness convention so a batch comparator can
    /// reconstruct any stream's prefetcher from `(template, stream_id)`.
    pub fn config_for_stream(&self, stream: u64) -> PathfinderConfig {
        let mut cfg = self.config;
        cfg.seed ^= stream;
        cfg
    }

    /// Applies a `configure` delta, validating the result.
    ///
    /// # Errors
    ///
    /// Returns the validation message when the delta produces an invalid
    /// configuration; the template is left unchanged.
    pub fn apply(&mut self, delta: &ConfigDelta) -> Result<(), String> {
        let mut cfg = self.config;
        if let Some(degree) = delta.degree {
            cfg.degree = degree as usize;
        }
        if let Some(seed) = delta.seed {
            cfg.seed = seed;
        }
        if let Some((on, epoch)) = delta.duty {
            cfg.stdp_duty = pathfinder_core::StdpDutyCycle {
                on_accesses: on,
                epoch_accesses: epoch,
            };
        }
        if let Some(entries) = delta.snn_cache_entries {
            cfg.snn_cache_entries = entries as usize;
        }
        cfg.validate()?;
        self.config = cfg;
        Ok(())
    }
}

/// Bytes per chunk of a [`ChunkedLog`].
const CHUNK_BYTES: usize = 4096;

/// An append-only sequence kept in fixed-size chunks: growth allocates one
/// more chunk and never copies or frees what is stored, so a long stream
/// leaves no freed halves of doubled buffers behind.
#[derive(Debug)]
struct ChunkedLog<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T: Copy> ChunkedLog<T> {
    const CHUNK_LEN: usize = CHUNK_BYTES / std::mem::size_of::<T>();

    fn new() -> Self {
        ChunkedLog {
            chunks: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, item: T) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK_LEN => chunk.push(item),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK_LEN);
                chunk.push(item);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    fn iter(&self) -> LogIter<'_, T> {
        LogIter {
            items: self.chunks.iter().flatten(),
            remaining: self.len,
        }
    }
}

/// In-order iterator over a [`ChunkedLog`] that knows its length.
#[derive(Debug, Clone)]
struct LogIter<'a, T> {
    items: std::iter::Flatten<std::slice::Iter<'a, Vec<T>>>,
    remaining: usize,
}

impl<T: Copy> Iterator for LogIter<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let item = *self.items.next()?;
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T: Copy> ExactSizeIterator for LogIter<'_, T> {}

/// One logged access in 16 bytes: the fields the drain's replay reads.
/// A block is a byte address over 64, so it fits in 58 bits and leaves
/// the low bit for `depends_on_prev`.
#[derive(Debug, Clone, Copy)]
struct LoggedAccess {
    instr_id: u64,
    block_dep: u64,
}

impl LoggedAccess {
    fn new(access: &MemoryAccess) -> Self {
        LoggedAccess {
            instr_id: access.instr_id,
            block_dep: access.block().0 << 1 | access.depends_on_prev as u64,
        }
    }

    #[inline]
    fn replay(self) -> ReplayAccess {
        ReplayAccess {
            instr_id: self.instr_id,
            block: Block(self.block_dep >> 1),
            depends_on_prev: self.block_dep & 1 == 1,
        }
    }
}

/// One live stream: its prefetcher and its replay log.
#[derive(Debug)]
pub struct StreamSession {
    stream: u64,
    prefetcher: PathfinderPrefetcher,
    accesses: ChunkedLog<LoggedAccess>,
    schedule: ChunkedLog<PrefetchRequest>,
    last_prediction: Vec<Block>,
    max_degree: usize,
    sim: SimConfig,
}

impl StreamSession {
    /// Creates a session for `stream` from the template.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures from the prefetcher
    /// constructor.
    pub fn new(stream: u64, template: &StreamTemplate) -> Result<Self, String> {
        let config = template.config_for_stream(stream);
        let max_degree = template.sim.max_prefetch_degree;
        let prefetcher = PathfinderPrefetcher::new(config)?;
        Ok(StreamSession {
            stream,
            prefetcher,
            accesses: ChunkedLog::new(),
            schedule: ChunkedLog::new(),
            last_prediction: Vec::new(),
            max_degree,
            sim: template.sim,
        })
    }

    /// Stream id.
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Demand loads ingested so far.
    pub fn accesses(&self) -> u64 {
        self.accesses.len as u64
    }

    /// Schedule entries accumulated so far.
    pub fn schedule_len(&self) -> u64 {
        self.schedule.len as u64
    }

    /// Blocks predicted on the most recent access (read-only `predict`).
    pub fn last_prediction(&self) -> &[Block] {
        &self.last_prediction
    }

    /// The prefetcher's operational counters.
    pub fn stats(&self) -> PathfinderStats {
        *self.prefetcher.stats()
    }

    /// The simulator configuration the drain replays with.
    pub fn sim_config(&self) -> SimConfig {
        self.sim
    }

    /// Converts a wire record into the simulator's access form.
    fn to_access(rec: AccessRecord) -> MemoryAccess {
        let access = MemoryAccess::new(rec.instr_id, rec.pc, rec.vaddr);
        if rec.depends_on_prev {
            access.dependent()
        } else {
            access
        }
    }

    /// The per-access tail of `generate_prefetches`: dedup, `max_degree`
    /// truncation, schedule/log/last-prediction bookkeeping.
    fn issue(&mut self, access: &MemoryAccess, blocks: Vec<Block>) -> Vec<Block> {
        let mut seen: Vec<Block> = Vec::with_capacity(self.max_degree);
        for b in blocks {
            if seen.len() >= self.max_degree {
                break;
            }
            if !seen.contains(&b) {
                seen.push(b);
                self.schedule.push(PrefetchRequest::new(access.instr_id, b));
            }
        }
        self.accesses.push(LoggedAccess::new(access));
        self.last_prediction.clone_from(&seen);
        seen
    }

    /// Ingests a run of demand loads back-to-back and returns the blocks
    /// issued for each, in input order, plus the number of frozen SNN
    /// inferences the run executed (the `snn_cache_misses` delta: every
    /// duty-cycled-off query that missed the memoization cache). A single
    /// access is a one-record run.
    ///
    /// Each access gets exactly the per-access body of
    /// `generate_prefetches` — dedup, `max_degree` truncation, schedule and
    /// log bookkeeping — after [`PathfinderPrefetcher::on_access_run`],
    /// which is `on_access` once per record.
    pub fn access_run(&mut self, recs: &[AccessRecord]) -> (Vec<Vec<Block>>, u64) {
        let misses_before = self.prefetcher.stats().snn_cache_misses;
        let accesses: Vec<MemoryAccess> = recs.iter().map(|&rec| Self::to_access(rec)).collect();
        let per_access = self.prefetcher.on_access_run(&accesses);
        let out = accesses
            .iter()
            .zip(per_access)
            .map(|(access, blocks)| self.issue(access, blocks))
            .collect();
        let grouped = self.prefetcher.stats().snn_cache_misses - misses_before;
        (out, grouped)
    }

    /// Finishes the stream: runs the timed replay of the logged accesses
    /// against the logged schedule (the same computation the batch path
    /// performs) and packages the result for the `drain` reply.
    pub fn drain(self) -> DrainedStream {
        let mut sim = Simulator::new(self.sim);
        self.drain_on(&mut sim)
    }

    /// [`StreamSession::drain`] replaying on `sim`, which a caller reuses
    /// across drains so each replay does not allocate and fault in fresh
    /// cache arrays. `sim` is rebuilt first if its configuration is not the
    /// session's; the result is bit-identical to `drain`.
    pub fn drain_on(self, sim: &mut Simulator) -> DrainedStream {
        if *sim.config() != self.sim {
            *sim = Simulator::new(self.sim);
        }
        let report = if self.accesses.len == 0 {
            SimReport::default()
        } else {
            sim.replay_iter(
                self.accesses.iter().map(LoggedAccess::replay),
                self.schedule.iter(),
            )
        };
        DrainedStream {
            stream: self.stream,
            schedule: self
                .schedule
                .iter()
                .map(|r| (r.trigger_instr_id, r.block.0))
                .collect(),
            report,
            pf: *self.prefetcher.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathfinder_prefetch::generate_prefetches;
    use pathfinder_sim::Trace;

    fn synthetic(loads: u64) -> Vec<AccessRecord> {
        // A strided stream with a periodic irregular hop: enough structure
        // for PATHFINDER to learn from, enough noise to exercise wrong
        // predictions too.
        (0..loads)
            .map(|i| AccessRecord {
                instr_id: i * 3,
                pc: 0x400 + (i % 4) * 8,
                vaddr: i * 64 + if i % 17 == 0 { 4096 } else { 0 },
                depends_on_prev: i % 5 == 0,
            })
            .collect()
    }

    #[test]
    fn incremental_access_matches_generate_prefetches() {
        let template = StreamTemplate::default();
        let records = synthetic(400);

        let mut session = StreamSession::new(9, &template).unwrap();
        for r in &records {
            session.access_run(std::slice::from_ref(r));
        }
        let drained = session.drain();

        // Batch path: same per-stream config, same trace, one call.
        let mut batch = PathfinderPrefetcher::new(template.config_for_stream(9)).unwrap();
        let trace: Trace = records
            .iter()
            .map(|r| {
                let a = MemoryAccess::new(r.instr_id, r.pc, r.vaddr);
                if r.depends_on_prev {
                    a.dependent()
                } else {
                    a
                }
            })
            .collect();
        let schedule = generate_prefetches(&mut batch, &trace, template.sim.max_prefetch_degree);
        let report = Simulator::new(template.sim).run(&trace, &schedule);

        let batch_pairs: Vec<(u64, u64)> = schedule
            .iter()
            .map(|r| (r.trigger_instr_id, r.block.0))
            .collect();
        assert_eq!(
            drained.schedule, batch_pairs,
            "schedules must be bit-identical"
        );
        assert_eq!(drained.report, report, "reports must be bit-identical");
        assert_eq!(&drained.pf, batch.stats(), "stats must be bit-identical");
    }

    #[test]
    fn access_run_matches_one_at_a_time_and_counts_frozen_inferences() {
        // Duty-cycled template so the run actually exercises the frozen
        // path whose grouped inferences access_run reports.
        let mut template = StreamTemplate::default();
        template.config.stdp_duty = pathfinder_core::StdpDutyCycle::first_n_of_5000(100);
        let records = synthetic(600);

        let mut one_at_a_time = StreamSession::new(3, &template).unwrap();
        let singles: Vec<Vec<Block>> = records
            .iter()
            .flat_map(|r| one_at_a_time.access_run(std::slice::from_ref(r)).0)
            .collect();

        let mut grouped = StreamSession::new(3, &template).unwrap();
        let mut runs = Vec::new();
        let mut frozen = 0u64;
        for chunk in records.chunks(37) {
            let (blocks, grouped_inferences) = grouped.access_run(chunk);
            runs.extend(blocks);
            frozen += grouped_inferences;
        }
        assert_eq!(singles, runs, "grouping must not change any prediction");
        assert_eq!(
            frozen,
            grouped.stats().snn_cache_misses,
            "every cache-missing frozen query is reported as grouped work"
        );
        // The drain must stay bit-identical down to every stats counter,
        // not just the schedule.
        assert_eq!(
            one_at_a_time.stats(),
            grouped.stats(),
            "grouping must leave all counters invariant"
        );
        let (single_drain, grouped_drain) = (one_at_a_time.drain(), grouped.drain());
        assert_eq!(single_drain.schedule, grouped_drain.schedule);
        assert_eq!(single_drain.report, grouped_drain.report);
        assert_eq!(single_drain.pf, grouped_drain.pf);
    }

    #[test]
    fn empty_stream_drains_to_default_report() {
        let session = StreamSession::new(1, &StreamTemplate::default()).unwrap();
        let drained = session.drain();
        assert_eq!(drained.report, SimReport::default());
        assert!(drained.schedule.is_empty());
    }

    #[test]
    fn configure_delta_rejects_invalid_and_applies_valid() {
        let mut template = StreamTemplate::default();
        let bad = ConfigDelta {
            degree: Some(0),
            ..ConfigDelta::default()
        };
        assert!(template.apply(&bad).is_err());
        assert_eq!(template.config.degree, PathfinderConfig::default().degree);

        let good = ConfigDelta {
            seed: Some(0x1234),
            duty: Some((250, 5000)),
            ..ConfigDelta::default()
        };
        template.apply(&good).unwrap();
        assert_eq!(template.config.seed, 0x1234);
        assert_eq!(template.config.stdp_duty.on_accesses, 250);
        // Per-stream seed derivation XORs the id on top.
        assert_eq!(template.config_for_stream(5).seed, 0x1234 ^ 5);
    }
}
