//! The PATHFINDER prefetcher: SNN + Training/Inference tables orchestrated
//! per Figure 1's dataflow.

use pathfinder_prefetch::Prefetcher;
use pathfinder_sim::{Block, MemoryAccess, BLOCKS_PER_PAGE};
use pathfinder_snn::{DiehlCookNetwork, RunOutcome};
use pathfinder_telemetry as telemetry;

use crate::config::{PathfinderConfig, Readout};
use crate::encoder::PixelMatrixEncoder;
use crate::snn_cache::{CachedQuery, SnnQueryCache};
use crate::tables::{InferenceTable, Prediction, TrainingTable, MAX_HISTORY};

/// Operational counters exposed for the paper's analyses (Table 6 issued
/// prefetches, labeling behaviour, SNN activity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathfinderStats {
    /// Demand accesses observed.
    pub accesses: u64,
    /// SNN queries performed.
    pub snn_queries: u64,
    /// Queries in which at least one neuron fired (or the 1-tick argmax was
    /// taken).
    pub fired: u64,
    /// Labels assigned to neurons.
    pub labels_assigned: u64,
    /// Predictions that matched the next access (confidence rewards).
    pub predictions_correct: u64,
    /// Predictions that missed (confidence penalties).
    pub predictions_wrong: u64,
    /// Prefetch addresses produced.
    pub prefetches_issued: u64,
    /// Full-interval queries where some neuron fired (Table 1 denominator).
    pub one_tick_comparisons: u64,
    /// Of those, queries where the first-tick argmax-potential neuron
    /// matched the 32-tick winner (Table 1 numerator).
    pub one_tick_matches: u64,
    /// Frozen-inference queries answered from the prediction cache.
    pub snn_cache_hits: u64,
    /// Frozen-inference queries that ran the SNN (cache miss or disabled).
    pub snn_cache_misses: u64,
    /// Prediction-cache entries evicted by the capacity bound.
    pub snn_cache_evictions: u64,
    /// Wholesale prediction-cache clears caused by weight-version changes.
    pub snn_cache_invalidations: u64,
}

impl PathfinderStats {
    /// Table 1's metric: fraction of full-interval queries whose first-tick
    /// highest-potential neuron equals the eventual most-firing neuron.
    pub fn one_tick_match_rate(&self) -> f64 {
        if self.one_tick_comparisons == 0 {
            0.0
        } else {
            self.one_tick_matches as f64 / self.one_tick_comparisons as f64
        }
    }
}

/// The PATHFINDER data prefetcher (§3).
///
/// # Examples
///
/// ```
/// use pathfinder_core::{PathfinderConfig, PathfinderPrefetcher};
/// use pathfinder_prefetch::{generate_prefetches, Prefetcher};
/// use pathfinder_sim::{MemoryAccess, Trace};
///
/// // A strided stream inside pages: PATHFINDER should learn delta +2.
/// let trace: Trace = (0..2000)
///     .map(|i| {
///         let page = i / 30;
///         let off = (i % 30) * 2;
///         MemoryAccess::new(i, 0x400, page * 4096 + off * 64)
///     })
///     .collect();
/// let mut pf = PathfinderPrefetcher::new(PathfinderConfig::default())?;
/// let schedule = generate_prefetches(&mut pf, &trace, 2);
/// assert!(!schedule.is_empty());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct PathfinderPrefetcher {
    config: PathfinderConfig,
    network: DiehlCookNetwork,
    encoder: PixelMatrixEncoder,
    training: TrainingTable,
    inference: InferenceTable,
    /// Memo of frozen-inference query results (see [`SnnQueryCache`]).
    cache: SnnQueryCache,
    stats: PathfinderStats,
    /// Scratch for the predictions of the access being processed, copied
    /// into its Training Table row at exact size.
    tracked: Vec<Prediction>,
}

impl PathfinderPrefetcher {
    /// Builds a PATHFINDER from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `config` is inconsistent.
    pub fn new(config: PathfinderConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(PathfinderPrefetcher {
            network: DiehlCookNetwork::new(config.snn_config(), config.seed)?,
            encoder: PixelMatrixEncoder::new(&config),
            training: TrainingTable::new(config.training_table_entries, config.history),
            inference: InferenceTable::new(config.neurons, config.labels_per_neuron),
            cache: SnnQueryCache::new(config.snn_cache_entries),
            stats: PathfinderStats::default(),
            tracked: Vec::new(),
            config,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PathfinderConfig {
        &self.config
    }

    /// Operational counters.
    pub fn stats(&self) -> &PathfinderStats {
        &self.stats
    }

    /// Read access to the inference table (for inspection in examples and
    /// tests).
    pub fn inference_table(&self) -> &InferenceTable {
        &self.inference
    }

    /// Queries the SNN and returns the firing neurons in priority order.
    ///
    /// `key` is the packed pixel-matrix key for `rates`
    /// ([`PixelMatrixEncoder::encode_key`]). Learning queries run the live
    /// kernels; duty-cycled inference queries are pure in
    /// `(key, readout, weight_version)` and route through the frozen kernel
    /// and its memo, so a repeated matrix skips the SNN entirely.
    fn query(&mut self, rates: &[f32], key: u64, learn: bool) -> Vec<usize> {
        self.stats.snn_queries += 1;
        telemetry::counter!("pf.snn.queries", 1);
        if learn {
            return match self.config.readout {
                Readout::FullInterval => {
                    let digest = Self::digest_outcome(self.network.present(rates, true));
                    self.apply_query_stats(&digest);
                    digest.order
                }
                Readout::OneTick => {
                    let winner = self.network.present_one_tick(rates, true);
                    self.stats.fired += 1;
                    vec![winner]
                }
            };
        }

        // Frozen phase: drop stale memo entries if learning moved the
        // weights since they were computed, then consult the cache. A miss
        // runs the pure inference kernel, whose result is valid for every
        // later query at this weight version.
        self.cache.sync_version(self.network.weight_version());
        let readout = self.config.readout;
        let digest = match self.cache.get(key, readout) {
            Some(cached) => cached,
            None => {
                let fresh = match readout {
                    Readout::FullInterval => {
                        Self::digest_outcome(self.network.present_frozen(rates))
                    }
                    // The 1-tick readout without learning is already a pure,
                    // RNG-free function of the weights and thresholds.
                    Readout::OneTick => CachedQuery {
                        order: vec![self.network.present_one_tick(rates, false)],
                        any_fired: true,
                        winner_matched_argmax: None,
                    },
                };
                self.cache.insert(key, readout, fresh.clone());
                fresh
            }
        };
        self.apply_query_stats(&digest);
        self.reconcile_cache_stats();
        digest.order
    }

    /// Collapses a presentation outcome into the memoized form: the neuron
    /// preference order (winner first, then remaining firers in fire order —
    /// multi-degree via lowered inhibition, §3.4) plus the two stat flags a
    /// cache hit must replay.
    fn digest_outcome(out: RunOutcome) -> CachedQuery {
        let mut order = Vec::with_capacity(out.fired.len());
        if let Some(w) = out.winner {
            order.push(w);
        }
        for n in out.fired {
            if !order.contains(&n) {
                order.push(n);
            }
        }
        CachedQuery {
            any_fired: !order.is_empty(),
            winner_matched_argmax: out.winner.map(|w| out.first_tick_argmax == w),
            order,
        }
    }

    /// Applies a query's stat flags — identically for fresh runs and cache
    /// hits, so the counters are invariant under memoization.
    fn apply_query_stats(&mut self, digest: &CachedQuery) {
        if digest.any_fired {
            self.stats.fired += 1;
        }
        if let Some(matched) = digest.winner_matched_argmax {
            self.stats.one_tick_comparisons += 1;
            if matched {
                self.stats.one_tick_matches += 1;
            }
        }
    }

    /// Folds the cache's monotonic counters into the prefetcher stats,
    /// emitting the per-query deltas as telemetry.
    fn reconcile_cache_stats(&mut self) {
        let cs = self.cache.stats();
        if telemetry::enabled() {
            telemetry::counter!("core.snn_cache.hits", cs.hits - self.stats.snn_cache_hits);
            telemetry::counter!(
                "core.snn_cache.misses",
                cs.misses - self.stats.snn_cache_misses
            );
            telemetry::counter!(
                "core.snn_cache.evictions",
                cs.evictions - self.stats.snn_cache_evictions
            );
            telemetry::counter!(
                "core.snn_cache.invalidations",
                cs.invalidations - self.stats.snn_cache_invalidations
            );
        }
        self.stats.snn_cache_hits = cs.hits;
        self.stats.snn_cache_misses = cs.misses;
        self.stats.snn_cache_evictions = cs.evictions;
        self.stats.snn_cache_invalidations = cs.invalidations;
    }

    /// Processes a run of accesses in order: one [`Prefetcher::on_access`]
    /// per access, returning each access's prefetch blocks.
    pub fn on_access_run(&mut self, accesses: &[MemoryAccess]) -> Vec<Vec<Block>> {
        accesses.iter().map(|a| self.on_access(a)).collect()
    }

    /// The §3.4 encoding branch: the rate matrix and packed key for a
    /// stream whose training entry holds `deltas` after `touches` touches,
    /// the latest at `offset`. Full history encodes the deltas; with the
    /// initial-access extension a shorter history encodes the first offset
    /// or the partial deltas; the basic design returns `None` (no query
    /// until `history` deltas are known).
    fn encode_query(&self, deltas: &[i16], touches: u64, offset: u8) -> Option<(Vec<f32>, u64)> {
        let enc = &self.encoder;
        if deltas.len() >= self.config.history {
            Some((enc.encode(deltas), enc.encode_key(deltas)))
        } else if !self.config.initial_access_encoding {
            None
        } else if touches == 1 {
            // §3.4 "Initial Accesses to a Page".
            Some((
                enc.encode_initial(Some(offset), &[]),
                enc.encode_initial_key(Some(offset), &[]),
            ))
        } else {
            Some((
                enc.encode_initial(None, deltas),
                enc.encode_initial_key(None, deltas),
            ))
        }
    }
}

impl Prefetcher for PathfinderPrefetcher {
    fn name(&self) -> &str {
        "PATHFINDER"
    }

    fn on_access(&mut self, access: &MemoryAccess) -> Vec<Block> {
        self.stats.accesses += 1;
        telemetry::counter!("pf.accesses", 1);
        let learn = self
            .config
            .stdp_duty
            .learning_enabled(self.stats.accesses - 1);
        let pc = access.pc.raw();
        let block = access.block();
        let page = block.page();
        let offset = block.page_offset();

        // -- Feedback & labeling state from the previous access to this
        //    (PC, page) stream. Same-block repeats are invisible at the LLC
        //    (upper levels filter them), so they neither update confidence
        //    nor re-query the SNN. Every later path replaces the row's
        //    predictions, so they are taken, not copied.
        let (prev_fired, prev_predictions) = match self.training.peek_mut(pc, page.0) {
            Some(e) if e.touches() > 0 && e.last_offset() == offset => {
                return Vec::new();
            }
            Some(e) => (e.fired(), e.take_predictions()),
            None => (None, Box::default()),
        };

        // (1) Confidence estimation (§3.4): compare the predictions issued
        //     on the previous access with the block actually touched now.
        for &p in prev_predictions.iter() {
            let (neuron, slot) = (p.neuron(), p.slot());
            if p.offset() == offset {
                self.inference.reward(neuron, slot);
                self.stats.predictions_correct += 1;
                telemetry::counter!("pf.confidence.rewards", 1);
            } else {
                self.inference.penalize(neuron, slot);
                self.stats.predictions_wrong += 1;
                telemetry::counter!("pf.confidence.penalties", 1);
            }
        }

        // (2) Record the access; the resulting delta labels the neuron that
        //     fired for the previous query (§3.3: "the Inference Table
        //     captures the next delta... we can now label the output
        //     neuron").
        let delta = self.training.record_offset(pc, page.0, offset);
        if let (Some(neuron), Some(d)) = (prev_fired, delta) {
            if self.inference.assign(neuron, d).is_some() {
                self.stats.labels_assigned += 1;
                telemetry::counter!("pf.labels.assigned", 1);
            }
        }

        // (3) Encode the current history and query the SNN.
        let entry = self.training.peek(pc, page.0).expect("entry just touched");
        let mut history = [0; MAX_HISTORY];
        let deltas = entry.deltas(&mut history);
        let Some((rates, key)) = self.encode_query(deltas, entry.touches(), offset) else {
            // Basic design: wait for H deltas before querying.
            self.training.touch(pc, page.0).set_query(None, &[]);
            return Vec::new();
        };
        let fired = self.query(&rates, key, learn);

        // (4) Prediction: high-confidence labels of the firing neurons,
        //     best label first, capped at the prefetch degree and the page
        //     boundary ("predicts the next block to be accessed within that
        //     same page").
        // Every live label of a firing neuron constitutes a *prediction* and
        // is tracked for confidence feedback; only labels above the
        // confidence threshold also *issue* a prefetch.
        let mut prefetches = Vec::with_capacity(self.config.degree);
        self.tracked.clear();
        for &neuron in &fired {
            for (slot, label) in self.inference.labels(neuron) {
                let target = offset as i16 + label.delta;
                if !(0..BLOCKS_PER_PAGE as i16).contains(&target) {
                    continue;
                }
                let target = target as u8;
                self.tracked.push(Prediction::new(neuron, slot, target));
                if label.confidence > self.config.confidence_threshold
                    && prefetches.len() < self.config.degree
                {
                    let b = page.block_at(target);
                    if b != block && !prefetches.contains(&b) {
                        prefetches.push(b);
                    }
                }
            }
            if prefetches.len() >= self.config.degree {
                break;
            }
        }

        // (5) Remember this query's winner and predictions for the next
        //     access to this stream.
        self.training
            .touch(pc, page.0)
            .set_query(fired.first().copied(), &self.tracked);

        self.stats.prefetches_issued += prefetches.len() as u64;
        telemetry::counter!("pf.prefetches.issued", prefetches.len() as u64);
        prefetches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathfinder_prefetch::generate_prefetches;
    use pathfinder_sim::Trace;

    /// Small, fast configuration for unit tests.
    fn test_cfg() -> PathfinderConfig {
        PathfinderConfig {
            neurons: 20,
            delta_range: 31,
            readout: Readout::OneTick,
            ..PathfinderConfig::default()
        }
    }

    /// Pages visited with a repeating in-page delta pattern.
    fn delta_pattern_trace(pages: u64, deltas: &[u8]) -> Trace {
        let mut accesses = Vec::new();
        let mut id = 0u64;
        for page in 0..pages {
            let mut off = 0u64;
            accesses.push(MemoryAccess::new(id, 0x400, page * 4096 + off * 64));
            id += 1;
            for rep in 0..12 {
                let d = deltas[rep % deltas.len()] as u64;
                if off + d >= 64 {
                    break;
                }
                off += d;
                accesses.push(MemoryAccess::new(id, 0x400, page * 4096 + off * 64));
                id += 1;
            }
        }
        Trace::from_accesses(accesses)
    }

    #[test]
    fn learns_a_repeating_delta_pattern() {
        let trace = delta_pattern_trace(400, &[2]);
        let mut pf = PathfinderPrefetcher::new(test_cfg()).unwrap();
        let reqs = generate_prefetches(&mut pf, &trace, 2);
        assert!(!reqs.is_empty(), "pathfinder should issue prefetches");

        // In the back half of the trace (after learning), predictions
        // should frequently match the actual next access.
        let accesses = trace.accesses();
        let half = accesses.len() / 2;
        let mut hits = 0usize;
        let mut total = 0usize;
        for r in &reqs {
            let idx = r.trigger_instr_id as usize;
            if idx < half || idx + 1 >= accesses.len() {
                continue;
            }
            total += 1;
            if accesses[idx + 1].block() == r.block {
                hits += 1;
            }
        }
        assert!(total > 0, "prefetches in the trained half");
        assert!(
            hits as f64 / total as f64 > 0.4,
            "trained accuracy should be substantial: {hits}/{total}"
        );
    }

    #[test]
    fn stats_track_activity() {
        let trace = delta_pattern_trace(100, &[3]);
        let mut pf = PathfinderPrefetcher::new(test_cfg()).unwrap();
        let _ = generate_prefetches(&mut pf, &trace, 2);
        let s = pf.stats();
        assert_eq!(s.accesses, trace.len() as u64);
        assert!(s.snn_queries > 0);
        assert!(s.labels_assigned > 0, "labels should be learned");
        assert!(s.prefetches_issued > 0);
    }

    #[test]
    fn predictions_stay_within_page() {
        let trace = delta_pattern_trace(80, &[5]);
        let mut pf = PathfinderPrefetcher::new(test_cfg()).unwrap();
        let reqs = generate_prefetches(&mut pf, &trace, 2);
        let accesses = trace.accesses();
        for r in &reqs {
            let trigger_page = accesses[r.trigger_instr_id as usize].vaddr.page();
            assert_eq!(
                r.block.page(),
                trigger_page,
                "prefetch must stay in the trigger's page"
            );
        }
    }

    #[test]
    fn without_initial_access_encoding_waits_for_history() {
        let cfg = PathfinderConfig {
            initial_access_encoding: false,
            ..test_cfg()
        };
        let mut pf = PathfinderPrefetcher::new(cfg).unwrap();
        // First three accesses to a page: no prefetches possible (H=3
        // deltas require 4 accesses).
        for i in 0..3u64 {
            let out = pf.on_access(&MemoryAccess::new(i, 0x400, 7 * 4096 + i * 2 * 64));
            assert!(out.is_empty(), "access {i} should not prefetch yet");
        }
        assert_eq!(pf.stats().snn_queries, 0);
    }

    #[test]
    fn initial_access_encoding_queries_immediately() {
        let mut pf = PathfinderPrefetcher::new(test_cfg()).unwrap();
        pf.on_access(&MemoryAccess::new(0, 0x400, 7 * 4096));
        assert_eq!(pf.stats().snn_queries, 1, "first touch queries the SNN");
    }

    #[test]
    fn confidence_feedback_flows() {
        let trace = delta_pattern_trace(300, &[2]);
        let mut pf = PathfinderPrefetcher::new(test_cfg()).unwrap();
        let _ = generate_prefetches(&mut pf, &trace, 2);
        let s = *pf.stats();
        assert!(
            s.predictions_correct > 0,
            "some predictions should be confirmed: {s:?}"
        );
    }

    #[test]
    fn stdp_duty_cycle_limits_learning() {
        use crate::config::StdpDutyCycle;
        let cfg = PathfinderConfig {
            stdp_duty: StdpDutyCycle::first_n_of_5000(10),
            ..test_cfg()
        };
        let trace = delta_pattern_trace(50, &[2]);
        let mut pf = PathfinderPrefetcher::new(cfg).unwrap();
        // Just verifies the configuration is exercised without error.
        let reqs = generate_prefetches(&mut pf, &trace, 2);
        let _ = reqs;
        assert_eq!(pf.stats().accesses, trace.len() as u64);
    }

    #[test]
    fn multi_label_records_two_patterns() {
        // Alternate two delta patterns; with 2 labels per neuron the table
        // can hold both.
        let mut accesses = Vec::new();
        let mut id = 0u64;
        for page in 0..300u64 {
            let deltas: &[u64] = if page % 2 == 0 {
                &[2, 2, 2, 2]
            } else {
                &[2, 2, 2, 9]
            };
            let mut off = 0u64;
            accesses.push(MemoryAccess::new(id, 0x400, page * 4096));
            id += 1;
            for &d in deltas {
                off += d;
                if off >= 64 {
                    break;
                }
                accesses.push(MemoryAccess::new(id, 0x400, page * 4096 + off * 64));
                id += 1;
            }
        }
        let trace = Trace::from_accesses(accesses);
        let mut pf = PathfinderPrefetcher::new(test_cfg()).unwrap();
        let _ = generate_prefetches(&mut pf, &trace, 2);
        assert!(pf.inference_table().live_labels() >= 2);
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = PathfinderConfig {
            delta_range: 0,
            ..PathfinderConfig::default()
        };
        assert!(PathfinderPrefetcher::new(cfg).is_err());
    }

    /// `on_access_run` is `on_access` once per access, on a duty-cycled
    /// full-interval config whose off phases run frozen queries (fresh
    /// keys, cache hits and repeats) and whose runs straddle phase
    /// boundaries.
    #[test]
    fn on_access_run_matches_sequential() {
        use crate::config::StdpDutyCycle;
        let cfg = PathfinderConfig {
            neurons: 20,
            delta_range: 31,
            readout: Readout::FullInterval,
            stdp_duty: StdpDutyCycle::first_n_of_5000(60),
            ..PathfinderConfig::default()
        };
        let trace: Trace = (0..600u64)
            .map(|i| {
                let pc = 0x400 + (i % 4) * 8;
                let page = i % 7;
                let off = (i * (2 + i % 3)) % 64;
                MemoryAccess::new(i, pc, page * 4096 + off * 64)
            })
            .collect();
        let mut seq = PathfinderPrefetcher::new(cfg).unwrap();
        let mut run = PathfinderPrefetcher::new(cfg).unwrap();
        assert!(run.on_access_run(&[]).is_empty());
        let expected: Vec<Vec<Block>> = trace.accesses().iter().map(|a| seq.on_access(a)).collect();
        let mut got = Vec::new();
        for chunk in trace.accesses().chunks(37) {
            got.extend(run.on_access_run(chunk));
        }
        assert_eq!(got, expected, "per-access prefetches must match");
        assert_eq!(run.stats(), seq.stats());
    }
}
