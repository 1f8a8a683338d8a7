//! The Diehl & Cook spiking network PATHFINDER is built on: an input layer
//! rate-coding the memory-access pixel matrix, an excitatory layer learning
//! via STDP, and a one-to-one inhibitory layer providing lateral inhibition
//! (§3.1, Figure 1).
//!
//! The presentation hot path is an *event-driven* kernel that visits only
//! live state: each tick samples just the active inputs (spike
//! probabilities hoisted per presentation), sums the spiking inputs' weight
//! rows in registers into a reusable per-neuron buffer, lands it on the
//! membrane in the same [`LifLayer::tick`] pass that steps the population
//! and decays theta, and batches lateral inhibition as
//! `total spike drive − own contribution`. The inhibitory layer's only
//! effect is that suppression, so its population is not stepped. STDP
//! decays and scans only the traces that can be non-zero (active inputs,
//! neurons that fired) and potentiates a firing neuron's synapses from the
//! active inputs only. All per-presentation buffers live in scratch owned
//! by the network. Frozen inference (the duty cycle's off phase) runs the
//! same tick loop with STDP off, on a private excitatory layer and a
//! per-query RNG. The pre-rewrite per-synapse kernel, with the inhibitory
//! population and full-scan STDP, is retained in [`crate::reference`] as
//! the equivalence/benchmark baseline.

use pathfinder_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::accel::{self, KernelTier};
use crate::config::SnnConfig;
use crate::encoding::PoissonEncoder;
use crate::lif::LifLayer;
use crate::monitor::SpikeMonitor;

/// Everything one input presentation produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Spike count per excitatory neuron over the interval.
    pub spike_counts: Vec<u32>,
    /// Most-firing neuron (ties broken by earliest first spike), if any
    /// neuron fired at all.
    pub winner: Option<usize>,
    /// Distinct neurons that fired, in first-fire order. Useful for
    /// multi-degree prefetching where several neurons are allowed to fire.
    pub fired: Vec<usize>,
    /// Tick of the first spike in the interval.
    pub first_fire_tick: Option<u32>,
    /// Neuron with the highest potential after the first tick — the paper's
    /// 1-tick approximation target (§3.4, Table 1).
    pub first_tick_argmax: usize,
    /// Highest end-of-interval potential among neurons other than the
    /// winner (Table 2's "potential of the next-best neuron"). For a
    /// single-neuron population (no runner-up exists) this is clamped to
    /// the excitatory resting potential.
    pub runner_up_potential: f32,
}

/// Reusable per-presentation buffers. Hoisting these into the network means
/// a presentation allocates nothing in its tick loop; the buffers hold no
/// state between presentations beyond their capacity ([`PresentScratch::reset`]
/// re-initializes every value before use).
#[derive(Debug, Clone, Default)]
pub(crate) struct PresentScratch {
    /// Indices of inputs with a non-zero rate (computed once per
    /// presentation; per-tick sampling only visits these).
    pub(crate) active_inputs: Vec<usize>,
    /// Per-tick spike probability of each active input, parallel to
    /// `active_inputs` (hoisted out of the tick loop).
    pub(crate) active_probs: Vec<f32>,
    /// This tick's input spikes.
    pub(crate) input_spikes: Vec<usize>,
    /// This tick's excitatory spikes.
    pub(crate) exc_spikes: Vec<usize>,
    /// Per-excitatory-neuron synaptic drive accumulated within one tick.
    pub(crate) drive: Vec<f32>,
    /// Expected-drive scores for the presentation (the §3.4 readout, also
    /// the winner tie-breaker).
    pub(crate) drive_scores: Vec<f32>,
    /// Spike count per excitatory neuron.
    pub(crate) spike_counts: Vec<u32>,
    /// First-fire tick per excitatory neuron.
    pub(crate) first_fire: Vec<Option<u32>>,
    /// Distinct firing neurons in first-fire order — the only neurons
    /// whose post trace can be non-zero.
    pub(crate) fired_order: Vec<usize>,
    /// Neurons with a live post trace, rebuilt each STDP tick.
    pub(crate) hot_posts: Vec<usize>,
}

impl PresentScratch {
    /// Clears all buffers and sizes the per-neuron ones to `n_exc`.
    fn reset(&mut self, n_exc: usize) {
        self.drive.clear();
        self.drive.resize(n_exc, 0.0);
        self.spike_counts.clear();
        self.spike_counts.resize(n_exc, 0);
        self.first_fire.clear();
        self.first_fire.resize(n_exc, None);
        self.fired_order.clear();
        // active_inputs / active_probs / input_spikes / exc_spikes /
        // drive_scores / hot_posts are cleared by their producers.
    }
}

/// The 3-layer SNN with on-line STDP learning.
///
/// # Examples
///
/// ```
/// use pathfinder_snn::{DiehlCookNetwork, SnnConfig};
///
/// let mut cfg = SnnConfig::default();
/// cfg.n_input = 16;
/// cfg.n_exc = 4;
/// let mut net = DiehlCookNetwork::new(cfg, 42).unwrap();
///
/// let mut rates = vec![0.0f32; 16];
/// rates[3] = 1.0;
/// rates[7] = 1.0;
/// let out = net.present(&rates, true);
/// assert_eq!(out.spike_counts.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DiehlCookNetwork {
    pub(crate) cfg: SnnConfig,
    /// Input→excitatory weights, input-major: `w[i * n_exc + j]`.
    pub(crate) weights: Vec<f32>,
    pub(crate) exc: LifLayer,
    /// The inhibitory population, stepped only by the reference kernel
    /// (the fast kernels apply its effect, lateral suppression, directly).
    pub(crate) inh: LifLayer,
    /// Presynaptic eligibility traces (per input).
    pub(crate) x_pre: Vec<f32>,
    /// Postsynaptic eligibility traces (per excitatory neuron).
    pub(crate) x_post: Vec<f32>,
    /// Excitatory columns touched by STDP since the last normalization.
    pub(crate) dirty_cols: Vec<bool>,
    pub(crate) encoder: PoissonEncoder,
    pub(crate) rng: StdRng,
    pub(crate) trace_decay: f32,
    /// Precomputed per-tick theta decay factor `exp(-1/tc_theta_decay)`,
    /// hoisted out of the tick loop.
    pub(crate) theta_decay: f32,
    /// Total input presentations so far.
    pub(crate) presentations: u64,
    /// Monotonic version of the inference-relevant state (weights and
    /// adaptive thresholds). Bumped by every presentation that may mutate
    /// them — STDP, normalization, and theta adaptation all happen inside
    /// such presentations — and left untouched by the pure frozen-inference
    /// paths ([`DiehlCookNetwork::present_frozen`],
    /// [`DiehlCookNetwork::present_one_tick`] with `learn == false`).
    pub(crate) weight_version: u64,
    /// Salt mixed into [`DiehlCookNetwork::frozen_query_seed`], derived
    /// from the construction seed so same-seeded networks derive identical
    /// per-query streams.
    pub(crate) frozen_salt: u64,
    /// Reusable presentation buffers (see [`PresentScratch`]).
    pub(crate) scratch: PresentScratch,
    /// The excitatory layer a frozen query runs on: its thresholds are
    /// copied from `exc` before each query, so their intra-interval
    /// adaptation never reaches the network's own.
    pub(crate) frozen_exc: LifLayer,
    /// The kernel tier the network's dense loops dispatch to (captured at
    /// construction; see [`crate::accel`]).
    pub(crate) tier: KernelTier,
    /// Per-column weight sums for the vectorized normalization pass (kept
    /// outside [`PresentScratch`] because `normalize_dirty` runs while the
    /// scratch is taken out of `self`).
    pub(crate) norm_sums: Vec<f32>,
    /// Per-column scale factors for the vectorized normalization pass.
    pub(crate) norm_scales: Vec<f32>,
}

impl DiehlCookNetwork {
    /// Creates a network with uniformly random initial weights in
    /// `[0, 0.3]` (BindsNet's DiehlAndCook2015 default), normalized to the
    /// configured per-neuron sum. Dense loops dispatch to the process-wide
    /// [`accel::active_tier`] (AVX2 where detected, scalar otherwise, or
    /// scalar when `PATHFINDER_FORCE_SCALAR` is set).
    ///
    /// # Errors
    ///
    /// Returns the validation message if `cfg` is inconsistent.
    pub fn new(cfg: SnnConfig, seed: u64) -> Result<Self, String> {
        Self::with_kernel_tier(cfg, seed, accel::active_tier())
    }

    /// Like [`DiehlCookNetwork::new`] but with an explicit [`KernelTier`]
    /// instead of the auto-detected one. The tiers are bit-identical (see
    /// the [`crate::accel`] contract), so this exists for tier-pinning
    /// tests and benchmarks that compare the dispatched kernels against
    /// the scalar fallback — production code should call `new`.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `cfg` is inconsistent, or an
    /// error if `tier` is not supported on this host (running SIMD
    /// kernels without their CPU feature would be undefined behaviour,
    /// so construction refuses).
    pub fn with_kernel_tier(cfg: SnnConfig, seed: u64, tier: KernelTier) -> Result<Self, String> {
        cfg.validate()?;
        if !tier.supported() {
            return Err(format!(
                "kernel tier {:?} is not supported on this host",
                tier
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = vec![0.0f32; cfg.n_input * cfg.n_exc];
        for w in &mut weights {
            *w = rng.gen_range(0.0f32..0.3);
        }
        let mut net = DiehlCookNetwork {
            encoder: PoissonEncoder::new(cfg.max_rate),
            exc: LifLayer::with_tier(cfg.n_exc, cfg.exc_lif, tier),
            inh: LifLayer::with_tier(cfg.n_exc, cfg.inh_lif, tier),
            x_pre: vec![0.0; cfg.n_input],
            x_post: vec![0.0; cfg.n_exc],
            dirty_cols: vec![true; cfg.n_exc],
            weights,
            rng,
            trace_decay: (-1.0 / cfg.stdp.tc_trace).exp(),
            theta_decay: (-1.0 / cfg.tc_theta_decay).exp(),
            presentations: 0,
            weight_version: 0,
            frozen_salt: splitmix64(seed ^ 0xF0E1_D2C3_B4A5_9687),
            scratch: PresentScratch::default(),
            frozen_exc: LifLayer::with_tier(cfg.n_exc, cfg.exc_lif, tier),
            tier,
            norm_sums: Vec::new(),
            norm_scales: Vec::new(),
            cfg,
        };
        net.normalize_dirty();
        Ok(net)
    }

    /// The kernel tier this network's dense loops dispatch to.
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// The configuration in use.
    pub fn config(&self) -> &SnnConfig {
        &self.cfg
    }

    /// Input presentations processed so far.
    pub fn presentations(&self) -> u64 {
        self.presentations
    }

    /// Monotonic version of the inference-relevant state (weights plus
    /// adaptive thresholds). Any presentation that may update that state —
    /// STDP weight updates, normalization, theta bumps/decay — increments
    /// it; the pure inference paths ([`DiehlCookNetwork::present_frozen`]
    /// and [`DiehlCookNetwork::present_one_tick`] with `learn == false`)
    /// leave it unchanged. Callers memoizing query results key their cache
    /// validity on this value.
    pub fn weight_version(&self) -> u64 {
        self.weight_version
    }

    /// The seed of the private spike-sampling stream a
    /// [`DiehlCookNetwork::present_frozen`] query for `rates` draws from: a
    /// pure hash of the construction-seed salt, the current
    /// [`weight_version`], and the active pixel intensities. Exposed so
    /// equivalence tests can align a reference network's generator (via
    /// [`DiehlCookNetwork::reseed_rng`]) with a frozen query's stream.
    ///
    /// [`weight_version`]: DiehlCookNetwork::weight_version
    pub fn frozen_query_seed(&self, rates: &[f32]) -> u64 {
        let mut h = self.frozen_salt ^ splitmix64(self.weight_version);
        for (i, &r) in rates.iter().enumerate() {
            if r > 0.0 {
                h = splitmix64(h ^ (((i as u64) << 32) | r.to_bits() as u64));
            }
        }
        splitmix64(h)
    }

    /// Replaces the presentation RNG with a freshly seeded one. Only used
    /// by equivalence tests to put a reference network's generator in
    /// lockstep with the derived per-query stream of a
    /// [`DiehlCookNetwork::present_frozen`] query; production paths never
    /// reseed.
    pub fn reseed_rng(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Borrow of the input→excitatory weight matrix (input-major).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Iterator over the incoming weights of excitatory neuron `j`
    /// (a strided column view; no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_exc`.
    pub fn column_weights(&self, j: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(j < self.cfg.n_exc, "neuron index {j} out of range");
        self.weights[j..].iter().step_by(self.cfg.n_exc).copied()
    }

    /// The incoming weights of excitatory neuron `j`, collected into a
    /// fresh vector. Prefer [`DiehlCookNetwork::column_weights`] in loops.
    pub fn neuron_weights(&self, j: usize) -> Vec<f32> {
        self.column_weights(j).collect()
    }

    /// Presents `rates` (pixel intensities in `[0,1]`, length `n_input`) for
    /// one `ticks`-long interval. STDP weight updates apply only when
    /// `learn` is true (the paper's Figure 8 duty-cycles this flag).
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != n_input`.
    pub fn present(&mut self, rates: &[f32], learn: bool) -> RunOutcome {
        self.present_inner(rates, learn, None)
    }

    /// Like [`DiehlCookNetwork::present`] but records every tick into the
    /// monitor (Figure 3 / Table 2 instrumentation).
    pub fn present_monitored(
        &mut self,
        rates: &[f32],
        learn: bool,
        monitor: &mut SpikeMonitor,
    ) -> RunOutcome {
        monitor.begin_interval();
        self.present_inner(rates, learn, Some(monitor))
    }

    fn present_inner(
        &mut self,
        rates: &[f32],
        learn: bool,
        monitor: Option<&mut SpikeMonitor>,
    ) -> RunOutcome {
        // Theta adapts in the interval (decay plus per-spike bumps) even
        // when `learn` is false, so every presentation on the network's own
        // layer invalidates memoized frozen-query results.
        self.weight_version = self.weight_version.wrapping_add(1);
        let _present_span = telemetry::timer!("snn.present");
        self.run_interval(rates, learn, monitor)
    }

    /// Frozen-weight inference, the duty-cycled off-phase kernel (§3.5,
    /// Figure 8): [`DiehlCookNetwork::present`]'s tick loop with STDP off,
    /// run on private state.
    ///
    /// The [`RunOutcome`] is a *pure function* of `rates` and the current
    /// [`weight_version`], so callers can memoize it exactly: the query
    /// leaves weights, thetas, traces, the presentation RNG and
    /// `weight_version` untouched (it only adds one to
    /// [`DiehlCookNetwork::presentations`]). Purity comes from (a) drawing
    /// the input spikes from a private generator seeded with
    /// [`DiehlCookNetwork::frozen_query_seed`] instead of the presentation
    /// RNG, and (b) running the intra-interval theta dynamics on a private
    /// excitatory layer whose thresholds are copied from the network's
    /// before the query. Outcomes therefore equal
    /// [`DiehlCookNetwork::present`] with `learn == false` on a network
    /// reseeded to the query seed (pinned by `tests/kernel_equivalence.rs`).
    ///
    /// [`weight_version`]: DiehlCookNetwork::weight_version
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != n_input`.
    pub fn present_frozen(&mut self, rates: &[f32]) -> RunOutcome {
        assert_eq!(
            rates.len(),
            self.cfg.n_input,
            "rates length must equal n_input"
        );
        let _present_span = telemetry::timer!("snn.present.batch");
        telemetry::counter!("snn.frozen.batch.queries", 1);
        telemetry::counter!("snn.frozen.presentations", 1);
        let query_rng = StdRng::seed_from_u64(self.frozen_query_seed(rates));
        let shared_rng = std::mem::replace(&mut self.rng, query_rng);
        self.frozen_exc.copy_thetas_from(&self.exc);
        std::mem::swap(&mut self.exc, &mut self.frozen_exc);
        let outcome = self.run_interval(rates, false, None);
        std::mem::swap(&mut self.exc, &mut self.frozen_exc);
        self.rng = shared_rng;
        outcome
    }

    /// One `ticks`-long presentation on `self.exc`, drawing from
    /// `self.rng`: the body both [`DiehlCookNetwork::present`] and
    /// [`DiehlCookNetwork::present_frozen`] run. STDP, its traces and
    /// normalization run only when `learn` is true.
    fn run_interval(
        &mut self,
        rates: &[f32],
        learn: bool,
        mut monitor: Option<&mut SpikeMonitor>,
    ) -> RunOutcome {
        assert_eq!(
            rates.len(),
            self.cfg.n_input,
            "rates length must equal n_input"
        );
        self.presentations += 1;
        let mut input_spike_total = 0u64;
        let mut stdp_updates = 0u64;
        // Fresh state per presentation (weights and theta persist).
        self.exc.reset_state();
        if learn {
            self.x_pre.fill(0.0);
            self.x_post.fill(0.0);
        }

        let n_exc = self.cfg.n_exc;
        // Take the scratch out of `self` so helper methods borrowing
        // `&mut self` can run while its buffers are in use.
        let mut s = std::mem::take(&mut self.scratch);
        s.reset(n_exc);
        let mut first_fire_tick: Option<u32> = None;

        // The active-input list drives per-tick sampling: only inputs with a
        // non-zero rate can spike, so each tick visits O(active) inputs
        // instead of scanning all n_input rates.
        self.encoder.active_inputs(rates, &mut s.active_inputs);
        self.encoder
            .spike_probs(rates, &s.active_inputs, &mut s.active_probs);

        // The §3.4 1-tick approximation target: argmax of the *expected*
        // first-tick drive (input rates x weights), adjusted for adaptive
        // thresholds — computable in hardware after a single tick of
        // expected-current injection (Table 1 compares it with the
        // stochastic 32-tick winner).
        self.expected_drive_scores_into(rates, &mut s.drive_scores);
        let first_tick_argmax = argmax_f32(&s.drive_scores);

        let gain = self.cfg.input_gain;
        let inh_strength = self.cfg.inh_strength;

        for tick in 0..self.cfg.ticks {
            // 1. Sample this tick's input spikes. The active-list path
            //    consumes the RNG exactly like the reference kernel's full
            //    scan, so spike trains are bit-identical across kernels.
            self.encoder.sample_tick_active(
                &s.active_inputs,
                &s.active_probs,
                &mut self.rng,
                &mut s.input_spikes,
            );

            // 2-3. Sum the spiking inputs' weight rows (ascending input
            //    order), then one fused pass injects that drive, advances
            //    the excitatory population and decays theta.
            let drive = (!s.input_spikes.is_empty()).then(|| {
                accel::sum_rows(
                    self.tier,
                    &self.weights,
                    n_exc,
                    &s.input_spikes,
                    &mut s.drive,
                );
                &s.drive[..]
            });
            self.exc
                .tick(drive, gain, self.theta_decay, &mut s.exc_spikes);

            // 4. Lateral inhibition, batched: each firing excitatory neuron
            //    suppresses every *other* excitatory neuron, which is a
            //    uniform `-(spikes x inh_strength)` across the population
            //    plus each firer's own contribution added back —
            //    O(spikes + n_exc) where the reference kernel scatters
            //    O(spikes x n_exc) individual injections. The suppression
            //    lands on next tick's membrane state so a single winner can
            //    silence the rest before they cascade across threshold.
            //    The inhibitory population itself is not simulated: nothing
            //    reads its state (the monitor records excitatory potentials),
            //    so only its effect, this suppression, is applied.
            if !s.exc_spikes.is_empty() {
                self.exc
                    .inject_uniform(-(s.exc_spikes.len() as f32) * inh_strength);
                for &j in &s.exc_spikes {
                    self.exc.inject(j, inh_strength);
                }
            }

            // 5. Bookkeeping.
            for &j in &s.exc_spikes {
                s.spike_counts[j] += 1;
                if s.first_fire[j].is_none() {
                    s.first_fire[j] = Some(tick);
                    s.fired_order.push(j);
                }
                first_fire_tick.get_or_insert(tick);
                self.exc.bump_theta(j, self.cfg.theta_plus);
            }
            if let Some(m) = monitor.as_deref_mut() {
                m.record_tick(self.exc.potentials(), &s.exc_spikes);
            }

            // 6. STDP (PostPre): traces decay, then spikes update weights.
            if learn {
                stdp_updates += self.stdp_tick_sparse(&mut s);
            }
            if telemetry::enabled() {
                input_spike_total += s.input_spikes.len() as u64;
            }
        }

        if learn {
            self.normalize_dirty();
        }

        // Batched per presentation so the hot tick loop pays at most a few
        // local adds even with telemetry compiled in; the whole block folds
        // away when the feature is off.
        if telemetry::enabled() {
            telemetry::counter!("snn.presentations", 1);
            telemetry::counter!(
                "snn.exc.spikes",
                s.spike_counts.iter().map(|&c| c as u64).sum::<u64>()
            );
            telemetry::counter!("snn.input.spikes", input_spike_total);
            if learn {
                telemetry::counter!("snn.stdp.weight_updates", stdp_updates);
            }
        }

        let winner = Self::pick_winner(&s.spike_counts, &s.first_fire, &s.drive_scores);
        let runner_up_potential = self.runner_up_potential(winner);

        let outcome = RunOutcome {
            spike_counts: s.spike_counts.clone(),
            winner,
            fired: s.fired_order.clone(),
            first_fire_tick,
            first_tick_argmax,
            runner_up_potential,
        };
        self.scratch = s;
        outcome
    }

    /// Highest end-of-interval potential among neurons other than `winner`,
    /// clamped to `v_rest` when no other neuron exists (`n_exc == 1` with a
    /// winner) so callers never see the fold's `-inf` sentinel.
    pub(crate) fn runner_up_potential(&self, winner: Option<usize>) -> f32 {
        self.exc
            .potentials()
            .iter()
            .enumerate()
            .filter(|(j, _)| Some(*j) != winner)
            .map(|(_, &v)| v)
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
            .unwrap_or(self.cfg.exc_lif.v_rest)
    }

    /// Per-neuron expected *time-to-fire* scores for `rates` — the
    /// deterministic quantity the 1-tick hardware readout computes. A
    /// neuron fires once its accumulated drive crosses
    /// `(v_thresh - v_rest) + theta`, so the first to fire is the one
    /// maximizing `drive / (gap + theta)`. Writes into `out` (cleared and
    /// resized) so hot paths can reuse a scratch buffer.
    pub(crate) fn expected_drive_scores_into(&self, rates: &[f32], out: &mut Vec<f32>) {
        let n_exc = self.cfg.n_exc;
        out.clear();
        out.resize(n_exc, 0.0);
        for (i, &r) in rates.iter().enumerate() {
            if r > 0.0 {
                let row = &self.weights[i * n_exc..(i + 1) * n_exc];
                accel::scaled_add_assign(self.tier, out, row, r);
            }
        }
        let gap = self.cfg.exc_lif.v_thresh - self.cfg.exc_lif.v_rest;
        accel::div_by_theta_gap(self.tier, out, self.exc.thetas(), gap);
    }

    /// Allocating wrapper around
    /// [`DiehlCookNetwork::expected_drive_scores_into`]; the reference
    /// kernel keeps the pre-rewrite per-presentation allocation profile.
    pub(crate) fn expected_drive_scores(&self, rates: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.expected_drive_scores_into(rates, &mut out);
        out
    }

    pub(crate) fn pick_winner(
        counts: &[u32],
        first_fire: &[Option<u32>],
        drive_scores: &[f32],
    ) -> Option<usize> {
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .max_by(|(a, ca), (b, cb)| {
                ca.cmp(cb)
                    // On equal counts prefer the earlier first spike
                    // (note reversed operands: smaller tick wins a max_by).
                    .then_with(|| first_fire[*b].cmp(&first_fire[*a]))
                    // Same-tick co-firers are tied at tick granularity; a
                    // hardware winner-take-all resolves by potential, i.e.
                    // deterministically by drive.
                    .then_with(|| {
                        drive_scores[*a]
                            .partial_cmp(&drive_scores[*b])
                            .expect("finite drive")
                    })
            })
            .map(|(j, _)| j)
    }

    /// One tick of PostPre STDP for the event kernel, visiting only live
    /// state. Bit-identical to the reference kernel's full scan
    /// ([`crate::reference`]) because every skipped element is inert:
    ///
    /// * pre traces are zeroed per presentation and set only by input
    ///   spikes, so only `active_inputs` can hold a non-zero one — only
    ///   they are decayed, and only they can pass potentiation's
    ///   `x_pre > 1e-3` test (visited in ascending input order, as the
    ///   full column walk does);
    /// * post traces are zeroed per presentation and set only by
    ///   excitatory spikes, so only `fired_order` can hold a non-zero one —
    ///   only they are decayed and scanned for the depression hot set.
    ///
    /// Every weight update is elementwise (no reductions), so visiting the
    /// live elements in another order than a full scan changes no bit.
    /// Returns the number of synapses touched (0 when telemetry is compiled
    /// out — the count is only maintained for observability).
    fn stdp_tick_sparse(&mut self, s: &mut PresentScratch) -> u64 {
        let mut touched = 0u64;
        let n_exc = self.cfg.n_exc;
        let stdp = self.cfg.stdp;
        for &i in &s.active_inputs {
            self.x_pre[i] *= self.trace_decay;
        }
        for &j in &s.fired_order {
            self.x_post[j] *= self.trace_decay;
        }
        // Presynaptic spikes: bump pre trace, depress synapses onto
        // recently-fired neurons (post-before-pre). Only neurons with a
        // live post trace can be depressed — usually none or a handful —
        // so they are gathered once per tick and each spiking input's row
        // is touched at exactly those columns.
        if !s.input_spikes.is_empty() {
            s.hot_posts.clear();
            s.hot_posts.extend(
                s.fired_order
                    .iter()
                    .copied()
                    .filter(|&j| self.x_post[j] > 1e-3),
            );
            for &i in &s.input_spikes {
                self.x_pre[i] = 1.0;
                let row = &mut self.weights[i * n_exc..(i + 1) * n_exc];
                for &j in &s.hot_posts {
                    row[j] = (row[j] - stdp.nu_pre * self.x_post[j]).max(0.0);
                    self.dirty_cols[j] = true;
                    if telemetry::enabled() {
                        touched += 1;
                    }
                }
            }
        }
        // Postsynaptic spikes: bump post trace, potentiate synapses from
        // recently-spiked inputs (pre-before-post).
        for &j in &s.exc_spikes {
            self.x_post[j] = 1.0;
            self.dirty_cols[j] = true;
            for &i in &s.active_inputs {
                let xp = self.x_pre[i];
                if xp > 1e-3 {
                    let w = &mut self.weights[i * n_exc + j];
                    *w = (*w + stdp.nu_post * xp).min(stdp.w_max);
                    if telemetry::enabled() {
                        touched += 1;
                    }
                }
            }
        }
        touched
    }

    /// Renormalizes the incoming-weight sum of every column STDP touched to
    /// `norm` (Table 4: 38.4), as BindsNet does after each sample.
    ///
    /// Two equivalent passes, picked by how much of the matrix is dirty:
    /// when most columns need renormalizing (a learning presentation
    /// typically dirties them all), a *row-major* pass accumulates every
    /// column's sum in contiguous [`accel`]-dispatched sweeps over the
    /// weight rows and then rescales rows elementwise, with clean columns
    /// held at the exact-identity scale `1.0`; when only a few columns are
    /// dirty, the original strided per-column walk
    /// ([`DiehlCookNetwork::column_weights`]) touches just those. Both
    /// paths visit each column's weights in the same ascending-input order,
    /// so their results are bit-identical.
    pub(crate) fn normalize_dirty(&mut self) {
        let n_exc = self.cfg.n_exc;
        let dirty = self.dirty_cols.iter().filter(|&&d| d).count();
        if dirty == 0 {
            return;
        }
        // Row-major pays one full-matrix sweep regardless of the dirty
        // count; it wins once a quarter or more of the columns need work.
        if dirty * 4 >= n_exc {
            let mut sums = std::mem::take(&mut self.norm_sums);
            let mut scales = std::mem::take(&mut self.norm_scales);
            accel::column_sums(self.tier, &self.weights, n_exc, &mut sums);
            scales.clear();
            scales.extend(sums.iter().zip(&self.dirty_cols).map(|(&sum, &d)| {
                // Columns left alone (clean, or an all-zero sum the strided
                // path would skip) scale by exactly 1.0 — an IEEE identity.
                if d && sum > 0.0 {
                    self.cfg.stdp.norm / sum
                } else {
                    1.0
                }
            }));
            accel::scale_columns(self.tier, &mut self.weights, n_exc, &scales);
            self.dirty_cols.fill(false);
            self.norm_sums = sums;
            self.norm_scales = scales;
        } else {
            for j in 0..n_exc {
                if !self.dirty_cols[j] {
                    continue;
                }
                self.dirty_cols[j] = false;
                let sum: f32 = self.column_weights(j).sum();
                if sum > 0.0 {
                    let scale = self.cfg.stdp.norm / sum;
                    for w in self.weights[j..].iter_mut().step_by(n_exc) {
                        *w *= scale;
                    }
                }
            }
        }
        if telemetry::enabled() {
            telemetry::counter!("snn.norm.passes", 1);
            telemetry::counter!("snn.norm.columns", dirty as u64);
        }
    }

    /// The paper's 1-tick approximation (§3.4): injects the *expected*
    /// synaptic current for one tick and returns the argmax-potential
    /// neuron, avoiding the full `ticks`-long stochastic simulation.
    ///
    /// When `learn` is true, an approximate STDP step potentiates the
    /// winning neuron's synapses from the active inputs (and normalizes),
    /// preserving the continuous-learning property at 1-tick cost.
    pub fn present_one_tick(&mut self, rates: &[f32], learn: bool) -> usize {
        assert_eq!(
            rates.len(),
            self.cfg.n_input,
            "rates length must equal n_input"
        );
        self.presentations += 1;
        telemetry::counter!("snn.one_tick.presentations", 1);
        self.exc.reset_state();
        let n_exc = self.cfg.n_exc;
        let mut scores = std::mem::take(&mut self.scratch.drive_scores);
        self.expected_drive_scores_into(rates, &mut scores);
        let winner = argmax_f32(&scores);
        self.scratch.drive_scores = scores;
        if learn {
            self.weight_version = self.weight_version.wrapping_add(1);
            // One presentation stands for a full input interval: decay theta
            // by the same amount the tick-by-tick path would.
            self.exc
                .decay_theta(self.cfg.tc_theta_decay / self.cfg.ticks as f32);
            self.exc.bump_theta(winner, self.cfg.theta_plus);
            for (i, &r) in rates.iter().enumerate() {
                if r > 0.0 {
                    let w = &mut self.weights[i * n_exc + winner];
                    *w = (*w + self.cfg.stdp.nu_post * r).min(self.cfg.stdp.w_max);
                }
            }
            self.dirty_cols[winner] = true;
            self.normalize_dirty();
        }
        winner
    }
}

/// SplitMix64's finalizer-style mixing step; used to derive frozen-query
/// seeds deterministically without touching the shared RNG.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Index of the maximum value (first on exact ties).
pub(crate) fn argmax_f32(xs: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &x) in xs.iter().enumerate() {
        if x > best_v {
            best_v = x;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SnnConfig {
        let mut cfg = SnnConfig {
            n_input: 24,
            n_exc: 8,
            ..SnnConfig::default()
        };
        // Keep the same average initial weight (norm / n_input = 0.1) as
        // the paper-sized network so the dynamics scale down faithfully,
        // then double it so a 3-pixel pattern can reach threshold within
        // one 32-tick interval.
        cfg.stdp.norm = 4.8;
        cfg
    }

    fn pattern(idxs: &[usize], n: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; n];
        for &i in idxs {
            v[i] = 1.0;
        }
        v
    }

    #[test]
    fn weights_normalized_at_init() {
        let cfg = small_cfg();
        let net = DiehlCookNetwork::new(cfg, 1).unwrap();
        for j in 0..8 {
            let sum: f32 = net.neuron_weights(j).iter().sum();
            assert!(
                (sum - cfg.stdp.norm).abs() < 1e-3,
                "column {j} sum {sum} should be norm {}",
                cfg.stdp.norm
            );
        }
    }

    #[test]
    fn column_view_matches_collected_weights() {
        let net = DiehlCookNetwork::new(small_cfg(), 6).unwrap();
        for j in 0..8 {
            let collected = net.neuron_weights(j);
            let viewed: Vec<f32> = net.column_weights(j).collect();
            assert_eq!(collected, viewed);
            assert_eq!(collected.len(), net.config().n_input);
            // The strided view walks w[i * n_exc + j] in input order.
            for (i, &w) in collected.iter().enumerate() {
                assert_eq!(w, net.weights()[i * 8 + j]);
            }
        }
    }

    #[test]
    fn repeated_pattern_stabilizes_winner() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 7).unwrap();
        let rates = pattern(&[2, 10, 19], 24);
        // Train on the pattern a few times.
        let mut last_winner = None;
        for _ in 0..6 {
            let out = net.present(&rates, true);
            last_winner = out.winner.or(last_winner);
        }
        let trained_winner = last_winner.expect("some neuron fires after training");
        // The same neuron should now win consistently.
        let mut consistent = 0;
        for _ in 0..5 {
            let out = net.present(&rates, true);
            if out.winner == Some(trained_winner) {
                consistent += 1;
            }
        }
        assert!(
            consistent >= 4,
            "winner should be stable, got {consistent}/5"
        );
    }

    #[test]
    fn different_patterns_recruit_different_neurons() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 11).unwrap();
        let a = pattern(&[0, 1, 2], 24);
        let b = pattern(&[20, 21, 22], 24);
        for _ in 0..8 {
            net.present(&a, true);
            net.present(&b, true);
        }
        let wa = net.present(&a, false).winner;
        let wb = net.present(&b, false).winner;
        assert!(wa.is_some() && wb.is_some());
        assert_ne!(wa, wb, "disjoint patterns should map to distinct neurons");
    }

    #[test]
    fn stdp_concentrates_weight_on_active_inputs() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 3).unwrap();
        let rates = pattern(&[5, 6, 7], 24);
        let mut winner = None;
        for _ in 0..40 {
            let out = net.present(&rates, true);
            winner = out.winner.or(winner);
        }
        let j = winner.expect("winner exists");
        let w = net.neuron_weights(j);
        let active: f32 = [5, 6, 7].iter().map(|&i| w[i]).sum();
        let total: f32 = w.iter().sum();
        assert!(
            active / total > 3.0 * 3.0 / 24.0,
            "active-input weight share should grow: {}",
            active / total
        );
    }

    #[test]
    fn learning_disabled_freezes_weights() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 5).unwrap();
        let rates = pattern(&[1, 12, 23], 24);
        let before = net.weights().to_vec();
        net.present(&rates, false);
        assert_eq!(
            net.weights(),
            &before[..],
            "no-learn run must not move weights"
        );
    }

    #[test]
    fn lateral_inhibition_limits_firing() {
        // With strong inhibition only one or two neurons fire per interval.
        let mut cfg = small_cfg();
        cfg.inh_strength = 60.0;
        let mut net = DiehlCookNetwork::new(cfg, 9).unwrap();
        let rates = pattern(&[3, 9, 15], 24);
        for _ in 0..5 {
            net.present(&rates, true);
        }
        let out = net.present(&rates, true);
        assert!(
            out.fired.len() <= 2,
            "strong inhibition should keep firing sparse, got {:?}",
            out.fired
        );
    }

    #[test]
    fn weak_inhibition_lets_multiple_neurons_fire() {
        // The multi-degree knob (§3.4): reducing inhibition yields 2-5 firing
        // neurons.
        let mut cfg = small_cfg();
        cfg.inh_strength = 0.5;
        let mut net = DiehlCookNetwork::new(cfg, 13).unwrap();
        let rates = pattern(&[3, 9, 15, 20], 24);
        let mut max_fired = 0usize;
        for _ in 0..8 {
            let out = net.present(&rates, true);
            max_fired = max_fired.max(out.fired.len());
        }
        assert!(
            max_fired >= 2,
            "weak inhibition should allow multiple firers, got {max_fired}"
        );
    }

    #[test]
    fn one_tick_mode_is_deterministic_and_learns() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 21).unwrap();
        let rates = pattern(&[4, 11, 18], 24);
        let w0 = net.present_one_tick(&rates, true);
        // After learning, the same input keeps selecting the same neuron.
        for _ in 0..5 {
            assert_eq!(net.present_one_tick(&rates, true), w0);
        }
    }

    #[test]
    fn monitored_run_records_all_ticks() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 2).unwrap();
        let rates = pattern(&[1, 2, 3], 24);
        let mut mon = SpikeMonitor::new();
        net.present_monitored(&rates, true, &mut mon);
        assert_eq!(mon.ticks(), 32);
        assert_eq!(mon.n_neurons(), 8);
        assert_eq!(mon.interval_starts(), &[0]);
    }

    #[test]
    fn empty_input_produces_no_spikes() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 4).unwrap();
        let out = net.present(&[0.0; 24], true);
        assert_eq!(out.winner, None);
        assert!(out.fired.is_empty());
        assert_eq!(out.spike_counts.iter().sum::<u32>(), 0);
    }

    #[test]
    fn seeded_networks_are_reproducible() {
        let mut a = DiehlCookNetwork::new(small_cfg(), 77).unwrap();
        let mut b = DiehlCookNetwork::new(small_cfg(), 77).unwrap();
        let rates = pattern(&[2, 8, 14], 24);
        for _ in 0..4 {
            assert_eq!(a.present(&rates, true), b.present(&rates, true));
        }
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn single_neuron_runner_up_clamps_to_rest() {
        // Regression: with n_exc == 1 the winner is the only neuron, so the
        // runner-up fold is empty; it must clamp to v_rest instead of
        // returning f32::NEG_INFINITY.
        let mut cfg = SnnConfig {
            n_input: 8,
            n_exc: 1,
            ..SnnConfig::default()
        };
        cfg.stdp.norm = 1.6;
        let v_rest = cfg.exc_lif.v_rest;
        let mut net = DiehlCookNetwork::new(cfg, 17).unwrap();
        let rates = pattern(&[0, 3, 6], 8);
        let mut saw_winner = false;
        for _ in 0..10 {
            let out = net.present(&rates, true);
            assert!(
                out.runner_up_potential.is_finite(),
                "runner-up must never be -inf"
            );
            if out.winner.is_some() {
                saw_winner = true;
                assert_eq!(out.runner_up_potential, v_rest);
            }
        }
        assert!(saw_winner, "the lone neuron should fire at least once");
    }

    #[test]
    fn weight_version_tracks_state_mutations() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 5).unwrap();
        let rates = pattern(&[1, 12, 23], 24);
        assert_eq!(net.weight_version(), 0);
        net.present(&rates, true);
        assert_eq!(net.weight_version(), 1);
        // Theta adapts even without STDP, so a no-learn presentation still
        // invalidates frozen-query memoization.
        net.present(&rates, false);
        assert_eq!(net.weight_version(), 2);
        net.present_reference(&rates, false);
        assert_eq!(net.weight_version(), 3);
        net.present_one_tick(&rates, true);
        assert_eq!(net.weight_version(), 4);
        // The pure inference paths leave the version alone.
        net.present_one_tick(&rates, false);
        net.present_frozen(&rates);
        assert_eq!(net.weight_version(), 4);
    }

    #[test]
    fn frozen_presentation_is_pure_and_repeatable() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 8).unwrap();
        let rates = pattern(&[2, 10, 19], 24);
        for _ in 0..4 {
            net.present(&rates, true);
        }
        let weights = net.weights().to_vec();
        let thetas = net.exc.thetas().to_vec();
        let a = net.present_frozen(&rates);
        let b = net.present_frozen(&rates);
        assert_eq!(a, b, "identical queries must yield identical outcomes");
        assert_eq!(net.weights(), &weights[..], "weights untouched");
        assert_eq!(net.exc.thetas(), &thetas[..], "thetas untouched");
    }

    #[test]
    fn frozen_seed_depends_on_input_and_version() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 12).unwrap();
        let r1 = pattern(&[1, 2, 3], 24);
        let r2 = pattern(&[1, 2, 4], 24);
        assert_ne!(net.frozen_query_seed(&r1), net.frozen_query_seed(&r2));
        let s0 = net.frozen_query_seed(&r1);
        net.present(&r1, true);
        assert_ne!(
            net.frozen_query_seed(&r1),
            s0,
            "a new weight version derives a fresh stream"
        );
    }

    #[test]
    fn scratch_buffers_are_reused_across_presentations() {
        // The scratch is an implementation detail, but its reuse invariant
        // is observable: back-to-back presentations with different patterns
        // must not leak state (counts, fired order) between intervals.
        let mut net = DiehlCookNetwork::new(small_cfg(), 31).unwrap();
        let a = pattern(&[0, 1, 2], 24);
        net.present(&a, true);
        let out = net.present(&[0.0; 24], false);
        assert_eq!(out.spike_counts, vec![0; 8], "no stale counts");
        assert!(out.fired.is_empty(), "no stale fired order");
        assert_eq!(out.first_fire_tick, None);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Bitwise `RunOutcome` equality: `PartialEq` would accept
    /// `-0.0 == 0.0` on the analog field.
    fn assert_outcome_bits_eq(a: &RunOutcome, b: &RunOutcome, what: &str) {
        assert_eq!(a.spike_counts, b.spike_counts, "{what} spike_counts");
        assert_eq!(a.winner, b.winner, "{what} winner");
        assert_eq!(a.fired, b.fired, "{what} fired order");
        assert_eq!(a.first_fire_tick, b.first_fire_tick, "{what} first tick");
        assert_eq!(a.first_tick_argmax, b.first_tick_argmax, "{what} argmax");
        assert_eq!(
            a.runner_up_potential.to_bits(),
            b.runner_up_potential.to_bits(),
            "{what} runner-up potential bits"
        );
    }

    /// Frozen queries share the learning path's body, scratch and network
    /// struct, but must leave learning exactly as if they never ran: the
    /// presentation RNG, traces, thetas, weights and version all stay put.
    #[test]
    fn frozen_queries_leave_learning_untouched() {
        let mut plain = DiehlCookNetwork::new(small_cfg(), 19).unwrap();
        let mut interleaved = DiehlCookNetwork::new(small_cfg(), 19).unwrap();
        let patterns = [
            pattern(&[2, 10, 19], 24),
            pattern(&[0, 1, 2], 24),
            pattern(&[5, 11, 23], 24),
            vec![0.0; 24],
            pattern(&[3, 9, 15, 20], 24),
        ];
        for round in 0..12 {
            let rates = &patterns[round % patterns.len()];
            // Some frozen queries repeat the learning input, some do not.
            interleaved.present_frozen(rates);
            interleaved.present_frozen(&patterns[(round + 2) % patterns.len()]);
            let a = plain.present(rates, true);
            let b = interleaved.present(rates, true);
            assert_outcome_bits_eq(&a, &b, &format!("learning round {round}"));
            assert_eq!(bits(plain.weights()), bits(interleaved.weights()));
            assert_eq!(bits(plain.exc.thetas()), bits(interleaved.exc.thetas()));
            assert_eq!(plain.weight_version(), interleaved.weight_version());
        }
        let a = plain.present_frozen(&patterns[0]);
        let b = interleaved.present_frozen(&patterns[0]);
        assert_outcome_bits_eq(&a, &b, "final frozen query");
        assert_eq!(interleaved.presentations(), plain.presentations() + 24);
    }
}
