//! A vectorized population of leaky-integrate-and-fire neurons.
//!
//! The bulk operations (`tick`, `step`, `inject_uniform`, `decay_theta`)
//! dispatch through [`crate::accel`]: each layer captures
//! a [`KernelTier`] at construction and routes its hot loops to the scalar
//! or AVX2 kernels accordingly. The tiers are bit-identical (see the
//! `accel` module docs), so the choice is invisible to everything but the
//! clock.

use crate::accel::{self, KernelTier, LifStepParams};
use crate::config::LifConfig;

/// State of one LIF population: potentials, refractory timers, and (for
/// excitatory populations) adaptive thresholds.
#[derive(Debug, Clone)]
pub struct LifLayer {
    config: LifConfig,
    /// Membrane potentials (mV).
    v: Vec<f32>,
    /// Remaining refractory ticks per neuron.
    refrac: Vec<u32>,
    /// Adaptive threshold offsets (Diehl & Cook theta); all-zero unless
    /// [`LifLayer::bump_theta`] is used.
    theta: Vec<f32>,
    /// The tick kernel's parameters, with the per-tick decay factor
    /// `exp(-dt / tc_decay)` precomputed.
    params: LifStepParams,
    /// The kernel tier the bulk operations dispatch to.
    tier: KernelTier,
}

impl LifLayer {
    /// Creates a population of `n` neurons at rest, dispatching its bulk
    /// operations to the process-wide [`accel::active_tier`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, config: LifConfig) -> Self {
        Self::with_tier(n, config, accel::active_tier())
    }

    /// Creates a population of `n` neurons at rest with an explicit kernel
    /// tier. Used by tier-pinning tests and by
    /// `DiehlCookNetwork::with_kernel_tier`; most callers want
    /// [`LifLayer::new`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `tier` is not supported on this host
    /// (`tier.supported()` is false) — running SIMD kernels without their
    /// CPU feature would be undefined behaviour, so construction refuses.
    pub fn with_tier(n: usize, config: LifConfig, tier: KernelTier) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!(
            tier.supported(),
            "kernel tier {:?} is not supported on this host",
            tier
        );
        LifLayer {
            config,
            v: vec![config.v_rest; n],
            refrac: vec![0; n],
            theta: vec![0.0; n],
            params: LifStepParams {
                v_rest: config.v_rest,
                decay: (-1.0 / config.tc_decay).exp(),
                v_thresh: config.v_thresh,
                v_reset: config.v_reset,
                refractory: config.refractory,
            },
            tier,
        }
    }

    /// The kernel tier this layer's bulk operations dispatch to.
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the population is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The LIF parameters in use.
    pub fn config(&self) -> &LifConfig {
        &self.config
    }

    /// Current membrane potentials.
    pub fn potentials(&self) -> &[f32] {
        &self.v
    }

    /// Adaptive threshold offsets.
    pub fn thetas(&self) -> &[f32] {
        &self.theta
    }

    /// Injects synaptic current into neuron `i` (positive = excitatory).
    ///
    /// Refractory neurons ignore input, as in BindsNet.
    #[inline]
    pub fn inject(&mut self, i: usize, current: f32) {
        if self.refrac[i] == 0 {
            self.v[i] += current;
        }
    }

    /// Injects the same `current` into every non-refractory neuron. Batched
    /// lateral inhibition uses this for the population-wide term, then adds
    /// each firing neuron's own contribution back with [`LifLayer::inject`].
    #[inline]
    pub fn inject_uniform(&mut self, current: f32) {
        accel::masked_add_uniform(self.tier, &mut self.v, &self.refrac, current);
    }

    /// One fused tick: injects `drive[i] * gain` into every non-refractory
    /// neuron (when `drive` is given), decays potentials toward rest,
    /// decrements refractory timers, collects spikes into `spikes_out`
    /// (ascending; judged against the thresholds before this tick's decay),
    /// then multiplies every adaptive threshold by `theta_decay`. Spiking
    /// neurons reset and enter their refractory period.
    pub fn tick(
        &mut self,
        drive: Option<&[f32]>,
        gain: f32,
        theta_decay: f32,
        spikes_out: &mut Vec<usize>,
    ) {
        accel::lif_tick(
            self.tier,
            &mut self.v,
            &mut self.refrac,
            &mut self.theta,
            drive,
            gain,
            self.params,
            theta_decay,
            spikes_out,
        );
    }

    /// Advances one tick with no injection and no theta decay (a
    /// `theta_decay` of `1.0` leaves the thresholds' bits unchanged).
    pub fn step(&mut self, spikes_out: &mut Vec<usize>) {
        self.tick(None, 0.0, 1.0, spikes_out);
    }

    /// Raises neuron `i`'s adaptive threshold by `theta_plus`.
    pub fn bump_theta(&mut self, i: usize, theta_plus: f32) {
        self.theta[i] += theta_plus;
    }

    /// Decays all adaptive thresholds by `exp(-dt/tc)`; called once per tick
    /// for excitatory populations by the reference kernel.
    pub fn decay_theta(&mut self, tc_theta: f32) {
        accel::scale_in_place(self.tier, &mut self.theta, (-1.0 / tc_theta).exp());
    }

    /// Overwrites this layer's adaptive thresholds with `other`'s (same
    /// population size), without allocating.
    pub(crate) fn copy_thetas_from(&mut self, other: &LifLayer) {
        self.theta.copy_from_slice(&other.theta);
    }

    /// Resets potentials and refractory state (not theta) for the next input
    /// presentation, as BindsNet does between samples.
    pub fn reset_state(&mut self) {
        self.v.fill(self.config.v_rest);
        self.refrac.fill(0);
    }

    /// Index of the neuron with the highest effective drive above its
    /// threshold margin, used by the paper's 1-tick approximation:
    /// "the neuron with the highest potential after 1 tick would have been
    /// the first to fire" (§3.4).
    pub fn argmax_potential(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.v.iter().enumerate() {
            // Compare headroom-to-threshold so adaptive thresholds are
            // honoured: a high-theta neuron needs a higher potential to win.
            let margin = v - self.theta[i];
            if margin > best_v {
                best_v = margin;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LifConfig;

    fn layer(n: usize) -> LifLayer {
        LifLayer::new(n, LifConfig::excitatory())
    }

    #[test]
    fn starts_at_rest() {
        let l = layer(4);
        assert!(l.potentials().iter().all(|&v| v == -65.0));
    }

    #[test]
    fn injection_then_threshold_fires() {
        let mut l = layer(2);
        l.inject(0, 14.0); // -65 + 14 = -51 > -52 threshold
        let mut spikes = Vec::new();
        l.step(&mut spikes);
        assert_eq!(spikes, vec![0]);
        assert_eq!(l.potentials()[0], -60.0, "reset after spike");
    }

    #[test]
    fn subthreshold_input_decays_away() {
        let mut l = layer(1);
        l.inject(0, 5.0);
        let mut spikes = Vec::new();
        let v1 = {
            l.step(&mut spikes);
            l.potentials()[0]
        };
        assert!(spikes.is_empty());
        for _ in 0..1000 {
            l.step(&mut spikes);
        }
        let v_final = l.potentials()[0];
        assert!(v_final > -65.01 && v_final < v1, "decays toward rest");
    }

    #[test]
    fn refractory_neurons_ignore_input() {
        let mut l = layer(1);
        l.inject(0, 20.0);
        let mut spikes = Vec::new();
        l.step(&mut spikes);
        assert_eq!(spikes.len(), 1);
        // During refractory period further input has no effect.
        l.inject(0, 100.0);
        l.step(&mut spikes);
        assert!(spikes.is_empty());
        assert_eq!(l.potentials()[0], -60.0);
    }

    #[test]
    fn theta_raises_effective_threshold() {
        let mut l = layer(1);
        l.bump_theta(0, 2.0);
        l.inject(0, 14.0); // would fire without theta
        let mut spikes = Vec::new();
        l.step(&mut spikes);
        assert!(spikes.is_empty(), "theta blocks the spike");
        l.inject(0, 3.0);
        l.step(&mut spikes);
        assert_eq!(spikes, vec![0], "enough drive overcomes theta");
    }

    #[test]
    fn theta_decays() {
        let mut l = layer(1);
        l.bump_theta(0, 1.0);
        for _ in 0..100 {
            l.decay_theta(10.0);
        }
        assert!(l.thetas()[0] < 1e-3);
    }

    #[test]
    fn reset_state_keeps_theta() {
        let mut l = layer(1);
        l.bump_theta(0, 0.5);
        l.inject(0, 5.0);
        l.reset_state();
        assert_eq!(l.potentials()[0], -65.0);
        assert_eq!(l.thetas()[0], 0.5);
    }

    #[test]
    fn forced_scalar_layer_matches_dispatched_layer_bitwise() {
        let mut native = layer(13);
        let mut scalar = LifLayer::with_tier(13, LifConfig::excitatory(), KernelTier::Scalar);
        assert_eq!(scalar.kernel_tier(), KernelTier::Scalar);
        let currents: Vec<f32> = (0..13).map(|i| (i as f32) * 1.3 - 2.0).collect();
        let mut spikes_a = Vec::new();
        let mut spikes_b = Vec::new();
        for tick in 0..20 {
            let drive = (tick % 4 != 3).then_some(currents.as_slice());
            native.tick(drive, 2.1, 0.999, &mut spikes_a);
            scalar.tick(drive, 2.1, 0.999, &mut spikes_b);
            assert_eq!(spikes_a, spikes_b, "spikes diverged at tick {tick}");
            for l in [&mut native, &mut scalar] {
                l.inject_uniform(if tick % 3 == 0 { -4.0 } else { 0.5 });
            }
            for &j in &spikes_a {
                native.bump_theta(j, 0.05);
                scalar.bump_theta(j, 0.05);
            }
        }
        let a: Vec<u32> = native.potentials().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = scalar.potentials().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "potentials must be bitwise identical across tiers");
        let a: Vec<u32> = native.thetas().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = scalar.thetas().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "thetas must be bitwise identical across tiers");
    }

    #[test]
    fn argmax_honours_theta() {
        let mut l = layer(2);
        l.inject(0, 5.0);
        l.inject(1, 4.0);
        // Neuron 0 leads on raw potential but a big theta penalizes it.
        l.bump_theta(0, 3.0);
        assert_eq!(l.argmax_potential(), 1);
    }
}
