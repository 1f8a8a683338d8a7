//! Poisson rate coding of pixel intensities into spike trains (§3.2 step 2).

use rand::rngs::StdRng;
use rand::Rng;

/// Converts a vector of pixel intensities in `[0, 1]` into per-tick spike
/// events: an intensity-`p` pixel spikes each tick with probability
/// `p * max_rate`, following the Bernoulli approximation of a Poisson
/// process that BindsNet uses at `dt = 1`.
#[derive(Debug, Clone)]
pub struct PoissonEncoder {
    max_rate: f32,
}

impl PoissonEncoder {
    /// Creates an encoder with the given full-intensity per-tick spike
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is outside `[0, 1]`.
    pub fn new(max_rate: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&max_rate),
            "max_rate must be a probability, got {max_rate}"
        );
        PoissonEncoder { max_rate }
    }

    /// Samples one tick of spikes: appends the indices of spiking inputs to
    /// `spikes_out` (cleared first). `rates` holds intensities in `[0, 1]`.
    pub fn sample_tick(&self, rates: &[f32], rng: &mut StdRng, spikes_out: &mut Vec<usize>) {
        spikes_out.clear();
        for (i, &r) in rates.iter().enumerate() {
            if r > 0.0 {
                let p = (r * self.max_rate).min(1.0);
                if rng.gen_range(0.0f32..1.0) < p {
                    spikes_out.push(i);
                }
            }
        }
    }

    /// Appends the indices of all active inputs (`rates[i] > 0`) to
    /// `active_out` (cleared first). Computed once per presentation by the
    /// event-driven kernel so each tick only visits inputs that can spike.
    pub fn active_inputs(&self, rates: &[f32], active_out: &mut Vec<usize>) {
        active_out.clear();
        for (i, &r) in rates.iter().enumerate() {
            if r > 0.0 {
                active_out.push(i);
            }
        }
    }

    /// Writes the per-tick spike probability of each `active` input into
    /// `probs_out` (cleared first), computed exactly as
    /// [`PoissonEncoder::sample_tick`] does per tick, so a presentation can
    /// hoist it out of its tick loop.
    pub fn spike_probs(&self, rates: &[f32], active: &[usize], probs_out: &mut Vec<f32>) {
        probs_out.clear();
        probs_out.extend(active.iter().map(|&i| (rates[i] * self.max_rate).min(1.0)));
    }

    /// Like [`PoissonEncoder::sample_tick`] but only visits the
    /// pre-computed `active` index list (all `i` with `rates[i] > 0`, in
    /// ascending order) with its [`PoissonEncoder::spike_probs`]. Consumes
    /// the RNG exactly as `sample_tick` does — one draw per active input —
    /// so the two paths produce bit-identical spike trains from the same
    /// generator state.
    pub fn sample_tick_active(
        &self,
        active: &[usize],
        probs: &[f32],
        rng: &mut StdRng,
        spikes_out: &mut Vec<usize>,
    ) {
        // Branchless: every active index is written, and the length only
        // advances on a hit (a conditional push mispredicts on a large
        // share of draws).
        spikes_out.clear();
        spikes_out.resize(active.len(), 0);
        let mut n = 0;
        for (&i, &p) in active.iter().zip(probs) {
            spikes_out[n] = i;
            n += usize::from(rng.gen_range(0.0f32..1.0) < p);
        }
        spikes_out.truncate(n);
    }

    /// Expected number of spikes for `rates` over `ticks` ticks.
    pub fn expected_spikes(&self, rates: &[f32], ticks: u32) -> f32 {
        rates
            .iter()
            .map(|&r| (r * self.max_rate).min(1.0))
            .sum::<f32>()
            * ticks as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_intensity_never_spikes() {
        let enc = PoissonEncoder::new(0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        for _ in 0..100 {
            enc.sample_tick(&[0.0, 0.0, 0.0], &mut rng, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn full_intensity_spikes_at_max_rate() {
        let enc = PoissonEncoder::new(0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let mut out = Vec::new();
        let mut count = 0usize;
        let trials = 10_000;
        for _ in 0..trials {
            enc.sample_tick(&[1.0], &mut rng, &mut out);
            count += out.len();
        }
        let rate = count as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn partial_intensity_scales_rate() {
        let enc = PoissonEncoder::new(0.8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        let mut count = 0usize;
        let trials = 10_000;
        for _ in 0..trials {
            enc.sample_tick(&[0.5], &mut rng, &mut out);
            count += out.len();
        }
        let rate = count as f64 / trials as f64;
        assert!((rate - 0.4).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn expected_spikes_matches_configuration() {
        let enc = PoissonEncoder::new(0.5);
        let e = enc.expected_spikes(&[1.0, 0.5, 0.0], 32);
        assert!((e - (0.5 + 0.25) * 32.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_rate() {
        let _ = PoissonEncoder::new(1.5);
    }

    #[test]
    fn active_sampling_matches_full_scan() {
        let enc = PoissonEncoder::new(0.7);
        let rates = [0.0, 0.9, 0.0, 0.4, 1.0, 0.0];
        let (mut active, mut probs) = (Vec::new(), Vec::new());
        enc.active_inputs(&rates, &mut active);
        assert_eq!(active, vec![1, 3, 4]);
        enc.spike_probs(&rates, &active, &mut probs);
        // Identical RNG consumption: both paths draw once per active input,
        // so seeded generators stay in lockstep across ticks.
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            enc.sample_tick(&rates, &mut rng_a, &mut out_a);
            enc.sample_tick_active(&active, &probs, &mut rng_b, &mut out_b);
            assert_eq!(out_a, out_b);
        }
    }
}
