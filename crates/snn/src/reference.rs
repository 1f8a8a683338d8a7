//! The pre-rewrite per-synapse presentation kernel, retained verbatim as
//! the equivalence baseline for the event-driven hot path in
//! [`crate::network`].
//!
//! Two same-seeded networks, one stepped with
//! [`DiehlCookNetwork::present`] and one with
//! [`DiehlCookNetwork::present_reference`], consume their RNG identically
//! and therefore see bit-identical input spike trains. Membrane arithmetic
//! is *re-associated* by the event-driven kernel (a tick's synaptic drive
//! is pre-summed into a buffer before one bulk injection, and lateral
//! inhibition lands as one batched term instead of per-spike scatters), so
//! potentials may differ in the last few ULPs — which is why the
//! equivalence suite asserts on spike structure (winner, fired order,
//! counts, first-fire ticks) and near-equal weights rather than bitwise
//! membrane state. See `tests/kernel_equivalence.rs`.
//!
//! The reference also keeps the full-state STDP tick (every trace decayed,
//! every post trace scanned, each firing neuron's whole column walked) and
//! steps the inhibitory population; the event kernel skips the state that
//! is provably inert there.
//!
//! This module is *not* a second implementation to maintain feature-parity
//! with: it exists to (a) pin the semantics of the optimized kernel and
//! (b) serve as the "before" measurement in `repro bench`
//! (`snn.present32.reference`).

use pathfinder_telemetry as telemetry;

use crate::network::{argmax_f32, DiehlCookNetwork, RunOutcome};

impl DiehlCookNetwork {
    /// Presents `rates` through the retained pre-rewrite kernel: a full
    /// rate scan per tick, one [`crate::LifLayer::inject`] call per
    /// (input-spike × excitatory-neuron) synapse, a per-spike O(n_exc)
    /// inhibition scatter, and per-presentation buffer allocations.
    ///
    /// Semantically equivalent to [`DiehlCookNetwork::present`] (identical
    /// RNG consumption; spike trains match up to fp re-association of the
    /// membrane updates). Kept for equivalence tests and as the benchmark
    /// baseline — production paths should call `present`.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != n_input`.
    pub fn present_reference(&mut self, rates: &[f32], learn: bool) -> RunOutcome {
        assert_eq!(
            rates.len(),
            self.cfg.n_input,
            "rates length must equal n_input"
        );
        self.presentations += 1;
        // Theta adapts even without learning; see `present_inner`.
        self.weight_version = self.weight_version.wrapping_add(1);
        let _present_span = telemetry::timer!("snn.present");
        let mut input_spike_total = 0u64;
        let mut stdp_updates = 0u64;
        // Fresh state per presentation (weights and theta persist).
        self.exc.reset_state();
        self.inh.reset_state();
        self.x_pre.fill(0.0);
        self.x_post.fill(0.0);

        let n_exc = self.cfg.n_exc;
        let mut input_spikes: Vec<usize> = Vec::new();
        let mut exc_spikes: Vec<usize> = Vec::new();
        let mut inh_spikes: Vec<usize> = Vec::new();
        let mut hot_posts: Vec<usize> = Vec::new();

        let mut spike_counts = vec![0u32; n_exc];
        let mut first_fire: Vec<Option<u32>> = vec![None; n_exc];
        let mut fired_order: Vec<usize> = Vec::new();
        let mut first_fire_tick: Option<u32> = None;

        let drive_scores = self.expected_drive_scores(rates);
        let first_tick_argmax = argmax_f32(&drive_scores);

        for tick in 0..self.cfg.ticks {
            // 1. Sample this tick's input spikes (full scan of all rates).
            self.encoder
                .sample_tick(rates, &mut self.rng, &mut input_spikes);

            // 2. Synaptic propagation: one injection per synapse.
            let gain = self.cfg.input_gain;
            for &i in &input_spikes {
                let row = &self.weights[i * n_exc..(i + 1) * n_exc];
                for (j, &w) in row.iter().enumerate() {
                    self.exc.inject(j, w * gain);
                }
            }
            // 3. Advance the excitatory population.
            self.exc.step(&mut exc_spikes);
            self.exc.decay_theta(self.cfg.tc_theta_decay);

            // 4. Lateral inhibition: per-spike O(n_exc) scatter.
            for &j in &exc_spikes {
                self.inh.inject(j, self.cfg.exc_strength);
                for k in 0..n_exc {
                    if k != j {
                        self.exc.inject(k, -self.cfg.inh_strength);
                    }
                }
            }
            self.inh.step(&mut inh_spikes);

            // 6. Bookkeeping.
            for &j in &exc_spikes {
                spike_counts[j] += 1;
                if first_fire[j].is_none() {
                    first_fire[j] = Some(tick);
                    fired_order.push(j);
                }
                first_fire_tick.get_or_insert(tick);
                self.exc.bump_theta(j, self.cfg.theta_plus);
            }

            // 7. STDP (PostPre): traces decay, then spikes update weights.
            if learn {
                stdp_updates += self.stdp_tick(&input_spikes, &exc_spikes, &mut hot_posts);
            }
            if telemetry::enabled() {
                input_spike_total += input_spikes.len() as u64;
            }
        }

        if learn {
            self.normalize_dirty();
        }

        if telemetry::enabled() {
            telemetry::counter!("snn.presentations", 1);
            telemetry::counter!(
                "snn.exc.spikes",
                spike_counts.iter().map(|&c| c as u64).sum::<u64>()
            );
            telemetry::counter!("snn.input.spikes", input_spike_total);
            if learn {
                telemetry::counter!("snn.stdp.weight_updates", stdp_updates);
            }
        }

        let winner = Self::pick_winner(&spike_counts, &first_fire, &drive_scores);
        let runner_up_potential = self.runner_up_potential(winner);

        RunOutcome {
            spike_counts,
            winner,
            fired: fired_order,
            first_fire_tick,
            first_tick_argmax,
            runner_up_potential,
        }
    }

    /// Applies one tick of PostPre STDP over the full state: every trace
    /// decays, the depression hot set comes from a scan of every post
    /// trace, and potentiation walks each firing neuron's whole strided
    /// column. `hot` is the caller's reusable hot-set buffer. Returns the
    /// number of synapses touched (0 when telemetry is compiled out — the
    /// count is only maintained for observability).
    fn stdp_tick(
        &mut self,
        input_spikes: &[usize],
        exc_spikes: &[usize],
        hot: &mut Vec<usize>,
    ) -> u64 {
        let mut touched = 0u64;
        let n_exc = self.cfg.n_exc;
        let stdp = self.cfg.stdp;
        for x in &mut self.x_pre {
            *x *= self.trace_decay;
        }
        for x in &mut self.x_post {
            *x *= self.trace_decay;
        }
        // Presynaptic spikes: bump pre trace, depress synapses onto
        // recently-fired neurons (post-before-pre), visiting each spiking
        // input's row at the live-post-trace columns only.
        if !input_spikes.is_empty() {
            hot.clear();
            hot.extend(
                self.x_post
                    .iter()
                    .enumerate()
                    .filter(|(_, &x)| x > 1e-3)
                    .map(|(j, _)| j),
            );
            for &i in input_spikes {
                self.x_pre[i] = 1.0;
                let row = &mut self.weights[i * n_exc..(i + 1) * n_exc];
                for &j in hot.iter() {
                    row[j] = (row[j] - stdp.nu_pre * self.x_post[j]).max(0.0);
                    self.dirty_cols[j] = true;
                    if telemetry::enabled() {
                        touched += 1;
                    }
                }
            }
        }
        // Postsynaptic spikes: bump post trace, potentiate synapses from
        // recently-spiked inputs (pre-before-post), walking the strided
        // column.
        for &j in exc_spikes {
            self.x_post[j] = 1.0;
            self.dirty_cols[j] = true;
            for (w, &xp) in self.weights[j..].iter_mut().step_by(n_exc).zip(&self.x_pre) {
                if xp > 1e-3 {
                    *w = (*w + stdp.nu_post * xp).min(stdp.w_max);
                    if telemetry::enabled() {
                        touched += 1;
                    }
                }
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use crate::{DiehlCookNetwork, SnnConfig};

    fn small_cfg() -> SnnConfig {
        let mut cfg = SnnConfig {
            n_input: 24,
            n_exc: 8,
            ..SnnConfig::default()
        };
        cfg.stdp.norm = 4.8;
        cfg
    }

    #[test]
    fn reference_kernel_learns_like_the_event_kernel() {
        let mut net = DiehlCookNetwork::new(small_cfg(), 7).unwrap();
        let mut rates = vec![0.0f32; 24];
        for i in [2usize, 10, 19] {
            rates[i] = 1.0;
        }
        let mut last_winner = None;
        for _ in 0..6 {
            last_winner = net.present_reference(&rates, true).winner.or(last_winner);
        }
        let trained = last_winner.expect("some neuron fires");
        let mut consistent = 0;
        for _ in 0..5 {
            if net.present_reference(&rates, true).winner == Some(trained) {
                consistent += 1;
            }
        }
        assert!(consistent >= 4, "stable winner, got {consistent}/5");
    }
}
