//! Equivalence of the event-driven presentation kernel and the retained
//! pre-rewrite reference kernel (`crate::reference`).
//!
//! Both kernels consume the RNG identically, so same-seeded networks see
//! bit-identical input spike trains. The event-driven kernel re-associates
//! the membrane arithmetic (drive is pre-summed into a buffer before one
//! bulk injection; inhibition lands batched), so raw potentials may differ
//! in the last ULPs — the assertions therefore cover the *spike structure*
//! (counts, winner, fired order, first-fire ticks, 1-tick argmax) exactly,
//! and analog quantities (runner-up potential, learned weights) to a
//! documented fp-re-association tolerance.
//!
//! Per the ROADMAP seed-robustness note, every assertion compares the two
//! kernels against each other at the same seed — never against hard-coded
//! learned outcomes or exact winner identities.

use proptest::prelude::*;

use pathfinder_snn::{DiehlCookNetwork, SnnConfig};

/// Relative tolerance for analog values whose update order differs between
/// kernels (fp re-association only — a real divergence is far larger).
const ANALOG_TOL: f32 = 1e-3;

fn small_cfg(n_input: usize, n_exc: usize, inh_strength: f32) -> SnnConfig {
    let mut cfg = SnnConfig {
        n_input,
        n_exc,
        inh_strength,
        ..SnnConfig::default()
    };
    // Scale the normalization target with the input count so the average
    // initial weight matches the paper-sized network (norm / n_input = 0.2
    // here, as in the unit suites).
    cfg.stdp.norm = n_input as f32 * 0.2;
    cfg
}

proptest! {
    /// The two kernels agree on every discrete outcome of a presentation,
    /// across random sizes, inhibition strengths, patterns, and seeds —
    /// including `n_exc == 1`, which also pins the runner-up clamp.
    #[test]
    fn kernels_agree_on_spike_structure(
        seed in 0u64..1_000,
        n_exc in 1usize..12,
        // The vendored proptest stub only generates integer ranges; scale
        // to floats by hand (inhibition 0..40, intensity 0.30..0.99).
        inh_tenths in 0u32..400,
        pattern in prop::collection::vec(0usize..24, 1..6),
        intensity_pct in 30u32..100,
        rounds in 1usize..4,
    ) {
        let cfg = small_cfg(24, n_exc, inh_tenths as f32 / 10.0);
        let intensity = intensity_pct as f32 / 100.0;
        let mut event = DiehlCookNetwork::new(cfg, seed).unwrap();
        let mut reference = DiehlCookNetwork::new(cfg, seed).unwrap();

        let mut rates = vec![0.0f32; 24];
        for &i in &pattern {
            rates[i] = intensity;
        }

        for round in 0..rounds {
            let a = event.present(&rates, true);
            let b = reference.present_reference(&rates, true);

            prop_assert_eq!(
                a.spike_counts.clone(), b.spike_counts.clone(),
                "spike counts diverged in round {}", round
            );
            prop_assert_eq!(a.winner, b.winner, "winner diverged in round {}", round);
            prop_assert_eq!(
                a.fired.clone(), b.fired.clone(),
                "fired order diverged in round {}", round
            );
            prop_assert_eq!(
                a.first_fire_tick, b.first_fire_tick,
                "first-fire tick diverged in round {}", round
            );
            prop_assert_eq!(
                a.first_tick_argmax, b.first_tick_argmax,
                "1-tick argmax diverged in round {}", round
            );
            prop_assert!(
                a.runner_up_potential.is_finite() && b.runner_up_potential.is_finite(),
                "runner-up must be finite (got {} / {})",
                a.runner_up_potential, b.runner_up_potential
            );
            prop_assert!(
                (a.runner_up_potential - b.runner_up_potential).abs()
                    <= ANALOG_TOL * b.runner_up_potential.abs().max(1.0),
                "runner-up potential outside fp tolerance: {} vs {}",
                a.runner_up_potential, b.runner_up_potential
            );
        }

        // Identical spike trains drive identical STDP updates, so learned
        // weights track each other to fp tolerance as well.
        prop_assert_eq!(event.weights().len(), reference.weights().len());
        for (idx, (wa, wb)) in event.weights().iter().zip(reference.weights()).enumerate() {
            prop_assert!(
                (wa - wb).abs() <= ANALOG_TOL * wb.abs().max(1.0),
                "weight {} diverged: {} vs {}", idx, wa, wb
            );
        }
        prop_assert_eq!(event.presentations(), reference.presentations());
    }

    /// Inference-only presentations (the Figure 8 duty-cycle's off phase)
    /// agree too, and neither kernel moves weights.
    #[test]
    fn kernels_agree_without_learning(
        seed in 0u64..1_000,
        n_exc in 1usize..10,
        pattern in prop::collection::vec(0usize..16, 1..5),
    ) {
        let cfg = small_cfg(16, n_exc, 17.5);
        let mut event = DiehlCookNetwork::new(cfg, seed).unwrap();
        let mut reference = DiehlCookNetwork::new(cfg, seed).unwrap();
        let frozen = event.weights().to_vec();

        let mut rates = vec![0.0f32; 16];
        for &i in &pattern {
            rates[i] = 1.0;
        }

        let a = event.present(&rates, false);
        let b = reference.present_reference(&rates, false);
        prop_assert_eq!(a.spike_counts, b.spike_counts);
        prop_assert_eq!(a.winner, b.winner);
        prop_assert_eq!(a.fired, b.fired);
        prop_assert_eq!(a.first_fire_tick, b.first_fire_tick);
        prop_assert_eq!(event.weights(), &frozen[..]);
        prop_assert_eq!(reference.weights(), &frozen[..]);
    }

    /// The frozen-inference path, `present_frozen`, pins against the
    /// reference kernel with learning disabled: train two networks in
    /// lockstep through the *same* kernel (bit-identical state), then align
    /// the reference's shared RNG with the frozen kernel's derived
    /// per-query stream — winner, fired order, and spike counts must agree
    /// exactly. The frozen network's persistent state (weights, derived
    /// query seed, weight version, repeat outcomes) must be untouched.
    #[test]
    fn frozen_kernel_agrees_with_reference_without_learning(
        seed in 0u64..1_000,
        n_exc in 1usize..10,
        pattern in prop::collection::vec(0usize..16, 1..5),
        train_rounds in 0usize..4,
        intensity_pct in 30u32..100,
    ) {
        let cfg = small_cfg(16, n_exc, 17.5);
        let mut frozen = DiehlCookNetwork::new(cfg, seed).unwrap();
        let mut reference = DiehlCookNetwork::new(cfg, seed).unwrap();

        let mut rates = vec![0.0f32; 16];
        for &i in &pattern {
            rates[i] = intensity_pct as f32 / 100.0;
        }

        // Lockstep training through one kernel keeps the two networks
        // bit-identical (same seed, same draws, same arithmetic) — so the
        // comparison below starts from genuinely trained, equal state.
        for _ in 0..train_rounds {
            frozen.present_reference(&rates, true);
            reference.present_reference(&rates, true);
        }

        let weights_before = frozen.weights().to_vec();
        let version_before = frozen.weight_version();
        let seed_before = frozen.frozen_query_seed(&rates);

        // The reference run mutates theta; compare against a clone per
        // round so every round starts from the shared trained state.
        let reference_base = reference.clone();
        for round in 0..2 {
            let mut reference = reference_base.clone();
            reference.reseed_rng(frozen.frozen_query_seed(&rates));
            let a = frozen.present_frozen(&rates);
            let b = reference.present_reference(&rates, false);
            prop_assert_eq!(
                a.spike_counts.clone(), b.spike_counts.clone(),
                "spike counts diverged in round {}", round
            );
            prop_assert_eq!(a.winner, b.winner, "winner diverged in round {}", round);
            prop_assert_eq!(
                a.fired.clone(), b.fired.clone(),
                "fired order diverged in round {}", round
            );
            prop_assert_eq!(
                a.first_fire_tick, b.first_fire_tick,
                "first-fire tick diverged in round {}", round
            );
            prop_assert_eq!(
                a.first_tick_argmax, b.first_tick_argmax,
                "1-tick argmax diverged in round {}", round
            );
        }

        // Purity: the frozen queries left no persistent trace behind.
        prop_assert_eq!(frozen.weights(), &weights_before[..]);
        prop_assert_eq!(frozen.weight_version(), version_before);
        prop_assert_eq!(frozen.frozen_query_seed(&rates), seed_before);
    }

    /// `present_frozen` is the production event-driven kernel run with
    /// `learn == false` on the derived query stream, on private thetas, so
    /// the two agree *bitwise* — across inhibition strengths, training
    /// histories, graded intensities and the all-quiet query.
    #[test]
    fn frozen_kernel_agrees_with_event_kernel(
        seed in 0u64..1_000,
        n_exc in 1usize..12,
        // Inhibition 0..40, as in the learning case above.
        inh_tenths in 0u32..400,
        pattern in prop::collection::vec(0usize..16, 0..5),
        intensity_pct in 30u32..101,
        train_rounds in 0usize..4,
    ) {
        let cfg = small_cfg(16, n_exc, inh_tenths as f32 / 10.0);
        let mut frozen = DiehlCookNetwork::new(cfg, seed).unwrap();
        let mut event = DiehlCookNetwork::new(cfg, seed).unwrap();

        let mut rates = vec![0.0f32; 16];
        for &i in &pattern {
            rates[i] = intensity_pct as f32 / 100.0;
        }
        for _ in 0..train_rounds {
            frozen.present(&rates, true);
            event.present(&rates, true);
        }

        event.reseed_rng(frozen.frozen_query_seed(&rates));
        let a = frozen.present_frozen(&rates);
        let b = event.present(&rates, false);
        prop_assert_eq!(a.spike_counts, b.spike_counts);
        prop_assert_eq!(a.winner, b.winner);
        prop_assert_eq!(a.fired, b.fired);
        prop_assert_eq!(a.first_fire_tick, b.first_fire_tick);
        prop_assert_eq!(a.first_tick_argmax, b.first_tick_argmax);
        prop_assert_eq!(
            a.runner_up_potential.to_bits(),
            b.runner_up_potential.to_bits(),
            "runner-up potential bits"
        );
    }
}
