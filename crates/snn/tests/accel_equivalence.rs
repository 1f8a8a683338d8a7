//! Tier pinning: the dispatched SIMD kernels against the forced-scalar
//! fallback.
//!
//! The [`pathfinder_snn::accel`] contract is stronger than the usual
//! kernel-equivalence tolerance: every SIMD kernel performs the *same*
//! IEEE-754 operations per element as the scalar loop (no FMA, no
//! re-associated reductions), so a network dispatched to the native tier
//! and one pinned to [`KernelTier::Scalar`] must agree **bitwise** — on
//! every outcome field, on the learned weights, and on the adaptive
//! thresholds. These tests therefore use exact equality throughout; the
//! analog-tolerance pattern of `kernel_equivalence.rs` applies only across
//! *algorithms* (event vs reference), never across tiers.
//!
//! On a host whose detected tier is already scalar (no AVX2, or
//! `PATHFINDER_FORCE_SCALAR` set — the CI fallback job), both networks run
//! the same loops and the assertions pass trivially; on AVX2 hosts the
//! same run pins the vectorized kernels. Per the ROADMAP seed-robustness
//! note, assertions compare the two tiers against each other at the same
//! seed — never against hard-coded learned outcomes.

use proptest::prelude::*;

use pathfinder_snn::{DiehlCookNetwork, KernelTier, SnnConfig};

fn small_cfg(n_input: usize, n_exc: usize, inh_strength: f32) -> SnnConfig {
    let mut cfg = SnnConfig {
        n_input,
        n_exc,
        inh_strength,
        ..SnnConfig::default()
    };
    // Keep the paper-sized average initial weight (norm / n_input = 0.2
    // here), as in the kernel-equivalence suite.
    cfg.stdp.norm = n_input as f32 * 0.2;
    cfg
}

/// Bitwise view of an f32 slice, for exact-equality assertions with
/// readable failures.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Learning presentations through the event-driven kernel agree
    /// bitwise across tiers: every discrete outcome, the analog runner-up
    /// potential, and the learned weights. `n_exc` crosses the 8-lane
    /// boundary (tail-only, exact-lane, and lanes-plus-tail populations).
    #[test]
    fn tiers_agree_bitwise_on_learning(
        seed in 0u64..1_000,
        n_exc in 1usize..14,
        // The vendored proptest stub only generates integer ranges; scale
        // to floats by hand (inhibition 0..40, intensity 0.30..0.99).
        inh_tenths in 0u32..400,
        pattern in prop::collection::vec(0usize..24, 1..6),
        intensity_pct in 30u32..100,
        rounds in 1usize..4,
    ) {
        let cfg = small_cfg(24, n_exc, inh_tenths as f32 / 10.0);
        let mut native = DiehlCookNetwork::new(cfg, seed).unwrap();
        let mut scalar = DiehlCookNetwork::with_kernel_tier(cfg, seed, KernelTier::Scalar).unwrap();
        prop_assert_eq!(scalar.kernel_tier(), KernelTier::Scalar);

        let mut rates = vec![0.0f32; 24];
        for &i in &pattern {
            rates[i] = intensity_pct as f32 / 100.0;
        }

        for round in 0..rounds {
            let a = native.present(&rates, true);
            let b = scalar.present(&rates, true);
            // RunOutcome's PartialEq is exact f32 equality — precisely the
            // tier contract.
            prop_assert_eq!(a, b, "outcome diverged across tiers in round {}", round);
            prop_assert_eq!(
                bits(native.weights()), bits(scalar.weights()),
                "weights diverged bitwise in round {}", round
            );
        }
        prop_assert_eq!(native.presentations(), scalar.presentations());
        prop_assert_eq!(native.weight_version(), scalar.weight_version());
    }

    /// The pure inference paths agree bitwise too: frozen-weight queries
    /// (derived RNG stream, private thetas) and the §3.4 1-tick readout,
    /// after a few rounds of training on each side.
    #[test]
    fn tiers_agree_bitwise_on_inference(
        seed in 0u64..1_000,
        n_exc in 1usize..14,
        // Inhibition 0..40, as in the learning case above.
        inh_tenths in 0u32..400,
        pattern in prop::collection::vec(0usize..16, 1..5),
        train_rounds in 0usize..4,
    ) {
        let cfg = small_cfg(16, n_exc, inh_tenths as f32 / 10.0);
        let mut native = DiehlCookNetwork::new(cfg, seed).unwrap();
        let mut scalar = DiehlCookNetwork::with_kernel_tier(cfg, seed, KernelTier::Scalar).unwrap();

        let mut rates = vec![0.0f32; 16];
        for &i in &pattern {
            rates[i] = 1.0;
        }

        for _ in 0..train_rounds {
            native.present(&rates, true);
            scalar.present(&rates, true);
        }

        // Same state on both sides implies the same derived query seed…
        prop_assert_eq!(
            native.frozen_query_seed(&rates),
            scalar.frozen_query_seed(&rates)
        );
        // …and the frozen kernels must then agree on everything, exactly.
        let a = native.present_frozen(&rates);
        let b = scalar.present_frozen(&rates);
        prop_assert_eq!(a, b, "frozen outcome diverged across tiers");

        prop_assert_eq!(
            native.present_one_tick(&rates, false),
            scalar.present_one_tick(&rates, false),
            "1-tick winner diverged across tiers"
        );
        prop_assert_eq!(
            native.present_one_tick(&rates, true),
            scalar.present_one_tick(&rates, true),
            "1-tick learning winner diverged across tiers"
        );
        prop_assert_eq!(bits(native.weights()), bits(scalar.weights()));
    }

    /// The retained reference kernel also runs through tier-dispatched
    /// `LifLayer` bulk steps, so it is tier-pinned the same way — and it
    /// still agrees with the event kernel across tiers (scalar reference
    /// vs native event), closing the triangle with the existing
    /// `kernel_equivalence.rs` suite.
    #[test]
    fn reference_kernel_is_tier_pinned(
        seed in 0u64..500,
        n_exc in 1usize..12,
        pattern in prop::collection::vec(0usize..16, 1..5),
    ) {
        let cfg = small_cfg(16, n_exc, 17.5);
        let mut native = DiehlCookNetwork::new(cfg, seed).unwrap();
        let mut scalar = DiehlCookNetwork::with_kernel_tier(cfg, seed, KernelTier::Scalar).unwrap();

        let mut rates = vec![0.0f32; 16];
        for &i in &pattern {
            rates[i] = 1.0;
        }

        for round in 0..2 {
            let a = native.present_reference(&rates, true);
            let b = scalar.present_reference(&rates, true);
            prop_assert_eq!(a, b, "reference outcome diverged across tiers in round {}", round);
            prop_assert_eq!(bits(native.weights()), bits(scalar.weights()));
        }
    }
}

/// The paper-sized network (384 inputs, 50 excitatory neurons — Table 4)
/// stays tier-pinned through a learning run plus every inference path.
/// 50 = 6×8 + 2 exercises both the full-lane body and the scalar tail of
/// each kernel at production shape.
#[test]
fn paper_sized_network_is_tier_pinned() {
    let cfg = SnnConfig::default();
    let mut native = DiehlCookNetwork::new(cfg, 42).unwrap();
    let mut scalar = DiehlCookNetwork::with_kernel_tier(cfg, 42, KernelTier::Scalar).unwrap();

    let mut rates = vec![0.0f32; cfg.n_input];
    for (i, rate) in rates.iter_mut().enumerate() {
        // A deterministic multi-intensity pattern over ~1/6 of the inputs.
        if i % 6 == 0 {
            *rate = 0.3 + 0.7 * ((i % 7) as f32 / 7.0);
        }
    }

    for round in 0..5 {
        let a = native.present(&rates, true);
        let b = scalar.present(&rates, true);
        assert_eq!(a, b, "outcome diverged across tiers in round {round}");
    }
    assert_eq!(
        bits(native.weights()),
        bits(scalar.weights()),
        "learned weights diverged bitwise"
    );

    let a = native.present_frozen(&rates);
    let b = scalar.present_frozen(&rates);
    assert_eq!(a, b, "frozen outcome diverged across tiers");
    assert_eq!(
        native.present_one_tick(&rates, false),
        scalar.present_one_tick(&rates, false)
    );
}

/// Requesting an unsupported tier is a construction error, never UB: on
/// every host, at least the scalar tier is constructible, and `new`'s
/// auto-detected tier is always supported.
#[test]
fn unsupported_tiers_are_rejected_at_construction() {
    let cfg = small_cfg(16, 4, 17.5);
    let net = DiehlCookNetwork::with_kernel_tier(cfg, 1, KernelTier::Scalar).unwrap();
    assert_eq!(net.kernel_tier(), KernelTier::Scalar);

    let auto = DiehlCookNetwork::new(cfg, 1).unwrap();
    assert!(auto.kernel_tier().supported());

    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = DiehlCookNetwork::with_kernel_tier(cfg, 1, KernelTier::Avx2);
        assert_eq!(avx2.is_ok(), KernelTier::Avx2.supported());
    }
}
