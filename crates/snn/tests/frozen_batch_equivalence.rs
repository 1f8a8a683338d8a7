//! Exact-equality pin for cross-query batched frozen inference:
//! `present_frozen_batch(queries)` must be **bitwise** equal, lane by lane,
//! to N one-lane `present_frozen_batch(&[query])` calls — not "close",
//! identical. The kernel shares weight-row gathers across lanes and
//! vectorizes over the query dimension, but each lane keeps a private RNG
//! (seeded from `frozen_query_seed`), private theta/membrane state, and a
//! fixed per-element IEEE-754 op order, so a lane's outcome cannot depend
//! on the lanes it shares a batch with. (The one-lane kernel itself is
//! pinned against the reference oracle by `tests/kernel_equivalence.rs`.)
//!
//! The suite runs against whatever tier the host dispatches natively and,
//! in CI, again under `PATHFINDER_FORCE_SCALAR=1`; a tier-pinned case also
//! cross-checks multi-lane vs one-lane batches on the scalar tier
//! explicitly, so one native run covers both tiers on AVX2 hosts.
//!
//! Per the ROADMAP seed-robustness note, every assertion compares the two
//! paths against each other at the same seed — never against hard-coded
//! outcomes.

use proptest::prelude::*;

use pathfinder_snn::{DiehlCookNetwork, KernelTier, RunOutcome, SnnConfig};

fn small_cfg(n_input: usize, n_exc: usize, inh_strength: f32) -> SnnConfig {
    let mut cfg = SnnConfig {
        n_input,
        n_exc,
        inh_strength,
        ..SnnConfig::default()
    };
    // Average initial weight matches the paper-sized network
    // (norm / n_input = 0.2, as in the unit suites).
    cfg.stdp.norm = n_input as f32 * 0.2;
    cfg
}

/// Bitwise outcome equality — `PartialEq` would accept `-0.0 == 0.0` on the
/// analog field, the batch contract does not.
fn assert_bits_eq(batch: &RunOutcome, single: &RunOutcome, lane: usize) {
    assert_eq!(
        batch.spike_counts, single.spike_counts,
        "lane {lane} counts"
    );
    assert_eq!(batch.winner, single.winner, "lane {lane} winner");
    assert_eq!(batch.fired, single.fired, "lane {lane} fired order");
    assert_eq!(
        batch.first_fire_tick, single.first_fire_tick,
        "lane {lane} first-fire tick"
    );
    assert_eq!(
        batch.first_tick_argmax, single.first_tick_argmax,
        "lane {lane} first-tick argmax"
    );
    assert_eq!(
        batch.runner_up_potential.to_bits(),
        single.runner_up_potential.to_bits(),
        "lane {lane} runner-up potential bits"
    );
}

/// Builds `lanes` rate patterns (deliberately including repeats once the
/// index wraps the pattern pool, and an all-zero lane when `lanes > 2`).
fn lane_patterns(lanes: usize, n_input: usize, salt: usize) -> Vec<Vec<f32>> {
    (0..lanes)
        .map(|l| {
            let mut v = vec![0.0f32; n_input];
            if lanes > 2 && l == 2 {
                return v; // quiet lane: no active inputs at all
            }
            for k in 0..3 {
                v[(l * 5 + k * 7 + salt) % n_input] = 1.0 - 0.07 * k as f32;
            }
            v
        })
        .collect()
}

/// One frozen query, run as a one-lane batch.
fn frozen_one(net: &mut DiehlCookNetwork, rates: &[f32]) -> RunOutcome {
    net.present_frozen_batch(&[rates]).remove(0)
}

fn check_batch_equals_one_lane_batches(net: &mut DiehlCookNetwork, patterns: &[Vec<f32>]) {
    let queries: Vec<&[f32]> = patterns.iter().map(|p| p.as_slice()).collect();
    let weights_before = net.weights().to_vec();
    let version_before = net.weight_version();
    let presentations_before = net.presentations();

    // One-lane batches run once *before* and once *after* the batch:
    // agreement across all three pins that the batch left weights, thetas,
    // and the derived query streams untouched (thetas aren't public, but
    // any theta drift would flip the repeated one-lane run bitwise).
    let before: Vec<RunOutcome> = queries.iter().map(|q| frozen_one(net, q)).collect();
    let batch = net.present_frozen_batch(&queries);
    assert_eq!(batch.len(), queries.len());
    assert_eq!(net.weights(), &weights_before[..], "weights untouched");
    assert_eq!(net.weight_version(), version_before, "version untouched");
    assert_eq!(
        net.presentations(),
        presentations_before + 2 * queries.len() as u64,
        "batch counts one presentation per lane"
    );
    for (l, q) in queries.iter().enumerate() {
        let after = frozen_one(net, q);
        assert_bits_eq(&batch[l], &before[l], l);
        assert_bits_eq(&batch[l], &after, l);
    }
}

proptest! {
    /// Batched frozen inference is bitwise-equal to one-lane runs across
    /// random sizes, inhibition strengths, training histories, and lane
    /// counts — including the 1-lane batch itself.
    #[test]
    fn batch_lanes_match_one_lane_batches_bitwise(
        seed in 0u64..1_000,
        n_exc in 1usize..12,
        // The vendored proptest stub only generates integer ranges; scale
        // to floats by hand (inhibition 0..40).
        inh_tenths in 0u32..400,
        lanes in 1usize..9,
        salt in 0usize..24,
        rounds in 0usize..4,
    ) {
        let cfg = small_cfg(24, n_exc, inh_tenths as f32 / 10.0);
        let mut net = DiehlCookNetwork::new(cfg, seed).unwrap();
        let patterns = lane_patterns(lanes, 24, salt);
        for p in &patterns {
            for _ in 0..rounds {
                net.present(p, true);
            }
        }
        check_batch_equals_one_lane_batches(&mut net, &patterns);
    }
}

#[test]
fn zero_lane_batch_is_a_noop() {
    let mut net = DiehlCookNetwork::new(small_cfg(24, 8, 17.5), 3).unwrap();
    let presentations = net.presentations();
    let version = net.weight_version();
    assert!(net.present_frozen_batch(&[]).is_empty());
    assert_eq!(net.presentations(), presentations);
    assert_eq!(net.weight_version(), version);
}

#[test]
fn scalar_tier_batch_matches_scalar_one_lane_batches() {
    // Pin the scalar tier explicitly so a native AVX2 run still exercises
    // the scalar batch path (CI additionally re-runs the whole suite under
    // PATHFINDER_FORCE_SCALAR=1).
    let cfg = small_cfg(24, 8, 17.5);
    let mut net = DiehlCookNetwork::with_kernel_tier(cfg, 23, KernelTier::Scalar).unwrap();
    assert_eq!(net.kernel_tier(), KernelTier::Scalar);
    let patterns = lane_patterns(6, 24, 5);
    for p in &patterns {
        net.present(p, true);
    }
    check_batch_equals_one_lane_batches(&mut net, &patterns);
}

#[test]
fn native_and_scalar_tiers_agree_on_batches() {
    // Cross-tier: the same batch on a natively dispatched network and a
    // scalar-pinned twin must agree bitwise (vacuous on scalar-only hosts).
    let cfg = small_cfg(24, 7, 12.0);
    let mut native = DiehlCookNetwork::new(cfg, 41).unwrap();
    let mut scalar = DiehlCookNetwork::with_kernel_tier(cfg, 41, KernelTier::Scalar).unwrap();
    let patterns = lane_patterns(7, 24, 9);
    for p in &patterns {
        native.present(p, true);
        scalar.present(p, true);
    }
    let queries: Vec<&[f32]> = patterns.iter().map(|p| p.as_slice()).collect();
    let a = native.present_frozen_batch(&queries);
    let b = scalar.present_frozen_batch(&queries);
    for l in 0..queries.len() {
        assert_bits_eq(&a[l], &b[l], l);
    }
}
