//! Runtime-dispatched SIMD kernels for the SNN hot loops.
//!
//! The presentation hot path spends nearly all of its time in a handful of
//! dense f32 loops over the excitatory population (drive accumulation,
//! membrane integration, theta decay) and the weight matrix (expected-drive
//! scores, normalization). This module provides AVX2 implementations of
//! those loops behind a *checked* runtime dispatch: capabilities are probed
//! once per process with `is_x86_feature_detected!` (see
//! [`CpuCapabilities::detect`] / [`active_tier`]), every network captures
//! the selected [`KernelTier`] at construction, and hosts without AVX2 —
//! or runs with the `PATHFINDER_FORCE_SCALAR` environment override set —
//! fall back to the portable scalar loops.
//!
//! ## The bit-identity contract
//!
//! Every AVX2 kernel performs **exactly the same IEEE-754 operations per
//! element, in the same order, as its scalar fallback**: multiplies and
//! adds are kept as separate rounding steps (no FMA contraction), no
//! reduction is re-associated (the per-column weight sums accumulate row
//! by row, in the same order a strided column walk visits them), and
//! masked lanes preserve their input bits exactly. Dispatch therefore
//! never changes results — not within a tolerance, but *bitwise* — which
//! is what lets `crates/snn/tests/accel_equivalence.rs` pin the tiers
//! against each other with exact equality on every outcome, and lets the
//! existing kernel-equivalence suite hold unchanged under either tier.
//!
//! ## Forcing the scalar tier
//!
//! Setting `PATHFINDER_FORCE_SCALAR` to anything other than `0`, `false`,
//! or the empty string makes [`active_tier`] return [`KernelTier::Scalar`]
//! regardless of CPU support. CI runs the SNN test suite once under this
//! override so the scalar fallback stays equivalence-pinned even on AVX2
//! runners. The variable is read once per process (the tier is cached in a
//! `OnceLock`); changing it at runtime has no effect on networks already
//! constructed or on later [`active_tier`] calls.
//!
//! ## Shared dispatch machinery
//!
//! The capability probe, tier enum, and override parsing started life in
//! this module (PR 6) and now live in the workspace-shared
//! [`pathfinder_accel`] crate, where the `sim` crate's integer replay
//! kernels dispatch through the same types. The elementwise f32 kernels
//! (`add_assign`, `scale_in_place`, `masked_scaled_add`,
//! `masked_add_uniform`, `lif_step` and its `LifStepParams`) moved there
//! too (PR 10), because the cross-query batched kernel reuses them
//! verbatim over lane-major `[lanes × n]` state — dispatching the single-
//! and multi-lane paths through the *same* functions makes their
//! per-element bit-identity true by construction. `lif_step` became the
//! fused `lif_tick` (injection, step and theta decay in one pass).
//! This module re-exports everything unchanged and keeps only the kernels
//! with SNN-specific shapes (row sums of the weight matrix, expected-drive
//! accumulation, theta-gap readout, column-strided normalization).

pub use pathfinder_accel::{active_tier, CpuCapabilities, KernelTier};
pub(crate) use pathfinder_accel::{
    add_assign, lif_tick, masked_add_uniform, masked_scaled_add, scale_in_place, LifStepParams,
};

// ---------------------------------------------------------------------------
// Dispatch wrappers. Each asserts slice-shape invariants once, then routes
// to the scalar loop or (behind the capability check encoded in the tier's
// construction) the AVX2 kernel.
// ---------------------------------------------------------------------------

/// `dst[i] += k * src[i]` — the expected-drive accumulation
/// (`rate × weight-row`), kept as separate mul/add roundings.
#[inline]
pub(crate) fn scaled_add_assign(tier: KernelTier, dst: &mut [f32], src: &[f32], k: f32) {
    assert_eq!(dst.len(), src.len(), "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => scaled_add_assign_scalar(dst, src, k),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe { avx2::scaled_add_assign(dst, src, k) },
    }
}

/// `scores[i] /= gap + max(thetas[i], 0)` — the final step of the §3.4
/// expected time-to-fire readout.
#[inline]
pub(crate) fn div_by_theta_gap(tier: KernelTier, scores: &mut [f32], thetas: &[f32], gap: f32) {
    assert_eq!(scores.len(), thetas.len(), "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => div_by_theta_gap_scalar(scores, thetas, gap),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe { avx2::div_by_theta_gap(scores, thetas, gap) },
    }
}

/// `out[j] = 0 + w[r0][j] + w[r1][j] + …` over the rows of an input-major
/// weight matrix (`weights[r * n + j]`) listed in `rows`, added in that
/// order — one tick's synaptic drive from its spiking inputs. The AVX2
/// kernel keeps up to 64 column accumulators in registers across every
/// row and stores once; each column still sees the scalar loop's adds in
/// the same order, so the sums are bitwise the scalar ones.
///
/// # Panics
///
/// Panics if `out.len() != n`, the matrix is ragged, or a row index is
/// out of range.
#[inline]
pub(crate) fn sum_rows(
    tier: KernelTier,
    weights: &[f32],
    n: usize,
    rows: &[usize],
    out: &mut [f32],
) {
    sum_rows_iter(tier, weights, n, rows.iter().copied(), out);
}

/// [`sum_rows`] over any re-iterable row sequence (the AVX2 kernel walks
/// `rows` once per 64-column block).
fn sum_rows_iter<I>(tier: KernelTier, weights: &[f32], n: usize, rows: I, out: &mut [f32])
where
    I: Iterator<Item = usize> + Clone,
{
    assert!(n > 0, "accel: n_cols must be positive");
    assert_eq!(weights.len() % n, 0, "accel: ragged weight matrix");
    assert_eq!(out.len(), n, "accel: slice length mismatch");
    let n_rows = weights.len() / n;
    assert!(rows.clone().all(|r| r < n_rows), "accel: row out of range");
    match tier {
        KernelTier::Scalar => {
            out.fill(0.0);
            for r in rows {
                add_assign(tier, out, &weights[r * n..(r + 1) * n]);
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`; every row index was checked above.
        KernelTier::Avx2 => unsafe { avx2::sum_rows(weights, n, rows, out) },
    }
}

/// Per-column sums of an input-major weight matrix (`weights[i * n_cols
/// + j]`), written into `out` (cleared and resized to `n_cols`): the
/// [`sum_rows`] of every row. Columns accumulate row by row — the same
/// ascending-`i` order as a strided column walk, so the sums are
/// bit-identical to `DiehlCookNetwork::column_weights(j).sum()`.
#[inline]
pub(crate) fn column_sums(tier: KernelTier, weights: &[f32], n_cols: usize, out: &mut Vec<f32>) {
    assert!(n_cols > 0, "accel: n_cols must be positive");
    out.clear();
    out.resize(n_cols, 0.0);
    sum_rows_iter(tier, weights, n_cols, 0..weights.len() / n_cols, out);
}

/// Scales column `j` of an input-major weight matrix by `scales[j]`,
/// applied row by row. A scale of exactly `1.0` is an IEEE identity, so
/// callers pass `1.0` for columns that must not move.
#[inline]
pub(crate) fn scale_columns(tier: KernelTier, weights: &mut [f32], n_cols: usize, scales: &[f32]) {
    assert!(n_cols > 0, "accel: n_cols must be positive");
    assert_eq!(weights.len() % n_cols, 0, "accel: ragged weight matrix");
    assert_eq!(scales.len(), n_cols, "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => {
            for row in weights.chunks_exact_mut(n_cols) {
                mul_assign_scalar(row, scales);
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe {
            for row in weights.chunks_exact_mut(n_cols) {
                avx2::mul_assign(row, scales);
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels — the semantic baseline. The AVX2 kernels below reuse
// these for their non-multiple-of-8 tails.
// ---------------------------------------------------------------------------

fn scaled_add_assign_scalar(dst: &mut [f32], src: &[f32], k: f32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += k * s;
    }
}

fn mul_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d *= s;
    }
}

fn div_by_theta_gap_scalar(scores: &mut [f32], thetas: &[f32], gap: f32) {
    for (d, &t) in scores.iter_mut().zip(thetas) {
        *d /= gap + t.max(0.0);
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels. Each processes 8 lanes per iteration with the *same*
// per-element operations as its scalar counterpart (separate mul/add
// roundings, IEEE division, masked lanes untouched bitwise) and hands the
// remainder to the scalar loop.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    const LANES: usize = 8;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scaled_add_assign(dst: &mut [f32], src: &[f32], k: f32) {
        let n = dst.len();
        let kk = _mm256_set1_ps(k);
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            // mul then add as two roundings — no FMA, matching scalar.
            let prod = _mm256_mul_ps(kk, s);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, prod));
            i += LANES;
        }
        super::scaled_add_assign_scalar(&mut dst[i..], &src[i..], k);
    }

    /// Columns one register block of [`sum_rows`] covers.
    const BLOCK_COLS: usize = 8 * LANES;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_rows<I>(weights: &[f32], n: usize, rows: I, out: &mut [f32])
    where
        I: Iterator<Item = usize> + Clone,
    {
        let lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut col = 0;
        while col < n {
            let width = (n - col).min(BLOCK_COLS);
            let regs = width.div_ceil(LANES);
            // The block's last register loads and stores only the columns
            // that exist (the 2-column tail of a 50-wide row, say).
            let tail = (width - (regs - 1) * LANES) as i32;
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail), lane_ids);
            let w = weights.as_ptr().add(col);
            let o = out.as_mut_ptr().add(col);
            let rows = rows.clone();
            match regs {
                1 => sum_block::<1, I>(w, n, rows, mask, o),
                2 => sum_block::<2, I>(w, n, rows, mask, o),
                3 => sum_block::<3, I>(w, n, rows, mask, o),
                4 => sum_block::<4, I>(w, n, rows, mask, o),
                5 => sum_block::<5, I>(w, n, rows, mask, o),
                6 => sum_block::<6, I>(w, n, rows, mask, o),
                7 => sum_block::<7, I>(w, n, rows, mask, o),
                _ => sum_block::<8, I>(w, n, rows, mask, o),
            }
            col += width;
        }
    }

    /// `R` column accumulators held in YMM registers across every row;
    /// register `R - 1` is masked to the block's real columns.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sum_block<const R: usize, I: Iterator<Item = usize>>(
        w: *const f32,
        n: usize,
        rows: I,
        mask: __m256i,
        out: *mut f32,
    ) {
        let mut acc = [_mm256_setzero_ps(); R];
        for r in rows {
            let row = w.add(r * n);
            for (k, a) in acc.iter_mut().enumerate() {
                let x = if k + 1 < R {
                    _mm256_loadu_ps(row.add(k * LANES))
                } else {
                    _mm256_maskload_ps(row.add(k * LANES), mask)
                };
                *a = _mm256_add_ps(*a, x);
            }
        }
        for (k, a) in acc.iter().enumerate() {
            if k + 1 < R {
                _mm256_storeu_ps(out.add(k * LANES), *a);
            } else {
                _mm256_maskstore_ps(out.add(k * LANES), mask, *a);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(d, s));
            i += LANES;
        }
        super::mul_assign_scalar(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn div_by_theta_gap(scores: &mut [f32], thetas: &[f32], gap: f32) {
        let n = scores.len();
        let g = _mm256_set1_ps(gap);
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(scores.as_ptr().add(i));
            let t = _mm256_loadu_ps(thetas.as_ptr().add(i));
            // max(t, 0): theta is never NaN and never negative in this
            // network, so lane semantics match scalar f32::max exactly.
            let denom = _mm256_add_ps(g, _mm256_max_ps(t, zero));
            _mm256_storeu_ps(scores.as_mut_ptr().add(i), _mm256_div_ps(d, denom));
            i += LANES;
        }
        super::div_by_theta_gap_scalar(&mut scores[i..], &thetas[i..], gap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // (The dispatch-machinery tests — override parsing, forced-scalar
    // precedence, tier support — moved to `pathfinder-accel` with the
    // machinery itself; what stays here pins the f32 kernels.)

    /// Runs `f` once per tier and asserts the mutated buffer is bitwise
    /// identical. On hosts without AVX2 this degenerates to scalar-vs-
    /// scalar, which is still a valid (if trivial) check.
    fn assert_tiers_bitwise<F: Fn(KernelTier, &mut [f32])>(init: &[f32], f: F) {
        let mut scalar = init.to_vec();
        f(KernelTier::Scalar, &mut scalar);
        #[cfg(target_arch = "x86_64")]
        if KernelTier::Avx2.supported() {
            let mut simd = init.to_vec();
            f(KernelTier::Avx2, &mut simd);
            let scalar_bits: Vec<u32> = scalar.iter().map(|x| x.to_bits()).collect();
            let simd_bits: Vec<u32> = simd.iter().map(|x| x.to_bits()).collect();
            assert_eq!(scalar_bits, simd_bits, "tiers diverged bitwise");
        }
    }

    fn rand_vec(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    #[test]
    fn elementwise_kernels_are_bitwise_identical_across_tiers() {
        let mut rng = StdRng::seed_from_u64(7);
        // Lengths straddle the 8-lane boundary: pure tail, exact lanes,
        // lanes + tail, and the paper-default population size.
        for n in [1usize, 5, 8, 13, 16, 27, 50, 384] {
            let src = rand_vec(&mut rng, n, -2.0, 2.0);
            let init = rand_vec(&mut rng, n, -70.0, -40.0);
            let thetas = rand_vec(&mut rng, n, 0.0, 40.0);
            let refrac: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..3)).collect();

            assert_tiers_bitwise(&init, |t, d| add_assign(t, d, &src));
            assert_tiers_bitwise(&init, |t, d| scaled_add_assign(t, d, &src, 0.7371));
            assert_tiers_bitwise(&init, |t, d| scale_in_place(t, d, 0.99731));
            assert_tiers_bitwise(&init, |t, d| div_by_theta_gap(t, d, &thetas, 13.0));
            assert_tiers_bitwise(&init, |t, d| masked_scaled_add(t, d, &refrac, &src, 2.1));
            assert_tiers_bitwise(&init, |t, d| masked_add_uniform(t, d, &refrac, -17.5));
        }
    }

    /// Widths straddling the 8-lane and 64-column block boundaries,
    /// including the paper-default population of 50.
    const TICK_WIDTHS: [usize; 10] = [1, 7, 8, 9, 31, 32, 33, 50, 64, 67];

    #[test]
    fn lif_tick_is_bitwise_identical_across_tiers() {
        let p = LifStepParams {
            v_rest: -65.0,
            decay: 0.99,
            v_thresh: -52.0,
            v_reset: -60.0,
            refractory: 5,
        };
        let mut rng = StdRng::seed_from_u64(11);
        for n in TICK_WIDTHS {
            // Potentials spanning rest-to-above-threshold so some lanes
            // spike, plus a mix of refractory counters.
            let v0 = rand_vec(&mut rng, n, -70.0, -45.0);
            let theta0 = rand_vec(&mut rng, n, 0.0, 5.0);
            let refrac0: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..3)).collect();
            let drive = rand_vec(&mut rng, n, -1.0, 4.0);

            let run = |tier: KernelTier| {
                let mut v = v0.clone();
                let mut refrac = refrac0.clone();
                let mut theta = theta0.clone();
                let mut spikes = Vec::new();
                let mut all_spikes = Vec::new();
                // Several ticks, alternating `drive` between `Some` and
                // `None`, so reset/refractory/theta state feeds back.
                for tick in 0..8 {
                    let d = (tick % 2 == 0).then_some(drive.as_slice());
                    lif_tick(
                        tier,
                        &mut v,
                        &mut refrac,
                        &mut theta,
                        d,
                        2.1,
                        p,
                        0.9999,
                        &mut spikes,
                    );
                    assert!(spikes.windows(2).all(|w| w[0] < w[1]), "unsorted spikes");
                    all_spikes.push(spikes.clone());
                }
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                (bits(&v), bits(&theta), refrac, all_spikes)
            };

            let scalar = run(KernelTier::Scalar);
            assert!(
                scalar.3.iter().any(|s| !s.is_empty()) || n < 8,
                "nothing fired (n={n})"
            );
            #[cfg(target_arch = "x86_64")]
            if KernelTier::Avx2.supported() {
                assert_eq!(scalar, run(KernelTier::Avx2), "tiers diverged (n={n})");
            }
        }
    }

    #[test]
    fn lif_tick_matches_inject_step_decay_passes() {
        // The fused pass against the three passes it replaces, run back to
        // back on the scalar tier: masked injection (skipped without
        // drive), the step against the pre-decay theta, then the decay.
        let p = LifStepParams {
            v_rest: -65.0,
            decay: 0.99,
            v_thresh: -52.0,
            v_reset: -60.0,
            refractory: 5,
        };
        let mut rng = StdRng::seed_from_u64(13);
        for n in TICK_WIDTHS {
            let v0 = rand_vec(&mut rng, n, -70.0, -45.0);
            let theta0 = rand_vec(&mut rng, n, 0.0, 5.0);
            let refrac0: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..3)).collect();
            let drive = rand_vec(&mut rng, n, -1.0, 4.0);
            for d in [Some(drive.as_slice()), None] {
                let (mut v, mut refrac, mut theta) = (v0.clone(), refrac0.clone(), theta0.clone());
                let mut spikes = Vec::new();
                lif_tick(
                    KernelTier::Scalar,
                    &mut v,
                    &mut refrac,
                    &mut theta,
                    d,
                    2.1,
                    p,
                    0.999,
                    &mut spikes,
                );

                let (mut v2, mut refrac2, mut theta2) =
                    (v0.clone(), refrac0.clone(), theta0.clone());
                if let Some(d) = d {
                    masked_scaled_add(KernelTier::Scalar, &mut v2, &refrac2, d, 2.1);
                }
                let mut want = Vec::new();
                for i in 0..n {
                    if refrac2[i] > 0 {
                        refrac2[i] -= 1;
                        continue;
                    }
                    v2[i] = p.v_rest + (v2[i] - p.v_rest) * p.decay;
                    if v2[i] >= p.v_thresh + theta2[i] {
                        want.push(i);
                        v2[i] = p.v_reset;
                        refrac2[i] = p.refractory;
                    }
                }
                scale_in_place(KernelTier::Scalar, &mut theta2, 0.999);

                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(spikes, want, "spikes (n={n})");
                assert_eq!(bits(&v), bits(&v2), "potentials (n={n})");
                assert_eq!(bits(&theta), bits(&theta2), "thetas (n={n})");
                assert_eq!(refrac, refrac2, "refractory state (n={n})");
            }
        }
    }

    #[test]
    fn sum_rows_is_bitwise_identical_across_tiers() {
        let mut rng = StdRng::seed_from_u64(17);
        let n_rows = 40;
        for n in TICK_WIDTHS {
            let weights = rand_vec(&mut rng, n_rows * n, 0.0, 0.3);
            // No rows, one row, and many rows in ascending order (the
            // order a tick's input spikes come in), plus the full matrix.
            let many: Vec<usize> = (0..n_rows)
                .filter(|_| rng.gen_range(0u32..3) == 0)
                .collect();
            let all: Vec<usize> = (0..n_rows).collect();
            for rows in [vec![], vec![n_rows - 1], many, all] {
                let run = |tier: KernelTier| {
                    // Poisoned output: the kernel must overwrite every column.
                    let mut out = vec![f32::NAN; n];
                    sum_rows(tier, &weights, n, &rows, &mut out);
                    out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
                };
                // The loop `present` ran before the kernel existed.
                let mut want = vec![0.0f32; n];
                for &r in &rows {
                    add_assign(KernelTier::Scalar, &mut want, &weights[r * n..(r + 1) * n]);
                }
                let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    run(KernelTier::Scalar),
                    want,
                    "scalar (n={n}, rows={rows:?})"
                );
                #[cfg(target_arch = "x86_64")]
                if KernelTier::Avx2.supported() {
                    assert_eq!(run(KernelTier::Avx2), want, "avx2 (n={n}, rows={rows:?})");
                }
            }
        }
    }

    #[test]
    fn column_kernels_match_strided_walks() {
        let mut rng = StdRng::seed_from_u64(23);
        for (n_input, n_cols) in [(4usize, 3usize), (24, 8), (16, 1), (384, 50)] {
            let weights = rand_vec(&mut rng, n_input * n_cols, 0.0, 0.3);
            let run_sums = |tier: KernelTier| {
                let mut out = Vec::new();
                column_sums(tier, &weights, n_cols, &mut out);
                out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
            };
            let scalar_sums = run_sums(KernelTier::Scalar);
            // The strided per-column walk the normalization used to do.
            let strided: Vec<u32> = (0..n_cols)
                .map(|j| {
                    weights[j..]
                        .iter()
                        .step_by(n_cols)
                        .copied()
                        .sum::<f32>()
                        .to_bits()
                })
                .collect();
            assert_eq!(scalar_sums, strided, "row-major sums != strided sums");
            #[cfg(target_arch = "x86_64")]
            if KernelTier::Avx2.supported() {
                assert_eq!(scalar_sums, run_sums(KernelTier::Avx2));
            }

            let scales = rand_vec(&mut rng, n_cols, 0.5, 1.5);
            let run_scale = |tier: KernelTier| {
                let mut w = weights.clone();
                scale_columns(tier, &mut w, n_cols, &scales);
                w.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
            };
            let scalar_scaled = run_scale(KernelTier::Scalar);
            #[cfg(target_arch = "x86_64")]
            if KernelTier::Avx2.supported() {
                assert_eq!(scalar_scaled, run_scale(KernelTier::Avx2));
            }
            let _ = scalar_scaled;
        }
    }

    #[test]
    fn scale_by_one_is_identity() {
        // The vectorized normalization leaves clean columns at scale 1.0;
        // x * 1.0 must reproduce x's bits exactly (incl. signed zero).
        let xs = [0.0f32, -0.0, 1.5, -2.25, f32::MIN_POSITIVE, 1e30];
        for tier in tiers() {
            let mut w = xs.to_vec();
            scale_columns(tier, &mut w, xs.len(), &vec![1.0; xs.len()]);
            let got: Vec<u32> = w.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = xs.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "x * 1.0 must be bitwise identity");
        }
    }

    /// Every tier executable on this host.
    fn tiers() -> Vec<KernelTier> {
        let mut t = vec![KernelTier::Scalar];
        #[cfg(target_arch = "x86_64")]
        if KernelTier::Avx2.supported() {
            t.push(KernelTier::Avx2);
        }
        t
    }
}
