//! Runtime-dispatched SIMD kernels for the SNN hot loops — the only home
//! of `std::arch` in the workspace.
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
//! ## Single- and multi-lane state
//!
//! The LIF loops are elementwise over per-neuron state, so the *same*
//! kernels serve a single presentation's `[n]` vectors (`LifLayer`) and
//! the cross-query batched kernel's lane-major `[lanes × n]` blocks (lane
//! `l`'s neurons are the contiguous slice `[l * n .. (l + 1) * n]`), where
//! one call integrates every lane of every neuron. Dispatching both paths
//! through the same functions makes their per-element bit-identity true by
//! construction. Spike extraction in `lif_tick` emits ascending flat
//! indices, which in the lane-major layout is grouped by lane with
//! ascending neuron order inside each group — exactly the order the scalar
//! singleton walk produces per lane.
//!
//! ## Two kinds of AVX2 kernel
//!
//! * **Compiled** (`scale_in_place`, `masked_scaled_add`,
//!   `masked_add_uniform`, `scaled_add_assign`, `mul_assign`,
//!   `div_by_theta_gap`): the AVX2 body is the `#[inline(always)]` scalar
//!   loop compiled under `#[target_feature(enable = "avx2")]`, which the
//!   compiler vectorizes. Hand-written intrinsics measured no faster.
//! * **Hand-written** (`sum_rows`, `lif_tick`, `add_assign`):
//!   register-resident column accumulators with a masked tail, movemask
//!   spike extraction, and (`add_assign`) whole 8-lane steps on 50-wide
//!   rows, where the compiled loop's 32-wide unrolling leaves an 18-element
//!   remainder to 4-wide and scalar epilogues. Compiled, `add_assign` made
//!   frozen presentations, which call it once per spiking input per lane,
//!   about 5% slower.
//!
//! ## The bit-identity contract
//!
//! Every AVX2 kernel performs **exactly the same IEEE-754 operations per
//! element, in the same order, as its scalar fallback**: multiplies and
//! adds are kept as separate rounding steps (Rust never contracts to FMA),
//! no reduction is re-associated (the per-column weight sums accumulate
//! row by row, in the same order a strided column walk visits them), and
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
//! regardless of CPU support. CI runs the test suites once under this
//! override so the scalar fallback stays equivalence-pinned even on AVX2
//! runners. The variable is read once per process (the tier is cached in a
//! `OnceLock`); changing it at runtime has no effect on networks already
//! constructed or on later [`active_tier`] calls.

use std::sync::OnceLock;

/// The CPU features (and process-level overrides) relevant to kernel
/// dispatch, probed once via [`CpuCapabilities::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCapabilities {
    /// Host supports AVX2 (256-bit lanes), per
    /// `is_x86_feature_detected!("avx2")`. Always `false` off x86-64.
    pub avx2: bool,
    /// The `PATHFINDER_FORCE_SCALAR` environment override is active, which
    /// pins dispatch to [`KernelTier::Scalar`] regardless of `avx2`.
    pub force_scalar: bool,
}

impl CpuCapabilities {
    /// Probes the host CPU and the process environment.
    pub fn detect() -> Self {
        CpuCapabilities {
            avx2: avx2_available(),
            force_scalar: force_scalar_from(
                std::env::var("PATHFINDER_FORCE_SCALAR").ok().as_deref(),
            ),
        }
    }

    /// The kernel tier this capability set dispatches to: the widest
    /// supported SIMD tier, unless `force_scalar` pins it to
    /// [`KernelTier::Scalar`].
    pub fn tier(self) -> KernelTier {
        if self.force_scalar {
            return KernelTier::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            return KernelTier::Avx2;
        }
        KernelTier::Scalar
    }
}

/// Whether the host CPU supports AVX2 (always `false` off x86-64).
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses the `PATHFINDER_FORCE_SCALAR` value: unset, empty, `0`, and
/// `false` (any case) leave dispatch alone; anything else forces scalar.
fn force_scalar_from(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => {
            let v = v.trim();
            !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
        }
    }
}

/// Which kernel implementation a structure dispatches its hot loops to.
///
/// A tier is selected once per structure at construction (from
/// [`active_tier`] by default, or explicitly via
/// `LifLayer::with_tier` / `DiehlCookNetwork::with_kernel_tier`) and used
/// for every operation that structure runs. Tiers are *behaviourally
/// identical* — see the bit-identity contract in the [module
/// docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable scalar loops; always available, and the semantic baseline
    /// the SIMD tiers are pinned against.
    Scalar,
    /// AVX2 kernels: 8-wide f32 lanes. Only constructible on hosts where
    /// `is_x86_feature_detected!("avx2")` holds (checked constructors
    /// refuse it elsewhere).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl KernelTier {
    /// Stable lowercase name for reports and bench documents
    /// (`"scalar"` / `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Whether the host CPU can execute this tier. [`KernelTier::Scalar`]
    /// is always supported; SIMD tiers require their feature probe to
    /// pass. Constructors that accept an explicit tier call this and
    /// reject unsupported requests, which keeps "a tier value exists" from
    /// ever implying "its instructions are safe to run here".
    pub fn supported(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => is_x86_feature_detected!("avx2"),
        }
    }
}

/// The process-wide dispatch decision: [`CpuCapabilities::detect`]
/// evaluated once and cached. The default constructors
/// (`DiehlCookNetwork::new`, `LifLayer::new`) capture this value at
/// construction.
pub fn active_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| CpuCapabilities::detect().tier())
}

// ---------------------------------------------------------------------------
// Dispatch wrappers. Each asserts slice-shape invariants once, then routes
// to the scalar loop or (behind the capability check encoded in the tier's
// construction) the AVX2 kernel. Every tier performs exactly the same
// IEEE-754 operations per element, in the same order, so the tiers are
// bit-identical for every input.
// ---------------------------------------------------------------------------

/// Parameters of one LIF integration tick, hoisted out of
/// [`lif_tick`]'s lane loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LifStepParams {
    /// Resting potential the membrane decays toward.
    pub(crate) v_rest: f32,
    /// Precomputed per-tick decay factor `exp(-1/tc_decay)`.
    pub(crate) decay: f32,
    /// Base firing threshold (the adaptive theta is added per neuron).
    pub(crate) v_thresh: f32,
    /// Potential after a spike.
    pub(crate) v_reset: f32,
    /// Refractory ticks after a spike.
    pub(crate) refractory: u32,
}

/// `dst[i] += src[i]` — per-spike weight-row accumulation into a drive
/// buffer (one call per `(spiking input, lane)` in the batched kernel, so
/// a weight row loaded once is reused across every lane that spiked it).
#[inline]
pub(crate) fn add_assign(tier: KernelTier, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => add_assign_scalar(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an Avx2 tier is only constructed after a successful
        // `is_x86_feature_detected!("avx2")` probe (see KernelTier docs).
        KernelTier::Avx2 => unsafe { avx2::add_assign(dst, src) },
    }
}

/// `xs[i] *= factor` — theta decay with a precomputed per-tick factor,
/// over one neuron vector or the whole lane-major `[lanes × n]` block.
#[inline]
pub(crate) fn scale_in_place(tier: KernelTier, xs: &mut [f32], factor: f32) {
    match tier {
        KernelTier::Scalar => scale_in_place_scalar(xs, factor),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe { avx2::scale_in_place(xs, factor) },
    }
}

/// `v[i] += currents[i] * gain` for every non-refractory element
/// (`refrac[i] == 0`) — bulk synaptic injection. Refractory elements keep
/// their exact input bits.
#[inline]
pub(crate) fn masked_scaled_add(
    tier: KernelTier,
    v: &mut [f32],
    refrac: &[u32],
    currents: &[f32],
    gain: f32,
) {
    assert_eq!(v.len(), refrac.len(), "accel: slice length mismatch");
    assert_eq!(v.len(), currents.len(), "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => masked_scaled_add_scalar(v, refrac, currents, gain),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe { avx2::masked_scaled_add(v, refrac, currents, gain) },
    }
}

/// `v[i] += current` for every non-refractory element — the lateral-
/// inhibition term of a single presentation.
#[inline]
pub(crate) fn masked_add_uniform(tier: KernelTier, v: &mut [f32], refrac: &[u32], current: f32) {
    assert_eq!(v.len(), refrac.len(), "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => masked_add_uniform_scalar(v, refrac, current),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe { avx2::masked_add_uniform(v, refrac, current) },
    }
}

/// One fused LIF tick over a whole population (or every lane of one in
/// the lane-major multi-lane layout), one pass per element:
///
/// 1. **inject** — with `drive = Some(d)`, every non-refractory element
///    gets `v[i] += d[i] * gain` (mul then add, two roundings);
/// 2. **step** — refractory elements count down and skip integration; the
///    rest leak toward rest and fire when they cross `v_thresh + theta[i]`
///    (the threshold *before* this tick's decay), resetting to `v_reset`
///    and entering the refractory period;
/// 3. **decay** — every threshold becomes `theta[i] * theta_decay`.
///
/// Per element these are exactly the IEEE-754 operations of a masked
/// injection pass, a step pass and a decay pass run back to back, so the
/// fused kernel is bitwise the three-pass sequence. A `theta_decay` of
/// exactly `1.0` leaves every threshold's bits unchanged.
///
/// Spiking indices are appended to `spikes_out` (cleared first) in
/// ascending order — the AVX2 path extracts them from the lane movemask
/// lowest-lane-first, so the order matches the scalar walk exactly.
/// Ascending flat order over a lane-major block is grouped by lane, i.e.
/// each lane sees its own spikes in ascending neuron order.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn lif_tick(
    tier: KernelTier,
    v: &mut [f32],
    refrac: &mut [u32],
    theta: &mut [f32],
    drive: Option<&[f32]>,
    gain: f32,
    p: LifStepParams,
    theta_decay: f32,
    spikes_out: &mut Vec<usize>,
) {
    assert_eq!(v.len(), refrac.len(), "accel: slice length mismatch");
    assert_eq!(v.len(), theta.len(), "accel: slice length mismatch");
    if let Some(d) = drive {
        assert_eq!(v.len(), d.len(), "accel: slice length mismatch");
    }
    spikes_out.clear();
    let k = TickConsts {
        gain,
        p,
        theta_decay,
    };
    match (tier, drive) {
        (KernelTier::Scalar, Some(d)) => {
            lif_tick_scalar::<true>(v, refrac, theta, d, k, 0, spikes_out)
        }
        (KernelTier::Scalar, None) => {
            lif_tick_scalar::<false>(v, refrac, theta, &[], k, 0, spikes_out)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        (KernelTier::Avx2, Some(d)) => unsafe {
            avx2::lif_tick::<true>(v, refrac, theta, d, k, spikes_out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        (KernelTier::Avx2, None) => unsafe {
            avx2::lif_tick::<false>(v, refrac, theta, &[], k, spikes_out)
        },
    }
}

/// The scalar arguments of one [`lif_tick`], bundled for its kernels.
#[derive(Clone, Copy)]
struct TickConsts {
    gain: f32,
    p: LifStepParams,
    theta_decay: f32,
}

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
// Scalar kernels — the semantic baseline, and (compiled with AVX2 enabled)
// most of the AVX2 kernels.
// ---------------------------------------------------------------------------

#[inline(always)]
fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[inline(always)]
fn scale_in_place_scalar(xs: &mut [f32], factor: f32) {
    for x in xs {
        *x *= factor;
    }
}

#[inline(always)]
fn masked_scaled_add_scalar(v: &mut [f32], refrac: &[u32], currents: &[f32], gain: f32) {
    for ((v, &r), &c) in v.iter_mut().zip(refrac).zip(currents) {
        if r == 0 {
            *v += c * gain;
        }
    }
}

#[inline(always)]
fn masked_add_uniform_scalar(v: &mut [f32], refrac: &[u32], current: f32) {
    for (v, &r) in v.iter_mut().zip(refrac) {
        if r == 0 {
            *v += current;
        }
    }
}

#[inline(always)]
fn scaled_add_assign_scalar(dst: &mut [f32], src: &[f32], k: f32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += k * s;
    }
}

#[inline(always)]
fn mul_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d *= s;
    }
}

#[inline(always)]
fn div_by_theta_gap_scalar(scores: &mut [f32], thetas: &[f32], gap: f32) {
    for (d, &t) in scores.iter_mut().zip(thetas) {
        *d /= gap + t.max(0.0);
    }
}

/// The scalar fused tick; `INJECT` selects the drive injection (`drive`
/// is unread without it), and `base` offsets pushed spike indices so the
/// AVX2 kernel can reuse it for its tail lanes.
fn lif_tick_scalar<const INJECT: bool>(
    v: &mut [f32],
    refrac: &mut [u32],
    theta: &mut [f32],
    drive: &[f32],
    k: TickConsts,
    base: usize,
    spikes_out: &mut Vec<usize>,
) {
    let p = k.p;
    for i in 0..v.len() {
        let th = theta[i];
        theta[i] = th * k.theta_decay;
        if refrac[i] > 0 {
            refrac[i] -= 1;
            continue;
        }
        let mut x = v[i];
        if INJECT {
            x += drive[i] * k.gain;
        }
        x = p.v_rest + (x - p.v_rest) * p.decay;
        if x >= p.v_thresh + th {
            spikes_out.push(base + i);
            x = p.v_reset;
            refrac[i] = p.refractory;
        }
        v[i] = x;
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels. Most are their scalar loops compiled with AVX2 enabled;
// `add_assign`, `sum_rows` and `lif_tick` process 8 lanes per step by hand
// with the *same* per-element operations as their scalar counterparts
// (separate mul/add roundings, masked lanes untouched bitwise).
// ---------------------------------------------------------------------------

/// # Safety
///
/// Every function here requires a CPU with AVX2. The dispatch wrappers
/// call them only for [`KernelTier::Avx2`], which exists only after the
/// `is_x86_feature_detected!("avx2")` probe passed, and only after
/// checking slice lengths (and, for `sum_rows`, every row index).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::TickConsts;

    const LANES: usize = 8;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, s));
            i += LANES;
        }
        super::add_assign_scalar(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_in_place(xs: &mut [f32], factor: f32) {
        super::scale_in_place_scalar(xs, factor)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn masked_scaled_add(
        v: &mut [f32],
        refrac: &[u32],
        currents: &[f32],
        gain: f32,
    ) {
        super::masked_scaled_add_scalar(v, refrac, currents, gain)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn masked_add_uniform(v: &mut [f32], refrac: &[u32], current: f32) {
        super::masked_add_uniform_scalar(v, refrac, current)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scaled_add_assign(dst: &mut [f32], src: &[f32], k: f32) {
        super::scaled_add_assign_scalar(dst, src, k)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_assign(dst: &mut [f32], src: &[f32]) {
        super::mul_assign_scalar(dst, src)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn div_by_theta_gap(scores: &mut [f32], thetas: &[f32], gap: f32) {
        super::div_by_theta_gap_scalar(scores, thetas, gap)
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
    pub(super) unsafe fn lif_tick<const INJECT: bool>(
        v: &mut [f32],
        refrac: &mut [u32],
        theta: &mut [f32],
        drive: &[f32],
        k: TickConsts,
        spikes_out: &mut Vec<usize>,
    ) {
        let n = v.len();
        let p = k.p;
        let gain = _mm256_set1_ps(k.gain);
        let theta_decay = _mm256_set1_ps(k.theta_decay);
        let v_rest = _mm256_set1_ps(p.v_rest);
        let decay = _mm256_set1_ps(p.decay);
        let v_thresh = _mm256_set1_ps(p.v_thresh);
        let v_reset = _mm256_set1_ps(p.v_reset);
        let refr = _mm256_set1_epi32(p.refractory as i32);
        let one = _mm256_set1_epi32(1);
        let mut i = 0;
        while i + LANES <= n {
            let r = _mm256_loadu_si256(refrac.as_ptr().add(i).cast());
            let active = _mm256_cmpeq_epi32(r, _mm256_setzero_si256());
            let active_ps = _mm256_castsi256_ps(active);

            // Inject on active lanes: v + drive * gain, two roundings.
            let mut vv = _mm256_loadu_ps(v.as_ptr().add(i));
            if INJECT {
                let d = _mm256_loadu_ps(drive.as_ptr().add(i));
                let bumped = _mm256_add_ps(vv, _mm256_mul_ps(d, gain));
                vv = _mm256_blendv_ps(vv, bumped, active_ps);
            }

            // Leak toward rest on active lanes: v_rest + (v - v_rest) * decay.
            let leaked = _mm256_add_ps(v_rest, _mm256_mul_ps(_mm256_sub_ps(vv, v_rest), decay));
            let v_new = _mm256_blendv_ps(vv, leaked, active_ps);

            // Spike where an active lane crosses v_thresh + theta (the
            // pre-decay theta), then decay theta on every lane.
            let th_raw = _mm256_loadu_ps(theta.as_ptr().add(i));
            let th = _mm256_add_ps(v_thresh, th_raw);
            let crossed = _mm256_cmp_ps::<_CMP_GE_OQ>(v_new, th);
            let spike = _mm256_and_ps(crossed, active_ps);
            _mm256_storeu_ps(
                theta.as_mut_ptr().add(i),
                _mm256_mul_ps(th_raw, theta_decay),
            );

            // Spiking lanes reset; refractory lanes count down; active
            // non-spiking lanes keep refrac == 0 (blend keeps `r`).
            let v_fin = _mm256_blendv_ps(v_new, v_reset, spike);
            _mm256_storeu_ps(v.as_mut_ptr().add(i), v_fin);
            let r_dec = _mm256_sub_epi32(r, one);
            let r_keep = _mm256_blendv_epi8(r_dec, r, active);
            let r_fin = _mm256_blendv_epi8(r_keep, refr, _mm256_castps_si256(spike));
            _mm256_storeu_si256(refrac.as_mut_ptr().add(i).cast(), r_fin);

            // Extract spiking lanes lowest-first so indices stay ascending.
            let mut mask = _mm256_movemask_ps(spike) as u32;
            while mask != 0 {
                spikes_out.push(i + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
            i += LANES;
        }
        let tail = if INJECT { &drive[i..] } else { drive };
        super::lif_tick_scalar::<INJECT>(
            &mut v[i..],
            &mut refrac[i..],
            &mut theta[i..],
            tail,
            k,
            i,
            spikes_out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn force_scalar_parsing() {
        assert!(!force_scalar_from(None));
        assert!(!force_scalar_from(Some("")));
        assert!(!force_scalar_from(Some("0")));
        assert!(!force_scalar_from(Some("false")));
        assert!(!force_scalar_from(Some("FALSE")));
        assert!(!force_scalar_from(Some("  ")));
        assert!(force_scalar_from(Some("1")));
        assert!(force_scalar_from(Some("true")));
        assert!(force_scalar_from(Some("yes")));
    }

    #[test]
    fn forced_scalar_overrides_simd() {
        let caps = CpuCapabilities {
            avx2: true,
            force_scalar: true,
        };
        assert_eq!(caps.tier(), KernelTier::Scalar);
        let caps = CpuCapabilities {
            avx2: false,
            force_scalar: false,
        };
        assert_eq!(caps.tier(), KernelTier::Scalar);
    }

    #[test]
    fn scalar_tier_is_always_supported() {
        assert!(KernelTier::Scalar.supported());
        assert_eq!(KernelTier::Scalar.name(), "scalar");
        // The active tier is by construction executable on this host.
        assert!(active_tier().supported());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tier_matches_detection() {
        assert_eq!(
            KernelTier::Avx2.supported(),
            is_x86_feature_detected!("avx2")
        );
        assert_eq!(KernelTier::Avx2.name(), "avx2");
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

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `f` once per tier and asserts the mutated buffer is bitwise
    /// identical. On hosts without AVX2 this degenerates to scalar-vs-
    /// scalar, which is still a valid (if trivial) check.
    fn assert_tiers_bitwise<F: Fn(KernelTier, &mut [f32])>(what: &str, init: &[f32], f: F) {
        let mut scalar = init.to_vec();
        f(KernelTier::Scalar, &mut scalar);
        for tier in tiers() {
            let mut out = init.to_vec();
            f(tier, &mut out);
            assert_eq!(
                bits(&scalar),
                bits(&out),
                "{what}: {tier:?} diverged bitwise (n={})",
                init.len()
            );
        }
    }

    fn rand_vec(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    fn rand_refrac(rng: &mut StdRng, n: usize) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0u32..3)).collect()
    }

    /// Edge values planted in every elementwise input: signed zeros,
    /// subnormals (a documented state of long-run learned weights) and
    /// ±1e30. No kernel turns finite inputs into NaN, whose payload bits
    /// would not be a fair comparison.
    const SPECIALS: [f32; 6] = [0.0, -0.0, 1e-40, -1e-40, 1e30, -1e30];

    /// `xs` with every `every`-th element replaced by the next special.
    fn with_specials(mut xs: Vec<f32>, every: usize) -> Vec<f32> {
        for (k, x) in xs.iter_mut().step_by(every).enumerate() {
            *x = SPECIALS[k % SPECIALS.len()];
        }
        xs
    }

    /// Widths straddling the 8-lane and 64-column block boundaries,
    /// including the paper-default population of 50.
    const TICK_WIDTHS: [usize; 10] = [1, 7, 8, 9, 31, 32, 33, 50, 64, 67];

    /// [`TICK_WIDTHS`] plus more 8-lane tails and lane-major multi-lane
    /// block sizes (`lanes × 50`) and the 384-input weight row.
    fn elementwise_widths() -> impl Iterator<Item = usize> {
        TICK_WIDTHS
            .into_iter()
            .chain([5, 13, 16, 27, 384, 400, 1600])
    }

    #[test]
    fn elementwise_kernels_are_bitwise_identical_across_tiers() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in elementwise_widths() {
            // Specials every 2nd source and every 3rd destination element,
            // so they meet random values and each other.
            let src = with_specials(rand_vec(&mut rng, n, -2.0, 2.0), 2);
            let init = with_specials(rand_vec(&mut rng, n, -70.0, -40.0), 3);
            let thetas = with_specials(rand_vec(&mut rng, n, 0.0, 40.0), 4);
            let refrac = rand_refrac(&mut rng, n);

            assert_tiers_bitwise("add_assign", &init, |t, d| add_assign(t, d, &src));
            assert_tiers_bitwise("scaled_add_assign", &init, |t, d| {
                scaled_add_assign(t, d, &src, 0.7371)
            });
            assert_tiers_bitwise("scale_in_place", &init, |t, d| {
                scale_in_place(t, d, 0.99731)
            });
            assert_tiers_bitwise("div_by_theta_gap", &init, |t, d| {
                div_by_theta_gap(t, d, &thetas, 13.0)
            });
            assert_tiers_bitwise("masked_scaled_add", &init, |t, d| {
                masked_scaled_add(t, d, &refrac, &src, 2.1)
            });
            assert_tiers_bitwise("masked_add_uniform", &init, |t, d| {
                masked_add_uniform(t, d, &refrac, -17.5)
            });

            // `mul_assign` runs row by row through `scale_columns`: a
            // 3-row matrix `n` columns wide.
            let weights = with_specials(rand_vec(&mut rng, 3 * n, 0.0, 0.3), 5);
            let scales = with_specials(rand_vec(&mut rng, n, 0.5, 1.5), 3);
            assert_tiers_bitwise("scale_columns", &weights, |t, w| {
                scale_columns(t, w, n, &scales)
            });
        }
    }

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
        // Single-population widths and lane-major multi-lane block sizes.
        let widths = TICK_WIDTHS.into_iter().chain([24, 50 * 8, 50 * 32]);
        for (n, theta_decay) in widths.zip([0.999, 0.9999].into_iter().cycle()) {
            // Potentials spanning rest-to-above-threshold so some lanes
            // spike, plus a mix of refractory counters.
            let v0 = rand_vec(&mut rng, n, -70.0, -45.0);
            let theta0 = rand_vec(&mut rng, n, 0.0, 5.0);
            let refrac0 = rand_refrac(&mut rng, n);
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
                        theta_decay,
                        &mut spikes,
                    );
                    // Ascending flat order (grouped by lane in the
                    // lane-major layout).
                    assert!(spikes.windows(2).all(|w| w[0] < w[1]), "unsorted spikes");
                    all_spikes.push(spikes.clone());
                }
                (bits(&v), bits(&theta), refrac, all_spikes)
            };

            let scalar = run(KernelTier::Scalar);
            assert!(
                scalar.3.iter().any(|s| !s.is_empty()) || n < 8,
                "nothing fired (n={n})"
            );
            for tier in tiers() {
                assert_eq!(scalar, run(tier), "{tier:?} diverged (n={n})");
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
}
