//! # pathfinder-accel
//!
//! Shared runtime SIMD dispatch for the workspace's hot loops, plus the
//! integer scan kernels the flat replay engine is built on and the
//! elementwise f32 kernel family the SNN's single- and multi-lane
//! presentation paths dispatch through.
//!
//! The dispatch machinery ([`CpuCapabilities`], [`KernelTier`],
//! [`active_tier`], and the `PATHFINDER_FORCE_SCALAR` override) started
//! life in `snn::accel` (PR 6) gating the f32 presentation kernels; this
//! crate lifts it out so the `sim` crate's integer scans — and any future
//! accelerated subsystem — share one capability probe, one tier enum, and
//! one override, instead of each crate growing its own. `pathfinder-snn`
//! re-exports these types unchanged, so existing `snn::accel` users are
//! unaffected.
//!
//! ## The f32 kernel family (single- and multi-lane LIF state)
//!
//! The SNN presentation loops are elementwise over per-neuron state:
//! membrane integration gated on refractory counters, threshold/reset
//! with a per-neuron adaptive theta, exponential theta decay, and
//! synaptic-drive accumulation. Because the operations are elementwise,
//! the *same* kernels serve two layouts:
//!
//! * a single presentation's `[n]` state vectors (`LifLayer`), and
//! * the cross-query batched kernel's lane-major `[lanes × n]` state
//!   (lane `l`'s neurons are the contiguous slice `[l * n .. (l + 1) * n]`),
//!   where one call integrates every lane of every neuron.
//!
//! The family: [`add_assign`], [`scale_in_place`], [`masked_scaled_add`],
//! [`masked_add_uniform`], and [`lif_tick`] with its [`LifStepParams`] —
//! one fused pass of drive injection, LIF step and theta decay.
//! Spike extraction in [`lif_tick`] emits ascending flat indices, which in
//! the lane-major layout is grouped by lane with ascending neuron order
//! inside each group — exactly the order the scalar singleton walk
//! produces per lane.
//!
//! ## The integer kernel family
//!
//! The timed replay's hot loops are contiguous `u64` walks: the packed
//! tag+valid lookup scan in `Cache::find`, the LRU victim min-scan in
//! `Cache::fill_victim`, and the threshold/min scans in `MshrTracker` and
//! `DramModel`. This crate provides them as tier-dispatched kernels:
//!
//! * [`find_eq_u64`] — position of the first element equal to a needle
//!   (`_mm256_cmpeq_epi64` + movemask on the AVX2 tier).
//! * [`min_u64`] — minimum value (lane-wise `u64` min reduction).
//! * [`min_index_u64`] — index of the **first** minimum, matching a
//!   scalar strict-`<` walk.
//! * [`min2_index_u64`] — first-minimum index, the minimum, and the
//!   runner-up minimum in one call (the MSHR `pop_earliest` shape).
//!
//! ## The bit-identity contract
//!
//! Unlike the SNN's f32 kernels — which keep bit-identity only by
//! carefully avoiding FMA contraction and re-associated reductions —
//! integer comparisons and minima are exact: any evaluation order yields
//! the same minimum, and "first index equal to the minimum" is exactly
//! the index a strict-`<` scalar scan keeps. The AVX2 tier is therefore
//! bit-identical to the scalar tier **by construction**, for every input.
//! The `sim::reference` engine/cache equivalence proptests pin both tiers
//! with no tolerance machinery, and CI re-runs them under
//! `PATHFINDER_FORCE_SCALAR=1`.
//!
//! AVX2 has no unsigned 64-bit compare, so the SIMD min kernels operate
//! on sign-bias-flipped values (`x ^ (1 << 63)`), under which signed
//! `_mm256_cmpgt_epi64` ordering coincides with unsigned `u64` ordering
//! across the whole domain — including values at and above `2^63`.
//!
//! ## Forcing the scalar tier
//!
//! Setting `PATHFINDER_FORCE_SCALAR` to anything other than `0`, `false`,
//! or the empty string makes [`active_tier`] return [`KernelTier::Scalar`]
//! regardless of CPU support. The variable is read once per process (the
//! tier is cached in a `OnceLock`); changing it at runtime has no effect
//! on structures already constructed or on later [`active_tier`] calls.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

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
/// [`active_tier`] by default, or explicitly via the `with_tier` /
/// `with_kernel_tier` constructors on `LifLayer`, `DiehlCookNetwork`,
/// `Cache`, and `Simulator`) and used for every operation that structure
/// runs. Tiers are *behaviourally identical* — see the bit-identity
/// contract in the [crate docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable scalar loops; always available, and the semantic baseline
    /// the SIMD tiers are pinned against.
    Scalar,
    /// AVX2 kernels: 8-wide f32 lanes for the SNN arithmetic and 4-wide
    /// `u64` lanes for the replay scans. Only constructible on hosts where
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
/// evaluated once and cached. Default constructors across the workspace
/// (`DiehlCookNetwork::new`, `LifLayer::new`, `Cache::new`,
/// `Simulator::new`, ...) capture this value at construction.
pub fn active_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| CpuCapabilities::detect().tier())
}

// ---------------------------------------------------------------------------
// Integer scan kernels. Each dispatch wrapper routes to the scalar loop or
// (behind the capability check encoded in the tier's construction) the AVX2
// kernel; results are bit-identical by construction.
// ---------------------------------------------------------------------------

/// Position of the first element equal to `needle` — the packed tag+valid
/// lookup scan of `Cache::find`.
#[inline]
pub fn find_eq_u64(tier: KernelTier, xs: &[u64], needle: u64) -> Option<usize> {
    match tier {
        KernelTier::Scalar => find_eq_u64_scalar(xs, needle),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an Avx2 tier is only constructed after a successful
        // `is_x86_feature_detected!("avx2")` probe (see KernelTier docs).
        KernelTier::Avx2 => unsafe { avx2::find_eq_u64(xs, needle) },
    }
}

/// Minimum value of a slice (`u64::MAX` when empty) — the cached-earliest
/// recompute in `MshrTracker` and `DramModel` threshold drains.
#[inline]
pub fn min_u64(tier: KernelTier, xs: &[u64]) -> u64 {
    match tier {
        KernelTier::Scalar => min_u64_scalar(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `find_eq_u64`.
        KernelTier::Avx2 => unsafe { avx2::min_u64(xs) },
    }
}

/// Index of the **first** minimum — the LRU victim scan of
/// `Cache::fill_victim`. Identical to a scalar strict-`<` walk: the AVX2
/// tier reduces the minimum value lane-wise, then takes the first index
/// equal to it, which is the same element the strict-`<` walk keeps.
///
/// # Panics
///
/// Panics if `xs` is empty (a victim scan over zero ways is a caller bug).
#[inline]
pub fn min_index_u64(tier: KernelTier, xs: &[u64]) -> usize {
    assert!(!xs.is_empty(), "accel: min_index_u64 over an empty slice");
    match tier {
        KernelTier::Scalar => min_index_u64_scalar(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `find_eq_u64`.
        KernelTier::Avx2 => unsafe {
            let m = avx2::min_u64(xs);
            avx2::find_eq_u64(xs, m).expect("minimum value must be present")
        },
    }
}

/// One-call min-and-runner-up: returns `(first_min_index, min, runner_up)`
/// where `runner_up` is the second-smallest element counting duplicates
/// (`u64::MAX` for a one-element slice) — so after removing the element at
/// `first_min_index`, the minimum of the remainder is exactly `runner_up`.
/// This is the `MshrTracker::pop_earliest` shape: one scan replaces the
/// old find-the-min pass plus rebuild-the-minimum pass.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[inline]
pub fn min2_index_u64(tier: KernelTier, xs: &[u64]) -> (usize, u64, u64) {
    assert!(!xs.is_empty(), "accel: min2_index_u64 over an empty slice");
    match tier {
        KernelTier::Scalar => min2_index_u64_scalar(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `find_eq_u64`.
        KernelTier::Avx2 => unsafe { avx2::min2_index_u64(xs) },
    }
}

// ---------------------------------------------------------------------------
// The f32 kernel family. Elementwise over per-neuron (or per-neuron-per-
// lane) LIF state; every AVX2 kernel performs exactly the same IEEE-754
// operations per element, in the same order, as its scalar fallback (no
// FMA contraction, no re-associated reductions, masked lanes keep their
// input bits), so the tiers are bit-identical for every input.
// ---------------------------------------------------------------------------

/// Parameters of one LIF integration tick, hoisted out of
/// [`lif_tick`]'s lane loop.
#[derive(Debug, Clone, Copy)]
pub struct LifStepParams {
    /// Resting potential the membrane decays toward.
    pub v_rest: f32,
    /// Precomputed per-tick decay factor `exp(-1/tc_decay)`.
    pub decay: f32,
    /// Base firing threshold (the adaptive theta is added per neuron).
    pub v_thresh: f32,
    /// Potential after a spike.
    pub v_reset: f32,
    /// Refractory ticks after a spike.
    pub refractory: u32,
}

/// `dst[i] += src[i]` — per-spike weight-row accumulation into a drive
/// buffer (one call per `(spiking input, lane)` in the batched kernel, so
/// a weight row loaded once is reused across every lane that spiked it).
#[inline]
pub fn add_assign(tier: KernelTier, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => add_assign_scalar(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an Avx2 tier is only constructed after a successful
        // `is_x86_feature_detected!("avx2")` probe (see KernelTier docs).
        KernelTier::Avx2 => unsafe { avx2_f32::add_assign(dst, src) },
    }
}

/// `xs[i] *= factor` — theta decay with a precomputed per-tick factor,
/// over one neuron vector or the whole lane-major `[lanes × n]` block.
#[inline]
pub fn scale_in_place(tier: KernelTier, xs: &mut [f32], factor: f32) {
    match tier {
        KernelTier::Scalar => scale_in_place_scalar(xs, factor),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe { avx2_f32::scale_in_place(xs, factor) },
    }
}

/// `v[i] += currents[i] * gain` for every non-refractory element
/// (`refrac[i] == 0`) — bulk synaptic injection. Refractory elements keep
/// their exact input bits.
#[inline]
pub fn masked_scaled_add(
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
        KernelTier::Avx2 => unsafe { avx2_f32::masked_scaled_add(v, refrac, currents, gain) },
    }
}

/// `v[i] += current` for every non-refractory element — the lateral-
/// inhibition term of a single presentation.
#[inline]
pub fn masked_add_uniform(tier: KernelTier, v: &mut [f32], refrac: &[u32], current: f32) {
    assert_eq!(v.len(), refrac.len(), "accel: slice length mismatch");
    match tier {
        KernelTier::Scalar => masked_add_uniform_scalar(v, refrac, current),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        KernelTier::Avx2 => unsafe { avx2_f32::masked_add_uniform(v, refrac, current) },
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
pub fn lif_tick(
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
            avx2_f32::lif_tick::<true>(v, refrac, theta, d, k, spikes_out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `add_assign`.
        (KernelTier::Avx2, None) => unsafe {
            avx2_f32::lif_tick::<false>(v, refrac, theta, &[], k, spikes_out)
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

fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

fn scale_in_place_scalar(xs: &mut [f32], factor: f32) {
    for x in xs {
        *x *= factor;
    }
}

fn masked_scaled_add_scalar(v: &mut [f32], refrac: &[u32], currents: &[f32], gain: f32) {
    for ((v, &r), &c) in v.iter_mut().zip(refrac).zip(currents) {
        if r == 0 {
            *v += c * gain;
        }
    }
}

fn masked_add_uniform_scalar(v: &mut [f32], refrac: &[u32], current: f32) {
    for (v, &r) in v.iter_mut().zip(refrac) {
        if r == 0 {
            *v += current;
        }
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
// Scalar kernels — the semantic baseline. The AVX2 kernels reuse these for
// their non-multiple-of-4 tails.
// ---------------------------------------------------------------------------

fn find_eq_u64_scalar(xs: &[u64], needle: u64) -> Option<usize> {
    xs.iter().position(|&x| x == needle)
}

fn min_u64_scalar(xs: &[u64]) -> u64 {
    xs.iter().copied().fold(u64::MAX, u64::min)
}

fn min_index_u64_scalar(xs: &[u64]) -> usize {
    let mut min_idx = 0;
    let mut min = u64::MAX;
    for (i, &x) in xs.iter().enumerate() {
        if x < min {
            min = x;
            min_idx = i;
        }
    }
    min_idx
}

/// The single-pass min-and-runner-up scan: strictly-smaller elements
/// displace the minimum (so the first minimum's index is kept) and the
/// displaced value — or any later duplicate of the minimum — becomes the
/// runner-up candidate.
fn min2_index_u64_scalar(xs: &[u64]) -> (usize, u64, u64) {
    let mut min_idx = 0;
    let mut min = xs[0];
    let mut runner = u64::MAX;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x < min {
            runner = min;
            min = x;
            min_idx = i;
        } else if x < runner {
            runner = x;
        }
    }
    (min_idx, min, runner)
}

// ---------------------------------------------------------------------------
// AVX2 kernels. 4 u64 lanes per 256-bit vector. Unsigned order is obtained
// from the signed `_mm256_cmpgt_epi64` by flipping the sign bit of both
// operands (`x ^ (1 << 63)`), which is an order-isomorphism from u64 to
// i64 — exact for every input, so the tiers stay bit-identical.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    const LANES: usize = 4;

    /// The sign-bias vector: `x ^ SIGN` maps unsigned order onto signed.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sign_bias() -> __m256i {
        _mm256_set1_epi64x(i64::MIN)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn find_eq_u64(xs: &[u64], needle: u64) -> Option<usize> {
        let n = xs.len();
        let nv = _mm256_set1_epi64x(needle as i64);
        let mut i = 0;
        while i + LANES <= n {
            let x = _mm256_loadu_si256(xs.as_ptr().add(i).cast());
            let eq = _mm256_cmpeq_epi64(x, nv);
            let mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
            if mask != 0 {
                // Lowest set lane first, so the first match wins even when
                // several lanes of this vector match.
                return Some(i + mask.trailing_zeros() as usize);
            }
            i += LANES;
        }
        super::find_eq_u64_scalar(&xs[i..], needle).map(|j| i + j)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn min_u64(xs: &[u64]) -> u64 {
        let n = xs.len();
        let mut i = 0;
        let mut acc = u64::MAX;
        if n >= LANES {
            let bias = sign_bias();
            // u64::MAX biased is i64::MAX: the identity of the biased min.
            let mut vmin = _mm256_set1_epi64x(i64::MAX);
            while i + LANES <= n {
                let x = _mm256_loadu_si256(xs.as_ptr().add(i).cast());
                let xb = _mm256_xor_si256(x, bias);
                let gt = _mm256_cmpgt_epi64(vmin, xb);
                vmin = _mm256_blendv_epi8(vmin, xb, gt);
                i += LANES;
            }
            let mut lanes = [0u64; LANES];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), vmin);
            for lane in lanes {
                // Un-bias while folding; u64 min is order-insensitive.
                acc = acc.min(lane ^ (1u64 << 63));
            }
        }
        acc.min(super::min_u64_scalar(&xs[i..]))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn min2_index_u64(xs: &[u64]) -> (usize, u64, u64) {
        let n = xs.len();
        let mut i = 0;
        // Two-smallest fold over candidate values; the multiset of
        // candidates always contains the two smallest elements of `xs`.
        let mut min = u64::MAX;
        let mut runner = u64::MAX;
        let mut fold = |v: u64| {
            if v < min {
                runner = min;
                min = v;
            } else if v < runner {
                runner = v;
            }
        };
        if n >= LANES {
            let bias = sign_bias();
            let mut vmin = _mm256_set1_epi64x(i64::MAX);
            let mut vrun = _mm256_set1_epi64x(i64::MAX);
            while i + LANES <= n {
                let x = _mm256_loadu_si256(xs.as_ptr().add(i).cast());
                let xb = _mm256_xor_si256(x, bias);
                // Where the new value beats the stripe minimum, the old
                // minimum is displaced into the runner-up race; elsewhere
                // the new value itself races for runner-up.
                let gt = _mm256_cmpgt_epi64(vmin, xb);
                let cand = _mm256_blendv_epi8(xb, vmin, gt);
                vmin = _mm256_blendv_epi8(vmin, xb, gt);
                let gt2 = _mm256_cmpgt_epi64(vrun, cand);
                vrun = _mm256_blendv_epi8(vrun, cand, gt2);
                i += LANES;
            }
            // Each lane holds its stripe's min and runner-up, so the two
            // global smallest are among these 8 values (plus the tail).
            let mut lanes = [0u64; 2 * LANES];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), vmin);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(LANES).cast(), vrun);
            for lane in lanes {
                fold(lane ^ (1u64 << 63));
            }
        }
        for &x in &xs[i..] {
            fold(x);
        }
        // First index equal to the minimum == the index a strict-`<` scan
        // keeps (later duplicates never displace it).
        let idx = find_eq_u64(xs, min).expect("minimum value must be present");
        (idx, min, runner)
    }
}

// ---------------------------------------------------------------------------
// AVX2 f32 kernels. Each processes 8 lanes per iteration with the *same*
// per-element operations as its scalar counterpart (separate mul/add
// roundings, masked lanes untouched bitwise) and hands the remainder to
// the scalar loop.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2_f32 {
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
        let n = xs.len();
        let f = _mm256_set1_ps(factor);
        let mut i = 0;
        while i + LANES <= n {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(xs.as_mut_ptr().add(i), _mm256_mul_ps(x, f));
            i += LANES;
        }
        super::scale_in_place_scalar(&mut xs[i..], factor);
    }

    /// All-ones lanes where `refrac == 0` (the non-refractory mask).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn active_mask(refrac: &[u32], i: usize) -> __m256i {
        let r = _mm256_loadu_si256(refrac.as_ptr().add(i).cast());
        _mm256_cmpeq_epi32(r, _mm256_setzero_si256())
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn masked_scaled_add(
        v: &mut [f32],
        refrac: &[u32],
        currents: &[f32],
        gain: f32,
    ) {
        let n = v.len();
        let g = _mm256_set1_ps(gain);
        let mut i = 0;
        while i + LANES <= n {
            let active = _mm256_castsi256_ps(active_mask(refrac, i));
            let vv = _mm256_loadu_ps(v.as_ptr().add(i));
            let c = _mm256_loadu_ps(currents.as_ptr().add(i));
            // mul then add as two roundings — no FMA, matching scalar.
            let bumped = _mm256_add_ps(vv, _mm256_mul_ps(c, g));
            // Refractory lanes keep their exact input bits.
            _mm256_storeu_ps(v.as_mut_ptr().add(i), _mm256_blendv_ps(vv, bumped, active));
            i += LANES;
        }
        super::masked_scaled_add_scalar(&mut v[i..], &refrac[i..], &currents[i..], gain);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn masked_add_uniform(v: &mut [f32], refrac: &[u32], current: f32) {
        let n = v.len();
        let c = _mm256_set1_ps(current);
        let mut i = 0;
        while i + LANES <= n {
            let active = _mm256_castsi256_ps(active_mask(refrac, i));
            let vv = _mm256_loadu_ps(v.as_ptr().add(i));
            let bumped = _mm256_add_ps(vv, c);
            _mm256_storeu_ps(v.as_mut_ptr().add(i), _mm256_blendv_ps(vv, bumped, active));
            i += LANES;
        }
        super::masked_add_uniform_scalar(&mut v[i..], &refrac[i..], current);
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

    /// Splitmix-ish deterministic u64 stream.
    fn rand_vec(seed: u64, n: usize, mask: u64) -> Vec<u64> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 7) & mask
            })
            .collect()
    }

    /// Lengths straddling the 4-lane boundary: pure tail, exact lanes,
    /// lanes + tail, and way-count-sized cases (12/16 are the Table 3 L1D
    /// and LLC associativities).
    const LENGTHS: [usize; 9] = [1, 2, 3, 4, 5, 8, 12, 13, 16];

    #[test]
    fn find_eq_matches_scalar_across_tiers() {
        for (seed, n) in LENGTHS.iter().enumerate().map(|(s, &n)| (s as u64, n)) {
            // A small mask forces duplicates, so "first match" is tested.
            let xs = rand_vec(seed, n, 0xF);
            for needle in 0..=0x10u64 {
                let want = find_eq_u64_scalar(&xs, needle);
                for tier in tiers() {
                    assert_eq!(
                        find_eq_u64(tier, &xs, needle),
                        want,
                        "tier {tier:?}, n={n}, needle={needle}, xs={xs:?}"
                    );
                }
            }
            assert_eq!(find_eq_u64(active_tier(), &[], 7), None);
        }
    }

    #[test]
    fn min_kernels_match_scalar_across_tiers() {
        for (seed, n) in LENGTHS.iter().enumerate().map(|(s, &n)| (s as u64, n)) {
            // Full-range values (including above 2^63) exercise the
            // sign-bias trick; a masked copy forces duplicate minima.
            for xs in [rand_vec(seed, n, u64::MAX), rand_vec(seed, n, 0x7)] {
                let want_min = min_u64_scalar(&xs);
                let want_idx = min_index_u64_scalar(&xs);
                let want2 = min2_index_u64_scalar(&xs);
                for tier in tiers() {
                    assert_eq!(min_u64(tier, &xs), want_min, "tier {tier:?}, xs={xs:?}");
                    assert_eq!(
                        min_index_u64(tier, &xs),
                        want_idx,
                        "tier {tier:?}, xs={xs:?}"
                    );
                    assert_eq!(min2_index_u64(tier, &xs), want2, "tier {tier:?}, xs={xs:?}");
                }
            }
        }
        for tier in tiers() {
            assert_eq!(min_u64(tier, &[]), u64::MAX);
        }
    }

    #[test]
    fn min2_runner_up_is_min_of_remainder() {
        // The pop_earliest contract: after swap-removing the element at the
        // returned index, the remainder's minimum equals the runner-up.
        for seed in 0..32u64 {
            for n in LENGTHS {
                let xs = rand_vec(seed, n, 0x3F);
                for tier in tiers() {
                    let (idx, min, runner) = min2_index_u64(tier, &xs);
                    assert_eq!(xs[idx], min);
                    assert_eq!(xs.iter().position(|&x| x == min), Some(idx), "first min");
                    let mut rest = xs.clone();
                    rest.swap_remove(idx);
                    assert_eq!(min_u64_scalar(&rest), runner, "xs={xs:?}");
                }
            }
        }
    }

    /// Deterministic f32 stream in `[lo, hi)` off the LCG above.
    fn rand_f32(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        rand_vec(seed, n, u64::MAX)
            .into_iter()
            .map(|x| lo + (hi - lo) * ((x >> 11) as f32 / (1u64 << 53) as f32))
            .collect()
    }

    /// Refractory counters in 0..3 off the LCG.
    fn rand_refrac(seed: u64, n: usize) -> Vec<u32> {
        rand_vec(seed, n, 0x3).iter().map(|&x| x as u32).collect()
    }

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

    #[test]
    fn f32_elementwise_kernels_are_bitwise_identical_across_tiers() {
        // Lengths straddle the 8-lane boundary: pure tail, exact lanes,
        // lanes + tail, and lane-major multi-lane block sizes
        // (n_exc × lanes for the paper-default 50-neuron population).
        for (seed, n) in [1usize, 5, 8, 13, 16, 27, 50, 400, 1600]
            .into_iter()
            .enumerate()
            .map(|(s, n)| (s as u64, n))
        {
            let src = rand_f32(seed, n, -2.0, 2.0);
            let init = rand_f32(seed ^ 0x55, n, -70.0, -40.0);
            let refrac = rand_refrac(seed ^ 0xAA, n);

            assert_tiers_bitwise(&init, |t, d| add_assign(t, d, &src));
            assert_tiers_bitwise(&init, |t, d| scale_in_place(t, d, 0.99731));
            assert_tiers_bitwise(&init, |t, d| masked_scaled_add(t, d, &refrac, &src, 2.1));
            assert_tiers_bitwise(&init, |t, d| masked_add_uniform(t, d, &refrac, -17.5));
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
        // Single-population and lane-major multi-lane block sizes.
        for n in [1usize, 7, 8, 9, 24, 50, 50 * 8, 50 * 32] {
            let seed = n as u64;
            let v0 = rand_f32(seed, n, -70.0, -45.0);
            let theta0 = rand_f32(seed ^ 0x33, n, 0.0, 5.0);
            let refrac0 = rand_refrac(seed ^ 0x66, n);
            let drive = rand_f32(seed ^ 0x99, n, -1.0, 3.0);

            let run = |tier: KernelTier| {
                let mut v = v0.clone();
                let mut refrac = refrac0.clone();
                let mut theta = theta0.clone();
                let mut spikes = Vec::new();
                let mut all_spikes = Vec::new();
                // Several ticks, with and without drive, so reset,
                // refractory and theta state feed back.
                for tick in 0..6 {
                    let d = (tick % 2 == 0).then_some(drive.as_slice());
                    lif_tick(
                        tier,
                        &mut v,
                        &mut refrac,
                        &mut theta,
                        d,
                        2.1,
                        p,
                        0.999,
                        &mut spikes,
                    );
                    all_spikes.push(spikes.clone());
                }
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                (bits(&v), bits(&theta), refrac, all_spikes)
            };

            let scalar = run(KernelTier::Scalar);
            // Spikes come out in ascending flat order (grouped by
            // lane in the lane-major layout).
            for tick in &scalar.3 {
                assert!(tick.windows(2).all(|w| w[0] < w[1]), "unsorted spikes");
            }
            #[cfg(target_arch = "x86_64")]
            if KernelTier::Avx2.supported() {
                assert_eq!(scalar, run(KernelTier::Avx2), "tiers diverged (n={n})");
            }
        }
    }

    #[test]
    fn boundary_values_survive_the_sign_bias() {
        // Values straddling 2^63 would order wrongly under a plain signed
        // compare; the bias must keep true unsigned order.
        let xs = [
            u64::MAX,
            1u64 << 63,
            (1u64 << 63) - 1,
            0,
            u64::MAX - 1,
            1,
            1u64 << 62,
            (1u64 << 63) + 1,
        ];
        for tier in tiers() {
            assert_eq!(min_u64(tier, &xs), 0);
            assert_eq!(min_index_u64(tier, &xs), 3);
            assert_eq!(min2_index_u64(tier, &xs), (3, 0, 1));
        }
        // All-duplicate slice: index 0, runner-up equals the minimum.
        let dup = [5u64; 7];
        for tier in tiers() {
            assert_eq!(min2_index_u64(tier, &dup), (0, 5, 5));
        }
    }
}
