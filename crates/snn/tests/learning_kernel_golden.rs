//! Bit-for-bit pin of the event-driven learning kernel.
//!
//! `tests/kernel_equivalence.rs` checks the event kernel against the
//! reference oracle on spike structure exactly but on learned weights only
//! to a relative tolerance, because the two kernels re-associate membrane
//! arithmetic. This suite closes that gap for rewrites of the event kernel
//! itself: it runs a few thousand mixed learning / non-learning
//! presentations on the paper-sized 381×50 network, over several seeds and
//! delta patterns, and folds into one hash
//!
//! * every [`RunOutcome`] field (the analog runner-up potential as raw
//!   bits),
//! * the final weight matrix (raw bits), and
//! * the outcomes of post-training [`DiehlCookNetwork::present_frozen`]
//!   queries, which read the learned adaptive thresholds.
//!
//! Any change to the bits a learning presentation produces — an operation
//! reordered, a threshold moved, a trace skipped that was live — changes
//! the hash. The kernel tiers are bit-identical, so the constant holds
//! under `PATHFINDER_FORCE_SCALAR=1` as well as on the native tier.
//!
//! `GOLDEN` may only be re-captured by a change that *means* to alter the
//! learned bits (and re-captures the `repro` output goldens with it).

use pathfinder_snn::{DiehlCookNetwork, RunOutcome, SnnConfig};

/// Hash of the whole run; see the module docs for what it covers.
const GOLDEN: u64 = 0xe2b3_c4b0_9c38_be52;

/// Pixel-matrix geometry of the paper-sized network: `H = 3` rows of
/// `D = 2 × 63 + 1` columns (the prefetcher's default encoder).
const ROWS: usize = 3;
const ROW_WIDTH: usize = 127;
const N_INPUT: usize = ROWS * ROW_WIDTH;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn outcome(&mut self, o: &RunOutcome) {
        self.word(o.spike_counts.len() as u64);
        for &c in &o.spike_counts {
            self.word(u64::from(c));
        }
        self.word(o.winner.map_or(u64::MAX, |w| w as u64));
        self.word(o.fired.len() as u64);
        for &j in &o.fired {
            self.word(j as u64);
        }
        self.word(o.first_fire_tick.map_or(u64::MAX, u64::from));
        self.word(o.first_tick_argmax as u64);
        self.word(u64::from(o.runner_up_potential.to_bits()));
    }
}

/// Deterministic xorshift64 so the delta stream does not depend on the
/// `rand` implementation.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Rates for a delta history, painted like the prefetcher's enlarged
/// encoder: each row's delta column at intensity 1.0, its two neighbours
/// at 0.5.
fn encode(deltas: [i16; ROWS]) -> Vec<f32> {
    let mut rates = vec![0.0f32; N_INPUT];
    let center = (ROW_WIDTH / 2) as i16;
    for (row, &d) in deltas.iter().enumerate() {
        let c = (center + d).clamp(0, ROW_WIDTH as i16 - 1) as usize;
        let base = row * ROW_WIDTH;
        for n in [c.wrapping_sub(1), c + 1] {
            if n < ROW_WIDTH && rates[base + n] < 0.5 {
                rates[base + n] = 0.5;
            }
        }
        rates[base + c] = 1.0;
    }
    rates
}

/// The `k`-th presentation's input for one seed: mostly a small pool of
/// recurring strides (so neurons are recruited and STDP keeps reshaping
/// the same columns), some random deltas, and an occasional empty matrix.
fn pattern(k: usize, pool: &[[i16; ROWS]], state: &mut u64) -> Vec<f32> {
    match next(state) % 16 {
        0 => vec![0.0; N_INPUT],
        1..=3 => {
            let mut d = [0i16; ROWS];
            for x in &mut d {
                *x = (next(state) % 127) as i16 - 63;
            }
            encode(d)
        }
        _ => encode(pool[(k / 3 + next(state) as usize % 2) % pool.len()]),
    }
}

/// Runs one seed's presentation mix and folds everything into `h`.
fn run_seed(seed: u64, presentations: usize, h: &mut Fnv) {
    let cfg = SnnConfig {
        n_input: N_INPUT,
        n_exc: 50,
        ..SnnConfig::default()
    };
    let mut net = DiehlCookNetwork::new(cfg, seed).unwrap();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let pool = [
        [1, 1, 1],
        [2, 2, 2],
        [1, 2, 1],
        [-1, -1, -1],
        [3, -2, 3],
        [seed as i16 % 5 + 4, 5, 6],
    ];
    // Duty-cycled learning (the Figure 8 schedule shape, with a
    // seed-dependent phase) plus some isolated learning presentations
    // inside the frozen phase.
    let period = 40 + (seed as usize % 3) * 20;
    let on = period / 2 + seed as usize % 7;
    for k in 0..presentations {
        let rates = pattern(k, &pool, &mut state);
        let learn = k % period < on || next(&mut state).is_multiple_of(11);
        let out = net.present(&rates, learn);
        h.word(u64::from(learn));
        h.outcome(&out);
    }
    h.word(net.weight_version());
    for &w in net.weights() {
        h.word(u64::from(w.to_bits()));
    }
    let queries: Vec<Vec<f32>> = pool
        .iter()
        .map(|&d| encode(d))
        .chain((0..4).map(|k| pattern(k, &pool, &mut state)))
        .collect();
    for q in &queries {
        h.outcome(&net.present_frozen(q));
    }
}

#[test]
fn learning_kernel_is_bit_identical_to_its_golden_hash() {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for seed in [1u64, 42, 0x9A7F] {
        run_seed(seed, 1_200, &mut h);
    }
    assert_eq!(
        h.0, GOLDEN,
        "the learning kernel's output bits changed (hash {:#018x}); only a \
         change meant to alter learned weights may re-capture GOLDEN",
        h.0
    );
}
