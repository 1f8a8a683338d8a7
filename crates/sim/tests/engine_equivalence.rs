//! Equivalence of the flat-layout replay engine and the retained
//! pre-rewrite reference engine (`pathfinder_sim::reference`).
//!
//! The rewrite changes only data layout — packed tag words instead of
//! per-set `Vec<Line>`, a fixed-capacity MSHR array instead of a
//! `BinaryHeap`, bitmask set indexing for power-of-two geometries — never
//! arithmetic, so unlike the SNN kernel pair (which agrees up to fp
//! re-association) the two engines must be **bit-identical**: every
//! [`SimReport`] counter and every [`DetailedStats`] counter, across
//! random geometries (power-of-two and non-power-of-two set counts),
//! random traces (with pointer-chasing dependences), warmup windows
//! (including empty and whole-trace), and prefetch schedules.
//!
//! A reused simulator must be indistinguishable from a fresh one:
//! [`Simulator::replay`] resets only the cache sets the previous replay
//! wrote, and every replay in a sequence must still equal
//! `Simulator::new(cfg).run` bit for bit.
//!
//! [`Simulator::replay_iter`], the replay over iterators that serving
//! sessions use, equals both engines' slice replays on traces whose
//! instruction ids repeat and go backwards (the wire accepts any ids) and
//! on unsorted schedules.

use proptest::prelude::*;

use pathfinder_sim::reference::ReferenceSimulator;
use pathfinder_sim::{
    CacheConfig, CoreConfig, DramConfig, MemoryAccess, PrefetchRequest, ReplayAccess, SimConfig,
    Simulator, Trace,
};

/// Small mixed-radix geometry: half the draws land on non-power-of-two set
/// counts, which exercise the modulo fallback of the set-index fast path.
fn cache_cfg(sets: usize, ways: usize, latency: u64) -> CacheConfig {
    CacheConfig::new(sets.max(1), ways.max(1), latency)
}

fn sim_config(
    l1_sets: usize,
    l2_sets: usize,
    llc_sets: usize,
    ways: usize,
    mshrs: usize,
    rob: u64,
    queue: usize,
) -> SimConfig {
    SimConfig {
        l1d: cache_cfg(l1_sets, ways, 5),
        l2: cache_cfg(l2_sets, ways + 1, 10),
        llc: cache_cfg(llc_sets, ways + 2, 20),
        dram: DramConfig {
            read_queue_size: queue.max(1),
            ..DramConfig::default()
        },
        core: CoreConfig {
            width: 4,
            rob_size: rob.max(4),
            mshrs,
        },
        ..SimConfig::default()
    }
}

/// Builds a trace from packed per-access draws: `(block, gap, dependent)`.
fn build_trace(accesses: &[(u64, u64, bool)]) -> Trace {
    let mut id = 0u64;
    accesses
        .iter()
        .map(|&(block, gap, dep)| {
            id += 1 + gap;
            let a = MemoryAccess::new(id, 0x400, block * 64);
            if dep {
                a.dependent()
            } else {
                a
            }
        })
        .collect()
}

/// Derives a sorted prefetch schedule from the trace: every `stride`-th
/// access triggers a prefetch of a pseudo-random nearby block (some of
/// which are later demanded, some not, some already resident).
fn build_schedule(trace: &Trace, stride: usize, salt: u64) -> Vec<PrefetchRequest> {
    trace
        .iter()
        .enumerate()
        .filter(|(i, _)| stride > 0 && i % stride == 0)
        .map(|(i, a)| {
            let mix = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ salt;
            PrefetchRequest::new(
                a.instr_id,
                pathfinder_sim::Block(a.block().0.wrapping_add(mix % 7)),
            )
        })
        .collect()
}

proptest! {
    /// Full-replay equivalence: `SimReport` and `DetailedStats` are
    /// bit-identical across random geometries, traces, warmup windows, and
    /// schedules.
    #[test]
    fn flat_engine_matches_reference(
        l1_sets in 1usize..20,
        l2_sets in 1usize..40,
        llc_sets in 1usize..70,
        ways in 1usize..5,
        mshrs in 0usize..8,
        rob in 4u64..64,
        queue in 1usize..8,
        accesses in prop::collection::vec((0u64..160, 0u64..6, any::<bool>()), 1..180),
        pf_stride in 1usize..6,
        salt in 0u64..1_000,
        warmup_frac in 0usize..8,
    ) {
        let cfg = sim_config(l1_sets, l2_sets, llc_sets, ways, mshrs, rob, queue);
        let trace = build_trace(&accesses);
        let schedule = build_schedule(&trace, pf_stride, salt);
        // Warmup from empty through past-the-end (clamped inside run).
        let warmup = trace.len() * warmup_frac / 6;

        let (flat, flat_detail) = Simulator::new(cfg)
            .run_detailed_with_warmup(&trace, &schedule, warmup);
        let (reference, ref_detail) = ReferenceSimulator::new(cfg)
            .run_detailed_with_warmup(&trace, &schedule, warmup);

        prop_assert_eq!(&flat, &reference, "SimReport diverged (warmup {})", warmup);
        prop_assert_eq!(
            &flat_detail, &ref_detail,
            "DetailedStats diverged (warmup {})", warmup
        );
        // Sanity: the property is not vacuous — replays really measured
        // something whenever the warmup window left room.
        if warmup < trace.len() {
            prop_assert!(flat.loads > 0);
            prop_assert!(flat.cycles > 0);
        }
    }

    /// The undetailed entry points agree with each other too (they share
    /// `run_inner`, but the public surface is what callers depend on).
    #[test]
    fn run_and_run_with_warmup_agree(
        llc_sets in 1usize..48,
        ways in 1usize..5,
        accesses in prop::collection::vec((0u64..90, 0u64..4, any::<bool>()), 1..100),
        pf_stride in 1usize..5,
        salt in 0u64..1_000,
    ) {
        let cfg = sim_config(8, 16, llc_sets, ways, 4, 32, 4);
        let trace = build_trace(&accesses);
        let schedule = build_schedule(&trace, pf_stride, salt);

        let flat = Simulator::new(cfg).run(&trace, &schedule);
        let reference = ReferenceSimulator::new(cfg).run(&trace, &schedule);
        prop_assert_eq!(&flat, &reference);

        let half = trace.len() / 2;
        let flat_w = Simulator::new(cfg).run_with_warmup(&trace, &schedule, half);
        let ref_w = ReferenceSimulator::new(cfg).run_with_warmup(&trace, &schedule, half);
        prop_assert_eq!(&flat_w, &ref_w);
    }

    /// One simulator replays a sequence of traces: a long first trace, then
    /// short ones, each with or without a schedule. Tiny caches make the
    /// long trace wrap every set and evict, so each later replay starts
    /// from a cache the previous one dirtied. Every replay, report and
    /// per-component stats, equals a fresh simulator's run.
    #[test]
    fn reused_simulator_matches_fresh_runs(
        l1_sets in 1usize..4,
        l2_sets in 1usize..6,
        llc_sets in 1usize..10,
        ways in 1usize..4,
        mshrs in 0usize..6,
        rob in 4u64..48,
        queue in 1usize..6,
        first in prop::collection::vec((0u64..160, 0u64..6, any::<bool>()), 150..400),
        rest in prop::collection::vec(
            (prop::collection::vec((0u64..160, 0u64..6, any::<bool>()), 1..60), 0usize..4),
            1..5,
        ),
        salt in 0u64..1_000,
    ) {
        let cfg = sim_config(l1_sets, l2_sets, llc_sets, ways, mshrs, rob, queue);
        let mut sim = Simulator::new(cfg);
        let runs = std::iter::once((first, 1)).chain(rest);
        for (n, (accesses, pf_stride)) in runs.enumerate() {
            let trace = build_trace(&accesses);
            // Stride 0 is the empty schedule.
            let schedule = build_schedule(&trace, pf_stride, salt);
            let report = sim.replay(&trace, &schedule);
            let (fresh, fresh_detail) = Simulator::new(cfg).run_detailed(&trace, &schedule);
            prop_assert_eq!(&report, &fresh, "SimReport diverged on replay {}", n);
            prop_assert_eq!(
                &sim.detailed_stats(), &fresh_detail,
                "DetailedStats diverged on replay {}", n
            );
        }
    }
}

proptest! {
    /// Instruction ids step by -3..=3 (repeats and reversals included) and
    /// the schedule's triggers are drawn from the trace's ids in any order.
    /// The iterator replay, fed from chunked storage as a serving session
    /// keeps it, equals `Simulator::run` and the reference engine; an
    /// unsorted schedule takes the same sort-a-copy fallback in all three.
    #[test]
    fn iterator_replay_matches_on_unordered_ids_and_schedules(
        llc_sets in 1usize..24,
        ways in 1usize..4,
        mshrs in 0usize..6,
        start in 0u64..8,
        accesses in prop::collection::vec((0u64..120, -3i64..=3, any::<bool>()), 1..160),
        prefetches in prop::collection::vec((0usize..1_000, 0u64..9), 0..80),
        sort_schedule in any::<bool>(),
    ) {
        let cfg = sim_config(2, 4, llc_sets, ways, mshrs, 16, 3);
        let mut id = start;
        let trace: Trace = accesses
            .iter()
            .map(|&(block, step, dep)| {
                id = id.saturating_add_signed(step);
                let a = MemoryAccess::new(id, 0x400, block * 64);
                if dep { a.dependent() } else { a }
            })
            .collect();
        let mut schedule: Vec<PrefetchRequest> = prefetches
            .iter()
            .map(|(at, hop)| {
                let a = trace.accesses()[at % trace.len()];
                PrefetchRequest::new(a.instr_id, pathfinder_sim::Block(a.block().0 + hop))
            })
            .collect();
        if sort_schedule {
            schedule.sort_by_key(|p| p.trigger_instr_id);
        }

        let replay_accesses: Vec<ReplayAccess> = trace.iter().map(ReplayAccess::from).collect();
        let mut sim = Simulator::new(cfg);
        let iterated = sim.replay_iter(
            replay_accesses.into_iter(),
            schedule.chunks(5).flatten().copied(),
        );
        let run = Simulator::new(cfg).run(&trace, &schedule);
        let reference = ReferenceSimulator::new(cfg).run(&trace, &schedule);
        prop_assert_eq!(&iterated, &run);
        prop_assert_eq!(&iterated, &reference);
        prop_assert_eq!(iterated.loads, trace.len() as u64);
    }
}

/// The Table 3 geometry a serving daemon reuses per connection: a long
/// mixed trace, then a short one, then the long one again, with and
/// without schedules. Each replay equals a fresh simulator's run.
#[test]
fn reused_default_simulator_matches_fresh_runs() {
    let cfg = SimConfig::default();
    let long = mixed_trace(4_000);
    let short = mixed_trace(256);
    let mut sim = Simulator::new(cfg);
    for (n, (trace, stride)) in [(&long, 2), (&short, 0), (&short, 3), (&long, 0), (&long, 1)]
        .into_iter()
        .enumerate()
    {
        let schedule = build_schedule(trace, stride, 99);
        let report = sim.replay(trace, &schedule);
        let (fresh, fresh_detail) = Simulator::new(cfg).run_detailed(trace, &schedule);
        assert_eq!(report, fresh, "SimReport diverged on replay {n}");
        assert_eq!(
            sim.detailed_stats(),
            fresh_detail,
            "DetailedStats diverged on replay {n}"
        );
    }
}

/// A pseudo-random mixture of streaming, reuse and scattered blocks.
fn mixed_trace(loads: usize) -> Trace {
    let mut accesses = Vec::new();
    let mut x = 7u64;
    for _ in 0..loads {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let block = match x % 4 {
            0 => (x >> 32) % 64,            // hot reuse set
            1 => 1_000 + (x >> 32) % 4_096, // LLC-sized set
            _ => x >> 20,                   // cold scatter
        };
        accesses.push((block, x % 3, x.is_multiple_of(11)));
    }
    build_trace(&accesses)
}

/// Table 3 default geometry on a denser, longer trace than the random
/// cases reach: the exact configuration every experiment replays.
#[test]
fn default_config_equivalence_on_mixed_trace() {
    let cfg = SimConfig::default();
    let trace = mixed_trace(4_000);
    let schedule = build_schedule(&trace, 2, 99);
    for warmup in [0usize, 1_000, 4_000] {
        let (a, da) = Simulator::new(cfg).run_detailed_with_warmup(&trace, &schedule, warmup);
        let (b, db) =
            ReferenceSimulator::new(cfg).run_detailed_with_warmup(&trace, &schedule, warmup);
        assert_eq!(a, b, "SimReport diverged at warmup {warmup}");
        assert_eq!(da, db, "DetailedStats diverged at warmup {warmup}");
    }
}
