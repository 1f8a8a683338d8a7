//! Property tests pinning the flat structure-of-arrays [`Cache`] to the
//! retained [`ReferenceCache`] over random operation sequences, with
//! explicit coverage of non-power-of-two set counts (the modulo fallback of
//! the set-index fast path) alongside the bitmask-mapped power-of-two
//! geometries the Table 3 configs use.

use proptest::prelude::*;

use pathfinder_sim::{Block, Cache, CacheConfig, ReferenceCache};

/// One cache operation, decoded from packed proptest draws.
#[derive(Debug, Clone, Copy)]
enum Op {
    Demand(u64),
    FillDemand(u64, u64),
    FillPrefetch(u64, u64),
    Invalidate(u64),
    Probe(u64),
}

/// Decodes `(kind, block, cycle)` tuples into operations. Fills dominate
/// the mix so sets actually pressure their ways and evict.
fn decode(ops: &[(u64, u64, u64)]) -> Vec<Op> {
    ops.iter()
        .map(|&(kind, block, cycle)| match kind % 8 {
            0 | 1 => Op::Demand(block),
            2 | 3 => Op::FillDemand(block, cycle),
            4 | 5 => Op::FillPrefetch(block, cycle),
            6 => Op::Invalidate(block),
            _ => Op::Probe(block),
        })
        .collect()
}

/// Drives both caches through `ops`, asserting every observable result
/// matches step by step, then compares the end state. (The vendored
/// proptest stub's `prop_assert!` error type is `String`.)
fn assert_equivalent(config: CacheConfig, ops: &[Op]) -> Result<(), String> {
    let mut flat = Cache::new(config);
    let mut reference = ReferenceCache::new(config);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Demand(b) => {
                let a = flat.demand_access(Block(b));
                let r = reference.demand_access(Block(b));
                prop_assert_eq!(a, r, "demand_access({}) diverged at step {}", b, step);
            }
            Op::FillDemand(b, cycle) => {
                let a = flat.fill(Block(b), false, cycle);
                let r = reference.fill(Block(b), false, cycle);
                prop_assert_eq!(a, r, "demand fill({}) evicted differently at {}", b, step);
            }
            Op::FillPrefetch(b, cycle) => {
                let a = flat.fill(Block(b), true, cycle);
                let r = reference.fill(Block(b), true, cycle);
                prop_assert_eq!(a, r, "prefetch fill({}) evicted differently at {}", b, step);
            }
            Op::Invalidate(b) => {
                prop_assert_eq!(
                    flat.invalidate(Block(b)),
                    reference.invalidate(Block(b)),
                    "invalidate({}) diverged at step {}",
                    b,
                    step
                );
            }
            Op::Probe(b) => {
                prop_assert_eq!(
                    flat.probe(Block(b)),
                    reference.probe(Block(b)),
                    "probe({}) diverged at step {}",
                    b,
                    step
                );
            }
        }
        prop_assert_eq!(
            flat.occupancy(),
            reference.occupancy(),
            "occupancy diverged"
        );
    }
    prop_assert_eq!(flat.stats(), reference.stats(), "stats diverged at end");

    // Reset restores both to a state equivalent to freshly constructed.
    flat.reset();
    reference.reset();
    prop_assert_eq!(flat.occupancy(), 0);
    prop_assert_eq!(flat.stats(), reference.stats());
    Ok(())
}

proptest! {
    /// Non-power-of-two set counts: the modulo fallback must track the
    /// reference exactly, including eviction order under set pressure.
    #[test]
    fn non_pow2_geometries_match_reference(
        sets in 1usize..48,
        ways in 1usize..8,
        raw_ops in prop::collection::vec((0u64..8, 0u64..96, 0u64..10_000), 1..300),
    ) {
        // Skew toward non-power-of-two by nudging pow2 draws off by one
        // (1 stays 1 — a legal degenerate direct-mapped-column case).
        let sets = if sets.is_power_of_two() && sets > 1 { sets + 1 } else { sets };
        let config = CacheConfig::new(sets, ways, 1);
        let ops = decode(&raw_ops);
        assert_equivalent(config, &ops)?;
    }

    /// Power-of-two set counts: the bitmask fast path must be
    /// indistinguishable from the reference's modulo mapping.
    #[test]
    fn pow2_geometries_match_reference(
        sets_log2 in 0u32..7,
        ways in 1usize..8,
        raw_ops in prop::collection::vec((0u64..8, 0u64..96, 0u64..10_000), 1..300),
    ) {
        let config = CacheConfig::new(1 << sets_log2, ways, 1);
        let ops = decode(&raw_ops);
        assert_equivalent(config, &ops)?;
    }

    /// High-pressure eviction order: a single skinny set so every fill
    /// beyond `ways` distinct blocks must evict, in exactly LRU order.
    #[test]
    fn single_set_eviction_order_matches(
        ways in 1usize..6,
        raw_ops in prop::collection::vec((0u64..8, 0u64..12, 0u64..100), 1..200),
    ) {
        // sets=1 is simultaneously the smallest pow2 AND the modulo path's
        // everything-collides worst case.
        let config = CacheConfig::new(1, ways, 1);
        let ops = decode(&raw_ops);
        assert_equivalent(config, &ops)?;
    }

    /// Way counts that are odd or not powers of two (3, 5, 12, 13) beside
    /// powers of two (4, 8). Every geometry must match the reference
    /// exactly — including the first-minimum victim choice when several
    /// lines share the minimum stamp.
    #[test]
    fn odd_way_counts_match_reference(
        ways_pick in 0usize..6,
        raw_ops in prop::collection::vec((0u64..8, 0u64..96, 0u64..10_000), 1..300),
    ) {
        let ways = [3usize, 4, 5, 8, 12, 13][ways_pick];
        let config = CacheConfig::new(4, ways, 1);
        let ops = decode(&raw_ops);
        assert_equivalent(config, &ops)?;
    }
}

/// Deterministic spot check: blocks far above `sets * ways` wrap correctly
/// in both mappings (large tags exercise the packed-tag shift).
#[test]
fn large_block_indices_round_trip() {
    for sets in [3usize, 5, 7, 8, 12, 16, 48] {
        let config = CacheConfig::new(sets, 2, 1);
        let mut flat = Cache::new(config);
        let mut reference = ReferenceCache::new(config);
        for i in 0..200u64 {
            let b = (1 << 40) + i * 977; // scattered high blocks
            assert_eq!(
                flat.fill(Block(b), i % 3 == 0, i),
                reference.fill(Block(b), i % 3 == 0, i),
                "sets={sets} i={i}"
            );
            assert_eq!(flat.probe(Block(b)), reference.probe(Block(b)));
        }
        assert_eq!(flat.stats(), reference.stats(), "sets={sets}");
        assert_eq!(flat.occupancy(), reference.occupancy(), "sets={sets}");
        assert_eq!(flat.occupancy(), sets * 2, "all ways full, sets={sets}");
    }
}
