//! Property suite for the shard partition laws: a [`ShardPlan`] must be a
//! *true partition* of the protected address space — every address maps
//! to exactly one shard, and shard ranges tile the space with no gap or
//! overlap.

use proptest::prelude::*;

use morphtree_core::concurrent::ShardPlan;

/// Derives a valid `(memory_bytes, shards)` pair from two raw seeds:
/// 1..=4096 lines, 1..=min(lines, 64) shards.
fn arb_plan(size_sel: u64, shard_sel: u64) -> ShardPlan {
    let lines = 1 + size_sel % 4096;
    let shards = 1 + (shard_sel % lines.min(64)) as usize;
    ShardPlan::new(lines * 64, shards).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every address maps to exactly one shard, and that shard's range
    /// contains it: `shard_base(s) <= line < shard_base(s) + shard_lines(s)`.
    #[test]
    fn every_address_maps_to_exactly_one_owning_shard(
        size_sel in any::<u64>(),
        shard_sel in any::<u64>(),
        line_sel in any::<u64>(),
    ) {
        let plan = arb_plan(size_sel, shard_sel);
        let line = line_sel % plan.data_lines();
        let owner = plan.shard_of(line);
        prop_assert!(owner < plan.shards());
        prop_assert!(plan.shard_base(owner) <= line);
        prop_assert!(line < plan.shard_base(owner) + plan.shard_lines(owner));
        // No other shard's range contains the line (no overlap).
        for other in 0..plan.shards() {
            if other != owner {
                let inside = plan.shard_base(other) <= line
                    && line < plan.shard_base(other) + plan.shard_lines(other);
                prop_assert!(!inside, "line {} also inside shard {}", line, other);
            }
        }
        // Local/global translation is a bijection on the owner's range.
        prop_assert_eq!(plan.global_line(owner, plan.local_line(line)), line);
    }

    /// Shard ranges tile the space: contiguous, in order, summing to the
    /// full line count (no gap, no overlap — the other half of the
    /// partition law, checked structurally rather than pointwise).
    #[test]
    fn shard_ranges_tile_the_space(
        size_sel in any::<u64>(),
        shard_sel in any::<u64>(),
    ) {
        let plan = arb_plan(size_sel, shard_sel);
        let mut next = 0u64;
        for shard in 0..plan.shards() {
            prop_assert_eq!(plan.shard_base(shard), next, "gap or overlap before shard {}", shard);
            prop_assert!(plan.shard_lines(shard) > 0, "shard {} owns no lines", shard);
            next += plan.shard_lines(shard);
        }
        prop_assert_eq!(next, plan.data_lines());
    }
}

/// Deterministic spot-checks at the boundaries proptest seeds might not
/// hit: single-shard plans, shard == line count, and remainder handling.
#[test]
fn degenerate_partitions_still_satisfy_the_laws() {
    // One shard owns everything.
    let plan = ShardPlan::new(640, 1).unwrap();
    assert_eq!(plan.shard_lines(0), 10);
    assert_eq!(plan.shard_of(9), 0);

    // As many shards as lines: each owns exactly one line.
    let plan = ShardPlan::new(640, 10).unwrap();
    for line in 0..10 {
        assert_eq!(plan.shard_of(line), line as usize);
        assert_eq!(plan.shard_lines(line as usize), 1);
    }

    // Prime line count over a non-divisor shard count.
    let plan = ShardPlan::new(97 * 64, 5).unwrap();
    let total: u64 = (0..5).map(|s| plan.shard_lines(s)).sum();
    assert_eq!(total, 97);
    assert_eq!(plan.shard_lines(4), 97 - 4 * (97 / 5));
}
