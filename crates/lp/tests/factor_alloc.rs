//! A refactorization allocates a bounded amount, however large the basis:
//! the elimination works in flat files sized by the basis' nonzeros and
//! kept between calls, not in a list per row and per column. The heap the
//! factors keep, that workspace included, is what `memory_bytes` reports.
//!
//! Single test function on purpose: the allocation counters are
//! process-global, and the default test harness runs `#[test]` functions
//! concurrently.

mod common;

use common::{slack_heavy_basis, Rng};
use tvnep_lp::factor::BasisFactor;
use tvnep_telemetry::alloc;

#[global_allocator]
static ALLOC: tvnep_telemetry::CountingAlloc = tvnep_telemetry::CountingAlloc;

/// Allocations one refactorization may make, at every basis size.
const MAX_ALLOCS_PER_CALL: u64 = 64;

#[test]
fn refactorization_allocates_a_bounded_amount() {
    for m in [150, 1_200] {
        let (cols, basis) = slack_heavy_basis(&mut Rng(99), m);
        alloc::set_counting(true);
        let live_before = alloc::stats().live_bytes;
        let mut f = BasisFactor::default();
        // The warm-up call sizes the factors and the workspace.
        assert!(f.factorize(&cols, &basis), "m = {m}: singular");
        let held = alloc::stats().live_bytes - live_before;
        assert_eq!(
            held,
            f.memory_bytes() as u64,
            "m = {m}: the factors hold {held} B but report {} B",
            f.memory_bytes()
        );
        for call in 0..3 {
            let before = alloc::stats().allocs;
            assert!(f.factorize(&cols, &basis), "m = {m}: singular");
            let allocs = alloc::stats().allocs - before;
            assert!(
                allocs <= MAX_ALLOCS_PER_CALL,
                "m = {m}, call {call}: {allocs} allocations"
            );
        }
        alloc::set_counting(false);
    }
}
