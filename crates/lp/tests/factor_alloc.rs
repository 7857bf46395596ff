//! Setting up and factorizing an LP allocates a bounded amount, however
//! large the problem:
//!
//! * a refactorization works in flat elimination files sized by the basis'
//!   nonzeros and kept between calls, not in a list per row and per column,
//!   and the heap the factors keep, that workspace included, is what
//!   `memory_bytes` reports;
//! * `Simplex::new` builds its matrices from the problem's flat row store,
//!   and the first solve factorizes the all-slack basis without an
//!   elimination, so an engine and its first solve allocate the same number
//!   of times at every size;
//! * `LpProblem::add_row` appends to that store, so building a model grows
//!   a few arrays instead of allocating a list per row.
//!
//! Single test function on purpose: the allocation counters are
//! process-global, and the default test harness runs `#[test]` functions
//! concurrently. The counts read the test thread's own counters, as the
//! harness's thread allocates while the test runs.

mod common;

use common::{slack_heavy_basis, Rng};
use tvnep_lp::factor::BasisFactor;
use tvnep_lp::{LpProblem, LpStatus, Simplex, VarId};
use tvnep_telemetry::alloc;

#[global_allocator]
static ALLOC: tvnep_telemetry::CountingAlloc = tvnep_telemetry::CountingAlloc;

/// Allocations one refactorization may make, at every basis size.
const MAX_ALLOCS_PER_CALL: u64 = 64;

/// Allocations made by `f`.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = alloc::thread_stats().allocs;
    f();
    alloc::thread_stats().allocs - before
}

/// `m` rows over `m` unit-box columns with positive costs: row `i` caps
/// `x_i + x_{i+1}`, and row 0 asks for `x_0 + x_1 ≥ 1`, which the all-slack
/// start violates. The dual simplex makes one pivot at every size.
fn one_pivot_lp(m: usize) -> LpProblem {
    let mut lp = LpProblem::new();
    let x: Vec<VarId> = (0..m)
        .map(|j| lp.add_var(0.0, 1.0, 1.0 + (j % 3) as f64))
        .collect();
    lp.add_ge(&[(x[0], 1.0), (x[1], 1.0)], 1.0);
    for i in 1..m {
        lp.add_le(&[(x[i], 1.0), (x[(i + 1) % m], 1.0)], 1.5);
    }
    lp
}

#[test]
fn allocations_do_not_grow_with_the_problem() {
    for m in [150, 1_200] {
        let (cols, basis) = slack_heavy_basis(&mut Rng(99), m);
        alloc::set_counting(true);
        let live_before = alloc::thread_stats().net_bytes;
        let mut f = BasisFactor::default();
        // The warm-up call sizes the factors and the workspace.
        assert!(f.factorize(&cols, &basis), "m = {m}: singular");
        let held = alloc::thread_stats().net_bytes - live_before;
        assert_eq!(
            held,
            f.memory_bytes() as i64,
            "m = {m}: the factors hold {held} B but report {} B",
            f.memory_bytes()
        );
        for call in 0..3 {
            let allocs = allocs_of(|| assert!(f.factorize(&cols, &basis), "m = {m}: singular"));
            assert!(
                allocs <= MAX_ALLOCS_PER_CALL,
                "m = {m}, call {call}: {allocs} allocations"
            );
        }
        alloc::set_counting(false);
    }

    let setup: Vec<u64> = [50, 500]
        .into_iter()
        .map(|m| {
            let lp = one_pivot_lp(m);
            alloc::set_counting(true);
            let allocs = allocs_of(|| {
                let mut s = Simplex::new(&lp);
                assert_eq!(s.solve_warm(), LpStatus::Optimal, "m = {m}");
                assert_eq!(s.stats.dual_iters, 1, "m = {m}");
            });
            alloc::set_counting(false);
            allocs
        })
        .collect();
    assert_eq!(
        setup[0], setup[1],
        "engine set-up allocations at m = 50 and 500"
    );

    let n = 1_000;
    let mut lp = LpProblem::new();
    let x: Vec<VarId> = (0..n).map(|_| lp.add_var(0.0, 1.0, 0.0)).collect();
    alloc::set_counting(true);
    let allocs = allocs_of(|| {
        for i in 0..n {
            lp.add_le(&[(x[(i + 1) % n], 2.0), (x[i], 1.0), (x[i], 1.0)], 1.0);
        }
    });
    alloc::set_counting(false);
    // Four arrays, each growing by doubling: about 4·log₂(1,000) ≈ 40.
    assert!(allocs <= 48, "{n} rows took {allocs} allocations");
}
