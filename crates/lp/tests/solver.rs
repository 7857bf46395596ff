//! Integration tests for the simplex solver: textbook LPs with known optima,
//! degenerate/edge cases, warm starts, and KKT-certified random instances.

use tvnep_lp::{solve, LpProblem, LpStatus, Simplex, INF};

/// Tiny deterministic generator (splitmix64) for the randomized sweeps below;
/// each case index derives an independent stream, so failures reproduce from
/// the printed case number alone.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn assert_opt(lp: &LpProblem, expected: f64) {
    let sol = solve(lp);
    assert_eq!(sol.status, LpStatus::Optimal, "expected optimal");
    assert!(
        (sol.objective - expected).abs() < 1e-6,
        "objective {} != expected {expected}",
        sol.objective
    );
    assert!(lp.max_violation(&sol.x) < 1e-6, "solution must be feasible");
}

#[test]
fn textbook_max_two_vars() {
    // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 (Hillier-Lieberman).
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, INF, -3.0);
    let y = lp.add_var(0.0, INF, -5.0);
    lp.add_le(&[(x, 1.0)], 4.0);
    lp.add_le(&[(y, 2.0)], 12.0);
    lp.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
    assert_opt(&lp, -36.0); // x=2, y=6
}

#[test]
fn equality_constraints_need_phase1() {
    // min x + y st x + 2y = 4, 3x - y = 2 -> unique point (8/7, 10/7).
    let mut lp = LpProblem::new();
    let x = lp.add_var(-INF, INF, 1.0);
    let y = lp.add_var(-INF, INF, 1.0);
    lp.add_eq(&[(x, 1.0), (y, 2.0)], 4.0);
    lp.add_eq(&[(x, 3.0), (y, -1.0)], 2.0);
    assert_opt(&lp, 8.0 / 7.0 + 10.0 / 7.0);
}

#[test]
fn infeasible_detected() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 1.0, 0.0);
    lp.add_ge(&[(x, 1.0)], 2.0);
    assert_eq!(solve(&lp).status, LpStatus::Infeasible);
}

#[test]
fn infeasible_between_rows() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(-INF, INF, 0.0);
    lp.add_le(&[(x, 1.0)], 1.0);
    lp.add_ge(&[(x, 1.0)], 2.0);
    assert_eq!(solve(&lp).status, LpStatus::Infeasible);
}

#[test]
fn unbounded_detected() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, INF, -1.0);
    lp.add_ge(&[(x, 1.0)], 1.0);
    assert_eq!(solve(&lp).status, LpStatus::Unbounded);
}

#[test]
fn free_variable_unbounded_without_rows() {
    let mut lp = LpProblem::new();
    lp.add_var(-INF, INF, 1.0);
    assert_eq!(solve(&lp).status, LpStatus::Unbounded);
}

#[test]
fn pure_bound_problem_no_rows() {
    let mut lp = LpProblem::new();
    lp.add_var(-1.0, 2.0, 1.0); // -> -1
    lp.add_var(-1.0, 2.0, -1.0); // -> 2 (contributes -2)
    lp.add_var(3.0, 3.0, 10.0); // fixed -> 30
    assert_opt(&lp, 27.0);
}

#[test]
fn range_row_binds_on_both_sides() {
    // min x st 1 <= x + y <= 2, y in [0, 10], x free.
    let mut lp = LpProblem::new();
    let x = lp.add_var(-INF, INF, 1.0);
    let y = lp.add_var(0.0, 10.0, 0.0);
    lp.add_row(1.0, 2.0, &[(x, 1.0), (y, 1.0)]);
    assert_opt(&lp, -9.0); // y=10, x=-9 puts activity at lower bound 1
}

#[test]
fn degenerate_beale_cycle_guard() {
    // Beale's classic cycling example; Bland fallback must terminate it.
    let mut lp = LpProblem::new();
    let x1 = lp.add_var(0.0, INF, -0.75);
    let x2 = lp.add_var(0.0, INF, 150.0);
    let x3 = lp.add_var(0.0, INF, -0.02);
    let x4 = lp.add_var(0.0, INF, 6.0);
    lp.add_le(
        &[(x1, 0.25), (x2, -60.0), (x3, -1.0 / 25.0), (x4, 9.0)],
        0.0,
    );
    lp.add_le(&[(x1, 0.5), (x2, -90.0), (x3, -1.0 / 50.0), (x4, 3.0)], 0.0);
    lp.add_le(&[(x3, 1.0)], 1.0);
    assert_opt(&lp, -0.05);
}

#[test]
fn upper_bounded_transport() {
    // min cost transport with bound flips: 2 supplies, 2 demands.
    let mut lp = LpProblem::new();
    let x11 = lp.add_var(0.0, 5.0, 1.0);
    let x12 = lp.add_var(0.0, 5.0, 4.0);
    let x21 = lp.add_var(0.0, 5.0, 2.0);
    let x22 = lp.add_var(0.0, 5.0, 1.0);
    lp.add_eq(&[(x11, 1.0), (x12, 1.0)], 6.0); // needs x12 > 0 given cap 5
    lp.add_eq(&[(x21, 1.0), (x22, 1.0)], 4.0);
    lp.add_eq(&[(x11, 1.0), (x21, 1.0)], 5.0);
    lp.add_eq(&[(x12, 1.0), (x22, 1.0)], 5.0);
    // x11=5, x12=1, x21=0, x22=4 -> 5 + 4 + 0 + 4 = 13.
    assert_opt(&lp, 13.0);
}

#[test]
fn negative_lower_bounds() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(-5.0, 5.0, 1.0);
    let y = lp.add_var(-5.0, 5.0, 1.0);
    lp.add_ge(&[(x, 1.0), (y, 1.0)], -3.0);
    assert_opt(&lp, -3.0);
}

#[test]
fn warm_start_after_bound_tightening() {
    // Mimics a branch-and-bound step: solve, tighten a bound, re-solve.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 1.0, -1.0);
    let y = lp.add_var(0.0, 1.0, -1.0);
    lp.add_le(&[(x, 1.0), (y, 1.0)], 1.5);
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    let sol = s.extract(LpStatus::Optimal);
    assert!((sol.objective - (-1.5)).abs() < 1e-7);
    let basis = s.save_basis();
    // Branch x <= 0.
    s.set_var_bounds(0, 0.0, 0.0);
    assert_eq!(s.solve(), LpStatus::Optimal);
    assert!((s.objective_value() - (-1.0)).abs() < 1e-7);
    // Backtrack: x >= 1 branch from the recorded parent basis.
    s.set_var_bounds(0, 1.0, 1.0);
    s.load_basis(&basis);
    assert_eq!(s.solve(), LpStatus::Optimal);
    assert!((s.objective_value() - (-1.5)).abs() < 1e-7);
    // Backtrack again, the way branch and bound pops a queued node: install
    // the parent basis and re-solve with the dual simplex. The x <= 0 child
    // needs one dual pivot from the parent basis; it must not fall back.
    s.set_var_bounds(0, 0.0, 0.0);
    let before = s.stats;
    s.load_basis(&basis);
    // Loading only installs the statuses; the solve factorizes.
    assert_eq!(s.stats.refactorizations(), before.refactorizations());
    assert_eq!(s.solve_warm(), LpStatus::Optimal);
    assert!(s.stats.refactorizations() > before.refactorizations());
    assert!((s.objective_value() - (-1.0)).abs() < 1e-7);
    assert_eq!(s.stats.dual_fallbacks, before.dual_fallbacks);
    assert_eq!(s.stats.dual_successes, before.dual_successes + 1);
    // And the x >= 1 child from the same basis.
    s.set_var_bounds(0, 1.0, 1.0);
    s.load_basis(&basis);
    assert_eq!(s.solve_warm(), LpStatus::Optimal);
    assert!((s.objective_value() - (-1.5)).abs() < 1e-7);
    assert_eq!(s.stats.dual_fallbacks, before.dual_fallbacks);
    assert!(s.kkt_violation() < 1e-7);
    // A recorded basis round-trips: saving right after loading is a no-op.
    s.load_basis(&basis);
    assert_eq!(s.save_basis(), basis);
}

/// A boxed variable that rests at the bound its cost dislikes makes the warm
/// start dual infeasible. Bound-flipping dual phase 1 moves it to the other
/// bound and the dual simplex finishes the job, without the primal phases.
#[test]
fn dual_infeasible_boxed_start_flips_instead_of_falling_back() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 1.0, -1.0);
    let y = lp.add_var(0.0, 1.0, -1.0);
    lp.add_le(&[(x, 1.0), (y, 1.0)], 1.5);
    let cold = solve(&lp);
    assert_eq!(cold.status, LpStatus::Optimal);

    let mut s = Simplex::new(&lp);
    // Fix x at 0, the bound its cost of -1 dislikes, and solve.
    s.set_var_bounds(0, 0.0, 0.0);
    assert_eq!(s.solve(), LpStatus::Optimal);
    assert!((s.objective_value() - (-1.0)).abs() < 1e-7);
    // Unfix: x rests at its lower bound with reduced cost -1.
    s.set_var_bounds(0, 0.0, 1.0);
    assert_eq!(s.solve_warm(), LpStatus::Optimal);
    assert!((s.objective_value() - cold.objective).abs() < 1e-7);
    assert!(s.kkt_violation() < 1e-7);
    assert_eq!(s.stats.dual_fallbacks, 0);
    assert_eq!(s.stats.dual_successes, 1);
}

/// `objective_value` and `extract` add the same terms in the same order, so
/// the telemetry objective of a solve is bit-equal to the extracted one.
#[test]
fn objective_value_matches_extract_bit_for_bit_after_warm_solve() {
    for case in 0..64u64 {
        let mut rng = TestRng::new(0x0b1e_0000 + case);
        let (lp, n) = random_box_lp(&mut rng);
        let mut s = Simplex::new(&lp);
        if s.solve() != LpStatus::Optimal {
            continue;
        }
        let j = rng.below(n);
        s.set_var_bounds(j, 0.0, 2.0 * rng.f64());
        if s.solve_warm() != LpStatus::Optimal {
            continue;
        }
        let extracted = s.extract(LpStatus::Optimal).objective;
        assert_eq!(
            s.objective_value().to_bits(),
            extracted.to_bits(),
            "case {case}"
        );
    }
}

#[test]
fn fixed_variables_stay_fixed() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(2.0, 2.0, -10.0);
    let y = lp.add_var(0.0, INF, 1.0);
    lp.add_ge(&[(x, 1.0), (y, 1.0)], 3.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.x[0] - 2.0).abs() < 1e-9);
    assert!((sol.x[1] - 1.0).abs() < 1e-7);
    let _ = (x, y);
}

#[test]
fn zero_capacity_rows() {
    // A row forced to zero activity acts like an equality through the origin.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 10.0, -1.0);
    let y = lp.add_var(0.0, 10.0, 0.0);
    lp.add_row(0.0, 0.0, &[(x, 1.0), (y, -1.0)]);
    lp.add_le(&[(y, 1.0)], 7.0);
    assert_opt(&lp, -7.0);
}

#[test]
fn larger_assignment_lp_is_integral() {
    // 6x6 assignment problem relaxation: optimum is a permutation.
    let n = 6;
    let cost: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| (((i * 7 + j * 13) % 10) + 1) as f64)
                .collect()
        })
        .collect();
    let mut lp = LpProblem::new();
    let mut vars = vec![vec![]; n];
    for (row, cost_row) in vars.iter_mut().zip(&cost) {
        for &c in cost_row {
            row.push(lp.add_var(0.0, 1.0, c));
        }
    }
    for i in 0..n {
        let terms: Vec<_> = vars[i].iter().map(|&v| (v, 1.0)).collect();
        lp.add_eq(&terms, 1.0);
        let terms: Vec<_> = vars.iter().map(|row| (row[i], 1.0)).collect();
        lp.add_eq(&terms, 1.0);
    }
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    // Totally unimodular constraint matrix -> basic optimum is 0/1.
    for v in &sol.x {
        assert!(v.abs() < 1e-6 || (v - 1.0).abs() < 1e-6, "fractional {v}");
    }
}

#[test]
fn max_flow_as_lp() {
    // Max s-t flow on a diamond: s->a (3), s->b (2), a->t (2), b->t (3), a->b (1).
    let mut lp = LpProblem::new();
    let sa = lp.add_var(0.0, 3.0, -1.0);
    let sb = lp.add_var(0.0, 2.0, -1.0);
    let at = lp.add_var(0.0, 2.0, 0.0);
    let bt = lp.add_var(0.0, 3.0, 0.0);
    let ab = lp.add_var(0.0, 1.0, 0.0);
    lp.add_eq(&[(sa, 1.0), (at, -1.0), (ab, -1.0)], 0.0); // node a
    lp.add_eq(&[(sb, 1.0), (ab, 1.0), (bt, -1.0)], 0.0); // node b
    assert_opt(&lp, -5.0); // min cut = 5
}

/// Random LPs built around a known feasible point: the solver must never
/// report infeasible, and any claimed optimum must satisfy the KKT
/// conditions (independent certificate) and primal feasibility.
#[test]
fn random_feasible_lps_are_kkt_optimal() {
    for case in 0..256u64 {
        let mut rng = TestRng::new(0xfeed_0000 + case);
        let n = 1 + rng.below(7);
        let m = rng.below(10);
        let x0: Vec<f64> = (0..n).map(|_| rng.range(-5.0, 5.0)).collect();
        let costs: Vec<f64> = (0..n).map(|_| rng.range(-2.0, 2.0)).collect();
        let slack = rng.range(0.0, 4.0);
        let mut lp = LpProblem::new();
        for (j, &v) in x0.iter().enumerate() {
            // Bounds around the seed point, so x0 is always feasible.
            lp.add_var(v - 1.0, v + 1.0 + slack, costs[j]);
        }
        for _ in 0..m {
            let terms: Vec<_> = (0..n)
                .map(|j| (tvnep_lp::VarId(j), rng.range(-3.0, 3.0)))
                .collect();
            let act: f64 = terms.iter().map(|&(v, c)| c * x0[v.0]).sum();
            lp.add_row(act - slack - 1.0, act + 0.5, &terms);
        }
        let mut s = Simplex::new(&lp);
        let status = s.solve();
        assert_eq!(
            status,
            LpStatus::Optimal,
            "case {case}: bounded feasible LP must solve"
        );
        let sol = s.extract(status);
        assert!(lp.max_violation(&sol.x) < 1e-6, "case {case}");
        assert!(
            s.kkt_violation() < 1e-5,
            "case {case}: KKT violation {}",
            s.kkt_violation()
        );
        // Optimum must not exceed the seed point's objective.
        assert!(
            sol.objective <= lp.eval_objective(&x0) + 1e-6,
            "case {case}"
        );
    }
}

/// Shared generator for the warm-start agreement sweeps: a box LP with range
/// rows through the origin (always primal-feasible at x = 0 before rows).
fn random_box_lp(rng: &mut TestRng) -> (LpProblem, usize) {
    let n = 2 + rng.below(4);
    let m = 1 + rng.below(5);
    let mut lp = LpProblem::new();
    for _ in 0..n {
        let c = rng.range(-2.0, 2.0);
        lp.add_var(0.0, 2.0, c);
    }
    for _ in 0..m {
        let terms: Vec<_> = (0..n)
            .map(|j| (tvnep_lp::VarId(j), rng.range(-2.0, 2.0)))
            .collect();
        lp.add_row(-3.0, 3.0, &terms);
    }
    (lp, n)
}

/// Dual-simplex warm start (the branch-and-bound path) must agree with a
/// cold primal solve after bound tightening, including infeasibility.
#[test]
fn dual_warm_start_matches_cold_solve() {
    for case in 0..256u64 {
        let mut rng = TestRng::new(0xd0a1_0000 ^ case);
        let (lp, n) = random_box_lp(&mut rng);
        let num_tighten = 1 + rng.below(3);
        let mut s = Simplex::new(&lp);
        if s.solve() != LpStatus::Optimal {
            continue;
        }
        // Apply a sequence of tightenings, dual-warm-starting each time —
        // exactly the branch-and-bound dive pattern.
        let mut lp2 = lp.clone();
        for _ in 0..num_tighten {
            let j = rng.below(n);
            let frac = rng.f64();
            let (lo, _) = s.var_bounds(j);
            let new_up = lo + (2.0 - lo) * frac;
            s.set_var_bounds(j, lo, new_up);
            lp2.set_var_bounds(tvnep_lp::VarId(j), lo, new_up);
            let warm = s.solve_warm();
            let cold = solve(&lp2);
            assert_eq!(warm, cold.status, "case {case}: warm vs cold status");
            if warm == LpStatus::Optimal {
                assert!(
                    (s.objective_value() - cold.objective).abs() < 1e-5,
                    "case {case}: warm {} vs cold {}",
                    s.objective_value(),
                    cold.objective
                );
                assert!(s.kkt_violation() < 1e-5, "case {case}");
            } else {
                break; // infeasible: further tightening is moot
            }
        }
    }
}

/// Bound tightening then warm-started re-solve must agree with a cold solve.
#[test]
fn warm_start_matches_cold_solve() {
    for case in 0..256u64 {
        let mut rng = TestRng::new(0x3a3a_0000 + case);
        let (lp, n) = random_box_lp(&mut rng);
        let mut s = Simplex::new(&lp);
        if s.solve() != LpStatus::Optimal {
            continue; // rows may make the box infeasible; fine
        }
        let j = rng.below(n);
        let new_up = 2.0 * rng.f64();
        s.set_var_bounds(j, 0.0, new_up);
        let warm_status = s.solve_warm();

        let mut lp2 = lp.clone();
        lp2.set_var_bounds(tvnep_lp::VarId(j), 0.0, new_up);
        let cold = solve(&lp2);
        assert_eq!(warm_status, cold.status, "case {case}");
        if warm_status == LpStatus::Optimal {
            assert!(
                (s.objective_value() - cold.objective).abs() < 1e-5,
                "case {case}: warm {} vs cold {}",
                s.objective_value(),
                cold.objective
            );
        }
    }
}
