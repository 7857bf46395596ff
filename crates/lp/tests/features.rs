//! Tests for simplex engine features: the wall-clock deadline, the cost
//! perturbation + exact cleanup, stability under repeated warm starts, and
//! the profiler's booking of factorizations.

use std::time::{Duration, Instant};
use tvnep_lp::{solve, LpProblem, LpStatus, Simplex, VarId, INF};
use tvnep_telemetry::Telemetry;

#[test]
fn deadline_in_the_past_stops_quickly() {
    // A moderately sized LP; with an already-expired deadline the solver
    // must bail out with TimeLimit almost immediately.
    let n = 60;
    let mut lp = LpProblem::new();
    for j in 0..n {
        lp.add_var(0.0, 1.0, -((j % 7) as f64) - 1.0);
    }
    for i in 0..n {
        let terms: Vec<_> = (0..n)
            .map(|j| (VarId(j), (((i * j) % 5) + 1) as f64))
            .collect();
        lp.add_le(&terms, 10.0);
    }
    let mut s = Simplex::new(&lp);
    s.set_deadline(Some(Instant::now() - Duration::from_secs(1)));
    let t0 = Instant::now();
    let status = s.solve();
    assert_eq!(status, LpStatus::TimeLimit);
    assert!(t0.elapsed() < Duration::from_secs(2));
}

#[test]
fn no_deadline_solves_the_same_lp() {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 10.0, -1.0);
    let y = lp.add_var(0.0, 10.0, -2.0);
    lp.add_le(&[(x, 1.0), (y, 1.0)], 7.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - (-14.0)).abs() < 1e-6); // y = 7? no: y<=7, obj -14
}

#[test]
fn perturbation_does_not_leak_into_reported_objective() {
    // Degenerate LP with a large flat optimal face: many variables with zero
    // cost. The perturbed pricing must not change the *reported* optimum.
    let n = 40;
    let mut lp = LpProblem::new();
    let mut terms = Vec::new();
    for j in 0..n {
        // Only variable 0 has a cost; the rest pad a flat face.
        let c = if j == 0 { -1.0 } else { 0.0 };
        terms.push((lp.add_var(0.0, 1.0, c), 1.0));
    }
    lp.add_le(&terms, 10.0);
    let sol = solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(
        (sol.objective - (-1.0)).abs() < 1e-7,
        "exact optimum is -1 (x0 = 1); got {}",
        sol.objective
    );
}

#[test]
fn repeated_warm_starts_stay_consistent() {
    // Branch-and-bound style hammering: many bound changes + warm re-solves
    // must never drift away from cold-solve objectives.
    let n = 8;
    let mut lp = LpProblem::new();
    for j in 0..n {
        lp.add_var(0.0, 1.0, -(1.0 + (j as f64) * 0.3));
    }
    for i in 0..4 {
        let terms: Vec<_> = (0..n)
            .map(|j| (VarId(j), (((i + j) % 3) + 1) as f64))
            .collect();
        lp.add_le(&terms, 4.0);
    }
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    let mut reference = lp.clone();
    // Walk a pseudo-random sequence of fix/unfix operations.
    let mut state = 12345u64;
    for _ in 0..40 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % n;
        let fix_up = state & 1 == 0;
        let (lo, up) = if fix_up { (1.0, 1.0) } else { (0.0, 0.0) };
        s.set_var_bounds(j, lo, up);
        reference.set_var_bounds(VarId(j), lo, up);
        let warm = s.solve_warm();
        let cold = solve(&reference);
        assert_eq!(warm, cold.status);
        if warm == LpStatus::Optimal {
            assert!(
                (s.objective_value() - cold.objective).abs() < 1e-5,
                "drift: warm {} vs cold {}",
                s.objective_value(),
                cold.objective
            );
        } else {
            // Reset to a feasible configuration before continuing.
            s.set_var_bounds(j, 0.0, 1.0);
            reference.set_var_bounds(VarId(j), 0.0, 1.0);
            assert_eq!(s.solve_warm(), LpStatus::Optimal);
        }
    }
}

#[test]
fn iteration_limit_reported() {
    let n = 30;
    let mut lp = LpProblem::new();
    for j in 0..n {
        lp.add_var(0.0, INF, -((j % 5) as f64) - 1.0);
    }
    for i in 0..n {
        let terms: Vec<_> = (0..n)
            .map(|j| (VarId(j), (((i * 3 + j) % 4) + 1) as f64))
            .collect();
        lp.add_le(&terms, 50.0);
    }
    let mut s = Simplex::new(&lp);
    s.set_iteration_limit(1);
    let status = s.solve();
    assert!(matches!(status, LpStatus::IterationLimit), "{status:?}");
}

/// Flat-face LPs (mostly zero costs — the TVNEP regime): the reported
/// optimum must satisfy KKT with the *true* costs despite perturbed
/// pricing. Deterministic random sweep (splitmix64 per case).
#[test]
fn flat_face_lps_exact() {
    for case in 0..64u64 {
        let mut seed = 0x0f1a_7000 + case;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let n = 2 + (unit() * 8.0) as usize;
        let m = 1 + (unit() * 5.0) as usize;
        let which_cost = (unit() * 10.0) as usize % n;
        let mut lp = LpProblem::new();
        for j in 0..n {
            let c = if j == which_cost { -1.0 } else { 0.0 };
            lp.add_var(0.0, 2.0, c);
        }
        for _ in 0..m {
            let terms: Vec<_> = (0..n).map(|j| (VarId(j), 0.5 + 1.5 * unit())).collect();
            lp.add_le(&terms, 1.0 + 5.0 * unit());
        }
        let mut s = Simplex::new(&lp);
        let status = s.solve();
        assert_eq!(status, LpStatus::Optimal, "case {case}");
        assert!(
            s.kkt_violation() < 1e-5,
            "case {case}: kkt {}",
            s.kkt_violation()
        );
    }
}

/// Calls booked under the `lp.factor` spans recorded so far.
fn factor_span_calls(t: &Telemetry) -> usize {
    t.spans()
        .iter()
        .filter(|span| span.name == "lp.factor")
        .flat_map(|span| &span.args)
        .filter(|(key, _)| *key == "calls")
        .map(|&(_, calls)| calls as usize)
        .sum()
}

/// Every factorization is timed inside a solve's span: the slack basis that
/// `Simplex::new` installs is factorized by the first solve, not by the
/// constructor, and no second span repeats `lp.factor`.
#[test]
fn every_factorization_is_booked_under_lp_factor() {
    let n = 40;
    let mut lp = LpProblem::new();
    for j in 0..n {
        lp.add_var(0.0, 1.0, -((j % 7) as f64) - 1.0);
    }
    for i in 0..n {
        let terms: Vec<_> = (0..n)
            .map(|j| (VarId(j), (((i * j) % 5) + 1) as f64))
            .collect();
        lp.add_le(&terms, 10.0);
    }
    let mut s = Simplex::new(&lp);
    let t = Telemetry::with_spans();
    s.set_telemetry(t.clone());
    assert_eq!(s.solve(), LpStatus::Optimal);
    assert!(s.stats.refactorizations() >= 2);
    assert_eq!(factor_span_calls(&t), s.stats.refactorizations());
    s.set_var_bounds(0, 0.0, 0.0);
    assert_eq!(s.solve_warm(), LpStatus::Optimal);
    assert_eq!(factor_span_calls(&t), s.stats.refactorizations());
    assert!(t.spans().iter().all(|span| span.name != "lp.refactorize"));
}
