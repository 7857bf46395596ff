//! Numerical-health integration tests: well-conditioned solves must report
//! `Stable`, a crafted near-singular basis must not, and the refactorization
//! total in `SolveStats`, its flight-recorder events and its flushed metric
//! must agree with each other and with the flushed causes.

use tvnep_lp::{solve, HealthVerdict, LpProblem, LpStatus, Simplex, INF};
use tvnep_telemetry::{FlightRecorder, Telemetry};

/// A small, well-conditioned LP: max 3x + 2y subject to two ≤ rows.
fn clean_lp() -> LpProblem {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, INF, -3.0);
    let y = lp.add_var(0.0, INF, -2.0);
    lp.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
    lp.add_le(&[(x, 1.0), (y, 3.0)], 6.0);
    lp
}

/// Two almost linearly dependent equality rows whose unique solution
/// `x = y = 0.01/ε` forces *both* structural variables basic: the final
/// basis is `B = [[1, 1], [1, 1 + ε]]` whose inverse has entries of order
/// `1/ε`. A solution using only one structural variable misses one row by
/// `ε·x* = ε·y* = 0.01` — far above the feasibility tolerance — so the
/// simplex cannot dodge the ill-conditioned basis. `ε` must stay above
/// `OPT_TOL` (1e-7): the reduced cost of the second entering variable is
/// `≈ −ε`, and pricing rejects anything smaller.
fn near_singular_lp(eps: f64) -> LpProblem {
    let v_star = 1e-2 / eps; // intended x = y = v*
    let b1 = 2.0 * v_star;
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, INF, 1.0);
    let y = lp.add_var(0.0, INF, 1.0);
    lp.add_eq(&[(x, 1.0), (y, 1.0)], b1);
    lp.add_eq(&[(x, 1.0), (y, 1.0 + eps)], b1 + eps * v_star);
    lp
}

#[test]
fn clean_solve_stays_stable_with_sampling_on() {
    let lp = clean_lp();
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    let r = s.stats;
    assert_eq!(r.verdict(), HealthVerdict::Stable, "stats: {r:?}");
    let residual = s.basis_residual();
    assert!(residual < 1e-8, "basis residual {residual}");
    assert_eq!(r.singular_bases, 0);
    assert_eq!(r.refactor_instability, 0);
    assert_eq!(r.bland_episodes, 0);
}

#[test]
fn near_singular_basis_is_flagged() {
    // ε = 1e-6 puts the eta growth at ≈ 1e6, the suspect threshold, while
    // the second entering variable's reduced cost (≈ −ε) still clears
    // OPT_TOL.
    let lp = near_singular_lp(1e-6);
    let mut s = Simplex::new(&lp);
    let status = s.solve();
    let r = s.stats;
    assert_ne!(
        r.verdict(),
        HealthVerdict::Stable,
        "ill-conditioned basis must not report Stable (status {status:?}, stats {r:?})"
    );
    assert!(
        r.growth_factor >= 1e6,
        "expected a conditioning signal: {r:?}"
    );
}

#[test]
fn moderately_conditioned_lp_is_not_unstable() {
    // ε = 1e-3 gives an eta growth of ≈ 1e3: well inside the stable range.
    let lp = near_singular_lp(1e-3);
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    assert_eq!(s.stats.verdict(), HealthVerdict::Stable);
}

#[test]
fn degenerate_conditioning_stays_stable_without_the_bad_basis() {
    // Same rows but a right-hand side whose solution (x = 1, y = 0) never
    // needs both crafted columns basic: the verdict should stay Stable.
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, INF, 1.0);
    let y = lp.add_var(0.0, INF, 1.0);
    lp.add_eq(&[(x, 1.0), (y, 1.0)], 1.0);
    lp.add_eq(&[(x, 1.0), (y, 1.0 + 1e-3)], 1.0);
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    assert_eq!(s.stats.verdict(), HealthVerdict::Stable);
}

#[test]
fn refactorization_counter_is_single_sourced() {
    let lp = clean_lp();
    let mut s = Simplex::new(&lp);
    let rec = FlightRecorder::new(1024);
    s.set_blackbox(Some(rec.handle(0)));
    assert_eq!(s.solve(), LpStatus::Optimal);
    let total = s.stats.refactorizations();
    assert!(total > 0);
    // Each factorization attempt is one `refactor` event; the successful
    // ones are the record's total, and the last event carries that total.
    let dump = rec.dump("test", "Clean", "single-sourced refactorizations");
    let workers = dump.get("workers").and_then(|w| w.as_array()).unwrap();
    let refactors: Vec<u64> = workers[0]
        .get("events")
        .and_then(|e| e.as_array())
        .unwrap()
        .iter()
        .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("refactor"))
        .map(|e| e.get("b").and_then(|b| b.as_u64()).unwrap())
        .collect();
    assert_eq!(refactors.len(), total + s.stats.singular_bases);
    assert_eq!(refactors.last().copied(), Some(total as u64));
    let t = Telemetry::metrics_only();
    s.stats.flush_into(&t);
    assert_eq!(t.snapshot().counter("lp.refactorizations"), total as u64);
}

#[test]
fn sampling_off_skips_expensive_checks_but_keeps_cheap_signals() {
    let lp = clean_lp();
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    let r = s.stats;
    assert!(r.refactorizations() > 0, "cause counters are always on");
    assert!(r.max_pivot > 0.0, "pivot extremes are always on");
    assert_eq!(r.verdict(), HealthVerdict::Stable);
}

#[test]
fn health_metrics_flush_under_lp_prefix() {
    let lp = clean_lp();
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    let t = Telemetry::metrics_only();
    s.stats.flush_into(&t);
    let snap = t.snapshot();
    assert!(snap.counter("lp.health.refactor_scheduled") > 0);
    assert_eq!(snap.gauge("lp.health.verdict"), Some(0.0));
    // The total is the sum of the causes, each counted once.
    let causes: u64 = ["scheduled", "instability", "singular_recovery"]
        .iter()
        .map(|c| snap.counter(&format!("lp.health.refactor_{c}")))
        .sum();
    assert_eq!(snap.counter("lp.refactorizations"), causes);
    assert_eq!(
        snap.counter("lp.refactorizations"),
        s.stats.refactorizations() as u64
    );
}

#[test]
fn one_shot_solver_is_unaffected_by_monitoring() {
    let sol = solve(&clean_lp());
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - (-12.0)).abs() < 1e-6);
}

/// A dense-ish random LP large enough that the simplex performs dozens of
/// pivots, so the eta file actually accumulates fill between
/// refactorizations. Built around a known interior point so it is always
/// bounded and feasible.
fn pivot_heavy_lp(seed: u64) -> LpProblem {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let (n, m) = (60, 30);
    let x0: Vec<f64> = (0..n).map(|_| 6.0 * next() - 3.0).collect();
    let mut lp = LpProblem::new();
    for &v in &x0 {
        let c = 4.0 * next() - 2.0;
        lp.add_var(v - 1.0, v + 2.0, c);
    }
    for _ in 0..m {
        let terms: Vec<_> = (0..n)
            .filter_map(|j| {
                let keep = next() < 0.4;
                keep.then(|| (tvnep_lp::VarId(j), 4.0 * next() - 2.0))
            })
            .collect();
        if terms.is_empty() {
            continue;
        }
        let act: f64 = terms.iter().map(|&(v, c)| c * x0[v.0]).sum();
        lp.add_row(act - 2.0, act + 0.5, &terms);
    }
    lp
}

/// The eta-file fill budget (8·m off-pivot nonzeros) must fire: the
/// 150-pivot schedule alone allows about two refactorizations here, while
/// the dense spikes of this LP fill the file within a few pivots. The
/// early rebuilds must leave the optimum KKT-certified and the verdict
/// Stable.
#[test]
fn eta_fill_budget_forces_early_refactorizations() {
    let lp = pivot_heavy_lp(7);
    let mut s = Simplex::new(&lp);
    assert_eq!(s.solve(), LpStatus::Optimal);
    let iters = s.stats.iterations();
    let refactors = s.stats.refactorizations();
    assert!(
        iters > 20,
        "LP too easy to exercise the eta file ({iters} iters)"
    );
    assert!(
        refactors > 2 * (iters / 150 + 2),
        "{refactors} refactorizations in {iters} iterations — the fill budget never fired"
    );
    let kkt = s.kkt_violation();
    assert!(kkt < 1e-9, "KKT violation {kkt}");
    let r = s.stats;
    assert_eq!(r.verdict(), HealthVerdict::Stable, "stats: {r:?}");
}
