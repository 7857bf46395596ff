//! Branch-and-bound integration tests: knapsacks, assignment, infeasibility,
//! limits, and exhaustive cross-checks on random small integer programs.

use std::time::Duration;
use tvnep_mip::{solve, solve_with, MipModel, MipOptions, MipStatus, VarId};

/// Tiny deterministic generator (splitmix64) for the randomized sweeps; each
/// case index derives an independent stream.
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
    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[test]
fn knapsack_small() {
    // max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> a + c = 17? check:
    // items (v,w): a(10,3) b(13,4) c(7,2). Capacity 6. Best: a+c (w5, v17)
    // vs b+c (w6, v20). Optimal 20.
    let mut m = MipModel::maximize();
    let a = m.add_binary(10.0);
    let b = m.add_binary(13.0);
    let c = m.add_binary(7.0);
    m.add_le(&[(a, 3.0), (b, 4.0), (c, 2.0)], 6.0);
    let r = solve(&m);
    assert_eq!(r.status, MipStatus::Optimal);
    assert!((r.objective.unwrap() - 20.0).abs() < 1e-6);
    let x = r.x.unwrap();
    assert!(x[0] < 0.5 && x[1] > 0.5 && x[2] > 0.5);
}

#[test]
fn knapsack_11_items() {
    let values = [
        41.0, 50.0, 49.0, 59.0, 45.0, 47.0, 42.0, 44.0, 52.0, 48.0, 51.0,
    ];
    let weights = [7.0, 8.0, 9.0, 10.0, 6.0, 7.0, 8.0, 5.0, 9.0, 6.0, 7.0];
    let cap = 30.0;
    let mut m = MipModel::maximize();
    let vars: Vec<VarId> = values.iter().map(|&v| m.add_binary(v)).collect();
    let terms: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
    m.add_le(&terms, cap);
    let r = solve(&m);
    assert_eq!(r.status, MipStatus::Optimal);
    // Exhaustive check (2^11 subsets).
    let mut best = 0.0f64;
    for mask in 0u32..(1 << 11) {
        let w: f64 = (0..11)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| weights[i])
            .sum();
        if w <= cap {
            let v: f64 = (0..11)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| values[i])
                .sum();
            best = best.max(v);
        }
    }
    assert!(
        (r.objective.unwrap() - best).abs() < 1e-6,
        "bnb {} vs brute {best}",
        r.objective.unwrap()
    );
}

#[test]
fn integer_infeasible_but_lp_feasible() {
    // 2x = 1 with x integer: LP relaxation feasible (x=0.5), IP infeasible.
    let mut m = MipModel::minimize();
    let x = m.add_integer(0.0, 10.0, 1.0);
    m.add_eq(&[(x, 2.0)], 1.0);
    assert_eq!(solve(&m).status, MipStatus::Infeasible);
}

#[test]
fn lp_infeasible_detected() {
    let mut m = MipModel::minimize();
    let x = m.add_binary(1.0);
    m.add_ge(&[(x, 1.0)], 2.0);
    assert_eq!(solve(&m).status, MipStatus::Infeasible);
}

/// The root's dual solve finds `x` dual infeasible with an infinite upper
/// bound, which no bound flip can repair: that is the root's one way into
/// the primal phases, and they prove the ray.
#[test]
fn unbounded_detected() {
    use tvnep_telemetry::Telemetry;

    let mut m = MipModel::maximize();
    let x = m.add_integer(0.0, tvnep_mip::INF, 1.0);
    let _ = x;
    let telemetry = Telemetry::metrics_only();
    let opts = MipOptions {
        telemetry: telemetry.clone(),
        ..MipOptions::default()
    };
    assert_eq!(solve_with(&m, &opts).status, MipStatus::Unbounded);
    assert_eq!(telemetry.snapshot().counter("lp.dual_fallbacks"), 1);
}

#[test]
fn pure_lp_passthrough() {
    // No integer variables: solver must return the LP optimum at the root.
    let mut m = MipModel::maximize();
    let x = m.add_continuous(0.0, 4.0, 1.0);
    let y = m.add_continuous(0.0, 4.0, 1.0);
    m.add_le(&[(x, 1.0), (y, 1.0)], 5.0);
    let r = solve(&m);
    assert_eq!(r.status, MipStatus::Optimal);
    assert!((r.objective.unwrap() - 5.0).abs() < 1e-6);
    assert_eq!(r.nodes, 1);
}

#[test]
fn equality_sos_like_choice() {
    // Exactly one of three options, costs 3/1/2 -> pick the 1.
    let mut m = MipModel::minimize();
    let a = m.add_binary(3.0);
    let b = m.add_binary(1.0);
    let c = m.add_binary(2.0);
    m.add_eq(&[(a, 1.0), (b, 1.0), (c, 1.0)], 1.0);
    let r = solve(&m);
    assert!((r.objective.unwrap() - 1.0).abs() < 1e-9);
    assert!(r.x.unwrap()[1] > 0.5);
}

#[test]
fn node_limit_reports_feasible_or_nosolution() {
    let mut m = MipModel::maximize();
    // A knapsack big enough to need several nodes.
    let vars: Vec<VarId> = (0..12)
        .map(|i| m.add_binary(10.0 + (i as f64 * 7.0) % 5.0))
        .collect();
    let terms: Vec<_> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, 3.0 + (i as f64 * 11.0) % 7.0))
        .collect();
    m.add_le(&terms, 20.0);
    let opts = MipOptions {
        node_limit: Some(1),
        ..Default::default()
    };
    let r = solve_with(&m, &opts);
    assert!(matches!(
        r.status,
        MipStatus::Feasible | MipStatus::NoSolution | MipStatus::Optimal
    ));
    assert!(r.nodes <= 2);
}

#[test]
fn time_limit_zero_terminates_immediately() {
    let mut m = MipModel::maximize();
    let x = m.add_binary(1.0);
    m.add_le(&[(x, 1.0)], 1.0);
    let opts = MipOptions::with_time_limit(Duration::from_secs(0));
    let r = solve_with(&m, &opts);
    assert!(matches!(
        r.status,
        MipStatus::NoSolution | MipStatus::Feasible
    ));
    assert!(r.gap_or_inf().is_infinite() || r.gap.is_some());
}

#[test]
fn gap_zero_at_optimality() {
    let mut m = MipModel::maximize();
    let x = m.add_binary(2.0);
    let y = m.add_binary(3.0);
    m.add_le(&[(x, 1.0), (y, 1.0)], 1.0);
    let r = solve(&m);
    assert_eq!(r.status, MipStatus::Optimal);
    assert!(r.gap.unwrap() < 1e-6);
    assert!((r.best_bound - 3.0).abs() < 1e-5);
}

#[test]
fn maximize_and_minimize_agree() {
    // min c'x == -max (-c)'x on the same feasible set.
    let mut mn = MipModel::minimize();
    let mut mx = MipModel::maximize();
    for _ in 0..4 {
        mn.add_binary(0.0);
        mx.add_binary(0.0);
    }
    let costs = [3.0, -2.0, 5.0, -1.0];
    for (j, &c) in costs.iter().enumerate() {
        mn.set_obj(VarId(j), c);
        mx.set_obj(VarId(j), -c);
    }
    let cover: Vec<_> = (0..4).map(|j| (VarId(j), 1.0)).collect();
    mn.add_ge(&cover, 2.0);
    mx.add_ge(&cover, 2.0);
    let rn = solve(&mn);
    let rx = solve(&mx);
    assert!((rn.objective.unwrap() + rx.objective.unwrap()).abs() < 1e-9);
}

/// A two-row, ten-binary knapsack: its optimum must equal the best of all
/// 1,024 points.
#[test]
fn two_row_knapsack_matches_enumeration() {
    let values: Vec<f64> = (0..10).map(|i| ((i * 37) % 11 + 1) as f64).collect();
    let w1: Vec<f64> = (0..10).map(|i| ((i * 13) % 5 + 1) as f64).collect();
    let w2: Vec<f64> = (0..10).map(|i| ((i * 7) % 4 + 1) as f64).collect();
    let mut m = MipModel::maximize();
    let vars: Vec<VarId> = values.iter().map(|&v| m.add_binary(v)).collect();
    let row =
        |w: &[f64]| -> Vec<(VarId, f64)> { vars.iter().copied().zip(w.iter().copied()).collect() };
    m.add_le(&row(&w1), 12.0);
    m.add_le(&row(&w2), 9.0);
    let r = solve(&m);
    assert_eq!(r.status, MipStatus::Optimal);
    let mut best = 0.0f64;
    for mask in 0u32..(1 << 10) {
        let sum = |c: &[f64]| -> f64 { (0..10).filter(|i| mask >> i & 1 == 1).map(|i| c[i]).sum() };
        if sum(&w1) <= 12.0 && sum(&w2) <= 9.0 {
            best = best.max(sum(&values));
        }
    }
    assert!(
        (r.objective.unwrap() - best).abs() < 1e-6,
        "bnb {} vs brute {best}",
        r.objective.unwrap()
    );
}

#[test]
fn general_integers_not_just_binaries() {
    // max x + y st 2x + y <= 7, x + 3y <= 9, x,y in [0,5] integer.
    let mut m = MipModel::maximize();
    let x = m.add_integer(0.0, 5.0, 1.0);
    let y = m.add_integer(0.0, 5.0, 1.0);
    m.add_le(&[(x, 2.0), (y, 1.0)], 7.0);
    m.add_le(&[(x, 1.0), (y, 3.0)], 9.0);
    let r = solve(&m);
    assert_eq!(r.status, MipStatus::Optimal);
    // Enumerate.
    let mut best = 0i64;
    for xi in 0..=5i64 {
        for yi in 0..=5i64 {
            if 2 * xi + yi <= 7 && xi + 3 * yi <= 9 {
                best = best.max(xi + yi);
            }
        }
    }
    assert_eq!(r.objective.unwrap().round() as i64, best);
}

#[test]
fn fixed_integer_vars_respected() {
    let mut m = MipModel::maximize();
    let x = m.add_binary(5.0);
    let y = m.add_binary(3.0);
    m.fix_var(x, 0.0);
    m.add_le(&[(x, 1.0), (y, 1.0)], 2.0);
    let r = solve(&m);
    assert!((r.objective.unwrap() - 3.0).abs() < 1e-9);
    assert!(r.x.unwrap()[0] < 1e-9);
}

/// Random small binary programs: branch and bound must match exhaustive
/// enumeration exactly (both value and feasibility verdict). Each feasible
/// case is solved again under cutoffs, which put reduced-cost fixing to work
/// from the root: 0.5 and 1e-4 worse than the optimum must still find it,
/// and the optimum itself must leave nothing better.
#[test]
fn random_binary_programs_match_enumeration() {
    let telemetry = tvnep_telemetry::Telemetry::metrics_only();
    for case in 0..128u64 {
        let mut rng = TestRng::new(0xb1b0_0000 + case);
        let n = 1 + rng.below(6);
        let m_rows = rng.below(5);
        let costs: Vec<f64> = (0..n).map(|_| rng.range(-5.0, 5.0)).collect();
        let coeffs: Vec<Vec<f64>> = (0..m_rows)
            .map(|_| (0..n).map(|_| rng.range(-4.0, 4.0)).collect())
            .collect();
        let rhss: Vec<f64> = (0..m_rows).map(|_| rng.range(-3.0, 6.0)).collect();
        let maximize = rng.bool();
        let mut m = if maximize {
            MipModel::maximize()
        } else {
            MipModel::minimize()
        };
        let vars: Vec<VarId> = (0..n).map(|j| m.add_binary(costs[j])).collect();
        for i in 0..m_rows {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(j, &v)| (v, coeffs[i][j]))
                .collect();
            m.add_le(&terms, rhss[i]);
        }
        let r = solve(&m);

        // Enumerate all 2^n assignments.
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
            let mut feasible = true;
            for i in 0..m_rows {
                let act: f64 = (0..n).map(|j| coeffs[i][j] * x[j]).sum();
                if act > rhss[i] + 1e-9 {
                    feasible = false;
                    break;
                }
            }
            if feasible {
                let obj: f64 = (0..n).map(|j| costs[j] * x[j]).sum();
                best = Some(match best {
                    None => obj,
                    Some(b) => {
                        if maximize {
                            b.max(obj)
                        } else {
                            b.min(obj)
                        }
                    }
                });
            }
        }
        match best {
            None => assert_eq!(r.status, MipStatus::Infeasible, "case {case}"),
            Some(b) => {
                assert_eq!(r.status, MipStatus::Optimal, "case {case}");
                let got = r.objective.unwrap();
                assert!(
                    (got - b).abs() < 1e-6,
                    "case {case}: bnb {got} vs brute {b}"
                );
                // Incumbent must be feasible and integral.
                let x = r.x.unwrap();
                assert!(m.max_violation(&x) < 1e-6, "case {case}");
                assert!(m.max_integrality_violation(&x) < 1e-6, "case {case}");

                let under = |cutoff: f64| {
                    let opts = MipOptions {
                        cutoff: Some(cutoff),
                        telemetry: telemetry.clone(),
                        ..Default::default()
                    };
                    solve_with(&m, &opts)
                };
                for margin in [0.5, 1e-4] {
                    let worse = if maximize { b - margin } else { b + margin };
                    let r = under(worse);
                    assert_eq!(r.status, MipStatus::Optimal, "case {case}, cutoff {worse}");
                    let got = r.objective.unwrap();
                    assert!(
                        (got - b).abs() < 1e-6,
                        "case {case}, cutoff {worse}: bnb {got} vs brute {b}"
                    );
                }
                assert_eq!(
                    under(b).status,
                    MipStatus::NoBetterThanCutoff,
                    "case {case}, cutoff {b}"
                );
            }
        }
    }
    assert!(telemetry.snapshot().counter("mip.rc_fixings") > 0);
}

/// Mixed problems: integer vars plus continuous vars; spot-check against a
/// partial enumeration (enumerate integers, solve the continuous rest as
/// an LP).
#[test]
fn random_mixed_programs_match_seminumeration() {
    for case in 0..128u64 {
        let mut rng = TestRng::new(0x3ed0_0000 + case);
        let nb = 1 + rng.below(4);
        let costs: Vec<f64> = (0..nb).map(|_| rng.range(-3.0, 3.0)).collect();
        let ccost = rng.range(-3.0, 3.0);
        let coeffs: Vec<f64> = (0..nb).map(|_| rng.range(0.1, 3.0)).collect();
        let ccoef = rng.range(0.1, 3.0);
        let rhs = rng.range(1.0, 8.0);
        // max costs'b + ccost*z st coeffs'b + ccoef*z <= rhs, 0<=z<=2, b binary.
        let mut m = MipModel::maximize();
        let bs: Vec<VarId> = (0..nb).map(|j| m.add_binary(costs[j])).collect();
        let z = m.add_continuous(0.0, 2.0, ccost);
        let mut terms: Vec<_> = bs
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, coeffs[j]))
            .collect();
        terms.push((z, ccoef));
        m.add_le(&terms, rhs);
        let r = solve(&m);
        assert_eq!(r.status, MipStatus::Optimal, "case {case}");

        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << nb) {
            let used: f64 = (0..nb)
                .filter(|j| mask >> j & 1 == 1)
                .map(|j| coeffs[j])
                .sum();
            if used > rhs + 1e-12 {
                continue;
            }
            let bval: f64 = (0..nb)
                .filter(|j| mask >> j & 1 == 1)
                .map(|j| costs[j])
                .sum();
            // Continuous part: z in [0, min(2, (rhs-used)/ccoef)], pick by sign.
            let zmax = 2.0f64.min((rhs - used) / ccoef);
            let zbest = if ccost > 0.0 { zmax } else { 0.0 };
            best = best.max(bval + ccost * zbest);
        }
        assert!(
            (r.objective.unwrap() - best).abs() < 1e-5,
            "case {case}: bnb {} vs semi-enum {best}",
            r.objective.unwrap()
        );
    }
}

/// Every LP of the search runs the dual simplex: the root from the
/// all-slack basis, every queued node from its parent's basis. A start whose
/// boxed variables rest at the wrong bound is repaired by bound flips, so no
/// solve falls back to the primal phases — at one thread and when a worker
/// pops a node another branched. The cell is the campaign's cΣ tiny / seed
/// 1 / +2 h cell.
#[test]
fn csigma_node_warm_starts_never_fall_back_to_primal() {
    use tvnep_core::{build_model, BuildOptions, Formulation, Objective};
    use tvnep_telemetry::Telemetry;
    use tvnep_workloads::{generate, WorkloadConfig};

    let inst = generate(&WorkloadConfig::tiny(), 1).with_flexibility_after(2.0);
    let built = build_model(
        &inst,
        Formulation::CSigma,
        Objective::AccessControl,
        BuildOptions::default_for(Formulation::CSigma),
    );
    for threads in [1, 2] {
        let telemetry = Telemetry::metrics_only();
        let opts = MipOptions {
            threads,
            telemetry: telemetry.clone(),
            ..MipOptions::with_time_limit(Duration::from_secs(120))
        };
        let r = solve_with(&built.mip, &opts);
        assert_eq!(r.status, MipStatus::Optimal, "threads {threads}");
        let obj = r.objective.expect("optimal has an objective");
        assert!(
            (obj - 9.516233328673863).abs() < 1e-9,
            "threads {threads}: objective {obj}"
        );
        let snap = telemetry.snapshot();
        assert!(snap.counter("lp.warm_calls") > 0, "threads {threads}");
        assert_eq!(
            snap.counter("lp.dual_fallbacks"),
            0,
            "threads {threads}: warm solves fell back to the primal phases"
        );
        // Every LP of the search, the root included, is a dual solve.
        assert_eq!(
            snap.counter("lp.warm_calls"),
            snap.counter("lp.solves"),
            "threads {threads}: an LP took the primal entry"
        );
        assert_eq!(snap.counter("lp.primal_iters"), 0, "threads {threads}");
        // Every counted node is one LP solve.
        assert_eq!(snap.counter("lp.solves"), r.nodes, "threads {threads}");
    }
}

/// Reduced-cost fixing fires on a deep cΣ proof (`small`, seed 7, +1 h)
/// once the first incumbent exists, and the proof still reaches the
/// optimum with one LP solve per node.
#[test]
fn reduced_cost_fixing_keeps_a_deep_csigma_optimum() {
    use tvnep_core::{build_model, BuildOptions, Formulation, Objective};
    use tvnep_telemetry::Telemetry;
    use tvnep_workloads::{generate, WorkloadConfig};

    let inst = generate(&WorkloadConfig::small(), 7).with_flexibility_after(1.0);
    let built = build_model(
        &inst,
        Formulation::CSigma,
        Objective::AccessControl,
        BuildOptions::default_for(Formulation::CSigma),
    );
    let telemetry = Telemetry::metrics_only();
    let opts = MipOptions {
        telemetry: telemetry.clone(),
        ..MipOptions::with_time_limit(Duration::from_secs(300))
    };
    let r = solve_with(&built.mip, &opts);
    assert_eq!(r.status, MipStatus::Optimal);
    let obj = r.objective.expect("optimal has an objective");
    assert!((obj - 22.802982182306607).abs() < 1e-9, "objective {obj}");
    let snap = telemetry.snapshot();
    assert!(snap.counter("mip.rc_fixings") > 0);
    assert_eq!(snap.counter("lp.solves"), r.nodes, "one LP per node");
}
