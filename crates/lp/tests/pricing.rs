//! Partial (candidate-list) pricing must still certify its optima: the
//! window only changes which improving column enters first, never the
//! termination condition (optimality still requires a full scan that prices
//! out every column).

use tvnep_lp::{solve, LpProblem, LpStatus, Simplex, INF};

/// Tiny deterministic generator (splitmix64); each case index derives an
/// independent stream so failures reproduce from the printed case number.
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

/// A bounded-feasible LP built around a known interior point, wide enough
/// (many columns) that the pricing window is a strict subset of the columns.
fn random_wide_lp(rng: &mut TestRng) -> LpProblem {
    let n = 20 + rng.below(60);
    let m = 2 + rng.below(8);
    let x0: Vec<f64> = (0..n).map(|_| rng.range(-3.0, 3.0)).collect();
    let slack = rng.range(0.5, 3.0);
    let mut lp = LpProblem::new();
    for &v in &x0 {
        lp.add_var(v - 1.0, v + 1.0 + slack, rng.range(-2.0, 2.0));
    }
    for _ in 0..m {
        let terms: Vec<_> = (0..n)
            .map(|j| (tvnep_lp::VarId(j), rng.range(-2.0, 2.0)))
            .collect();
        let act: f64 = terms.iter().map(|&(v, c)| c * x0[v.0]).sum();
        lp.add_row(act - slack - 1.0, act + 0.5, &terms);
    }
    lp
}

#[test]
fn partial_pricing_optimum_is_kkt_certified() {
    let mut windowed_entries = 0usize;
    for case in 0..96u64 {
        let mut rng = TestRng::new(0x9a1c_8000 + case);
        let lp = random_wide_lp(&mut rng);
        let mut s = Simplex::new(&lp);
        let status = s.solve();
        assert_eq!(status, LpStatus::Optimal, "case {case}");
        let sol = s.extract(status);
        assert!(lp.max_violation(&sol.x) < 1e-6, "case {case}");
        assert!(
            s.kkt_violation() < 1e-5,
            "case {case}: KKT violation {} — the window terminated early",
            s.kkt_violation()
        );
        // Every pricing round is classified as a window hit or a full scan.
        assert!(
            s.stats.pricing_window_hits + s.stats.pricing_full_scans > 0,
            "case {case}: the solve recorded no pricing rounds"
        );
        windowed_entries += s.stats.pricing_window_hits;
    }
    // The sweep is wide enough that the short-circuit path must actually
    // trigger somewhere; otherwise the window is dead code.
    assert!(
        windowed_entries > 0,
        "no case ever priced out within the window"
    );
}

#[test]
fn partial_pricing_agrees_on_unbounded_and_infeasible() {
    // Unbounded: a free improving ray must still be found past the window.
    let mut lp = LpProblem::new();
    for _ in 0..80 {
        lp.add_var(0.0, 1.0, 1.0);
    }
    let x = lp.add_var(0.0, INF, -1.0);
    lp.add_ge(&[(x, 1.0)], 1.0);
    assert_eq!(solve(&lp).status, LpStatus::Unbounded);

    // Infeasible: phase 1 under partial pricing must still prove it.
    let mut lp2 = LpProblem::new();
    for _ in 0..80 {
        lp2.add_var(0.0, 1.0, 0.0);
    }
    let y = lp2.add_var(0.0, 1.0, 0.0);
    lp2.add_ge(&[(y, 1.0)], 2.0);
    assert_eq!(solve(&lp2).status, LpStatus::Infeasible);
}
