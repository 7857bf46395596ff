//! Parallel branch-and-bound: equivalence with the sequential solver,
//! enumeration cross-checks, and merged-telemetry accounting.

use std::time::Duration;
use tvnep_mip::{solve_with, MipModel, MipOptions, MipStatus, VarId};

/// Tiny deterministic generator (splitmix64) for the randomized sweeps.
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
fn random_binary_programs_parallel_match_enumeration() {
    for &threads in &[2usize, 4] {
        for case in 0..64u64 {
            let mut rng = TestRng::new(0xba12_0000 + case);
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
            let r = solve_with(
                &m,
                &MipOptions {
                    threads,
                    ..Default::default()
                },
            );

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
                None => assert_eq!(r.status, MipStatus::Infeasible, "case {case} t{threads}"),
                Some(b) => {
                    assert_eq!(r.status, MipStatus::Optimal, "case {case} t{threads}");
                    let got = r.objective.unwrap();
                    assert!(
                        (got - b).abs() < 1e-6,
                        "case {case} t{threads}: bnb {got} vs brute {b}"
                    );
                    let x = r.x.unwrap();
                    assert!(m.max_violation(&x) < 1e-6, "case {case} t{threads}");
                    assert!(
                        m.max_integrality_violation(&x) < 1e-6,
                        "case {case} t{threads}"
                    );
                }
            }
        }
    }
}

/// `threads = 1` and `threads = 4` must agree on status and incumbent
/// objective for every instance (the search order differs; the optimum does
/// not).
#[test]
fn parallel_matches_sequential_status_and_objective() {
    for case in 0..48u64 {
        let mut rng = TestRng::new(0x5e94_0000u64.wrapping_add(case));
        let n = 4 + rng.below(6);
        let mut m = MipModel::maximize();
        let vars: Vec<VarId> = (0..n).map(|_| m.add_binary(rng.range(1.0, 10.0))).collect();
        for _ in 0..2 {
            let terms: Vec<_> = vars.iter().map(|&v| (v, rng.range(1.0, 5.0))).collect();
            m.add_le(&terms, rng.range(5.0, 15.0));
        }
        let seq = solve_with(
            &m,
            &MipOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let par = solve_with(
            &m,
            &MipOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq.status, par.status, "case {case}");
        match (seq.objective, par.objective) {
            (Some(a), Some(b)) => {
                assert!((a - b).abs() < 1e-6, "case {case}: seq {a} vs par {b}")
            }
            (None, None) => {}
            other => panic!("case {case}: objective mismatch {other:?}"),
        }
    }
}

/// The merged per-worker telemetry must account for exactly the quantities
/// the result reports, regardless of thread count.
#[test]
fn parallel_telemetry_merges_per_worker_counters() {
    use tvnep_telemetry::Telemetry;
    let values = [41.0, 50.0, 49.0, 59.0, 45.0, 47.0, 42.0, 44.0, 52.0];
    let weights = [7.0, 8.0, 9.0, 10.0, 6.0, 7.0, 8.0, 5.0, 9.0];
    let mut m = MipModel::maximize();
    let vars: Vec<VarId> = values.iter().map(|&v| m.add_binary(v)).collect();
    let terms: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
    m.add_le(&terms, 25.0);

    let telemetry = Telemetry::metrics_only();
    let r = solve_with(
        &m,
        &MipOptions {
            threads: 4,
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    assert_eq!(r.status, MipStatus::Optimal);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("mip.nodes"), r.nodes);
    assert_eq!(snap.counter("lp.iterations"), r.lp_iterations as u64);
    // Per-worker LP engines each count their solves; the merge must have
    // collected at least one per processed node.
    assert!(snap.counter("lp.solves") >= r.nodes);
    assert!(snap.counter("lp.solves") >= snap.counter("lp.warm_calls"));
    // One record per worker: every total is the sum of its parts.
    let causes: u64 = ["scheduled", "instability", "singular_recovery"]
        .iter()
        .map(|c| snap.counter(&format!("lp.health.refactor_{c}")))
        .sum();
    assert_eq!(snap.counter("lp.refactorizations"), causes);
    assert_eq!(
        snap.counter("lp.iterations"),
        snap.counter("lp.dual_iters") + snap.counter("lp.primal_iters")
    );
    assert_eq!(snap.gauge("lp.health.verdict"), Some(0.0));
    assert!(snap.counter("mip.incumbents") >= 1);
    assert_eq!(snap.gauge("mip.threads"), Some(4.0));
}

#[test]
fn parallel_respects_cutoff_semantics() {
    // Optimal objective is 20 (see bnb.rs knapsack_small); a cutoff above it
    // finds nothing better and reports NoBetterThanCutoff.
    let mut m = MipModel::maximize();
    let a = m.add_binary(10.0);
    let b = m.add_binary(13.0);
    let c = m.add_binary(7.0);
    m.add_le(&[(a, 3.0), (b, 4.0), (c, 2.0)], 6.0);
    let r = solve_with(
        &m,
        &MipOptions {
            threads: 4,
            cutoff: Some(20.0),
            ..Default::default()
        },
    );
    assert_eq!(r.status, MipStatus::NoBetterThanCutoff);
    // A cutoff below the optimum must still find the optimum.
    let r2 = solve_with(
        &m,
        &MipOptions {
            threads: 4,
            cutoff: Some(17.0),
            ..Default::default()
        },
    );
    assert_eq!(r2.status, MipStatus::Optimal);
    assert!((r2.objective.unwrap() - 20.0).abs() < 1e-6);
}

#[test]
fn parallel_time_limit_zero_terminates() {
    let mut m = MipModel::maximize();
    let x = m.add_binary(1.0);
    m.add_le(&[(x, 1.0)], 1.0);
    let r = solve_with(
        &m,
        &MipOptions {
            threads: 4,
            time_limit: Some(Duration::from_secs(0)),
            ..Default::default()
        },
    );
    assert!(matches!(
        r.status,
        MipStatus::NoSolution | MipStatus::Feasible
    ));
}

#[test]
fn parallel_infeasible_and_unbounded() {
    let mut m = MipModel::minimize();
    let x = m.add_binary(1.0);
    m.add_ge(&[(x, 1.0)], 2.0);
    let r = solve_with(
        &m,
        &MipOptions {
            threads: 2,
            ..Default::default()
        },
    );
    assert_eq!(r.status, MipStatus::Infeasible);

    let mut m2 = MipModel::maximize();
    let _ = m2.add_integer(0.0, tvnep_mip::INF, 1.0);
    let r2 = solve_with(
        &m2,
        &MipOptions {
            threads: 2,
            ..Default::default()
        },
    );
    assert_eq!(r2.status, MipStatus::Unbounded);
}

#[test]
fn effective_threads_resolves_zero_to_parallelism() {
    let opts = MipOptions {
        threads: 0,
        ..Default::default()
    };
    assert!(opts.effective_threads() >= 1);
    let opts1 = MipOptions::default();
    assert_eq!(opts1.effective_threads(), 1);
}
