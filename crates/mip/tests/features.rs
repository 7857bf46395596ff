//! Tests for branch-and-bound features added for the TVNEP workloads:
//! cutoff seeding, the NoBetterThanCutoff status, and deadline handling
//! inside long LP solves.

use std::time::Duration;
use tvnep_mip::{solve, solve_with, MipModel, MipOptions, MipStatus, VarId};

fn knapsack(n: usize) -> (MipModel, Vec<f64>, Vec<f64>, f64) {
    let values: Vec<f64> = (0..n).map(|i| 10.0 + ((i * 7) % 13) as f64).collect();
    let weights: Vec<f64> = (0..n).map(|i| 3.0 + ((i * 11) % 7) as f64).collect();
    let cap = weights.iter().sum::<f64>() * 0.4;
    let mut m = MipModel::maximize();
    let vars: Vec<VarId> = values.iter().map(|&v| m.add_binary(v)).collect();
    let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
    m.add_le(&terms, cap);
    (m, values, weights, cap)
}

fn brute_force(values: &[f64], weights: &[f64], cap: f64) -> f64 {
    let n = values.len();
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        let w: f64 = (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| weights[i])
            .sum();
        if w <= cap + 1e-9 {
            let v: f64 = (0..n)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| values[i])
                .sum();
            best = best.max(v);
        }
    }
    best
}

#[test]
fn cutoff_below_optimum_still_finds_optimum() {
    let (m, values, weights, cap) = knapsack(12);
    let opt = brute_force(&values, &weights, cap);
    let opts = MipOptions {
        cutoff: Some(opt - 5.0),
        ..Default::default()
    };
    let r = solve_with(&m, &opts);
    assert_eq!(r.status, MipStatus::Optimal);
    assert!((r.objective.unwrap() - opt).abs() < 1e-6);
}

#[test]
fn cutoff_at_optimum_proves_no_better() {
    let (m, values, weights, cap) = knapsack(12);
    let opt = brute_force(&values, &weights, cap);
    // Claim we already hold a solution of exactly the optimal value: the
    // tree must be exhausted without finding anything strictly better.
    let opts = MipOptions {
        cutoff: Some(opt),
        ..Default::default()
    };
    let r = solve_with(&m, &opts);
    assert_eq!(r.status, MipStatus::NoBetterThanCutoff);
    assert!(r.objective.is_none());
    assert!((r.best_bound - opt).abs() < 1e-6);
}

#[test]
fn cutoff_above_optimum_proves_no_better_too() {
    let (m, values, weights, cap) = knapsack(10);
    let opt = brute_force(&values, &weights, cap);
    let opts = MipOptions {
        cutoff: Some(opt + 100.0),
        ..Default::default()
    };
    let r = solve_with(&m, &opts);
    assert_eq!(r.status, MipStatus::NoBetterThanCutoff);
}

#[test]
fn minimize_cutoff_semantics() {
    // min x + y st x + y >= 3, binaries won't fit: use integers.
    let mut m = MipModel::minimize();
    let x = m.add_integer(0.0, 5.0, 1.0);
    let y = m.add_integer(0.0, 5.0, 1.0);
    m.add_ge(&[(x, 1.0), (y, 1.0)], 3.0);
    // Optimal is 3. Cutoff 4 (we hold a solution of cost 4): must find 3.
    let opts = MipOptions {
        cutoff: Some(4.0),
        ..Default::default()
    };
    let r = solve_with(&m, &opts);
    assert_eq!(r.status, MipStatus::Optimal);
    assert!((r.objective.unwrap() - 3.0).abs() < 1e-6);
    // Cutoff 3: nothing strictly better exists.
    let opts = MipOptions {
        cutoff: Some(3.0),
        ..Default::default()
    };
    let r = solve_with(&m, &opts);
    assert_eq!(r.status, MipStatus::NoBetterThanCutoff);
}

#[test]
fn time_limit_honored_within_seconds() {
    // A hard-ish problem: equality-constrained market split style.
    let n = 20;
    let mut m = MipModel::maximize();
    let vars: Vec<VarId> = (0..n).map(|i| m.add_binary(1.0 + (i % 3) as f64)).collect();
    for row in 0..6 {
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((row * 17 + i * 29) % 9 + 1) as f64))
            .collect();
        let total: f64 = terms.iter().map(|&(_, c)| c).sum();
        m.add_eq(&terms, (total / 2.0).floor());
    }
    let t0 = std::time::Instant::now();
    let opts = MipOptions::with_time_limit(Duration::from_secs(2));
    let _ = solve_with(&m, &opts);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "time limit overshot: {:?}",
        t0.elapsed()
    );
}

#[test]
fn deterministic_across_runs() {
    let (m, ..) = knapsack(13);
    let a = solve(&m);
    let b = solve(&m);
    assert_eq!(a.status, b.status);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.objective, b.objective);
}

#[test]
fn gap_reporting_monotone_in_budget() {
    let (m, ..) = knapsack(14);
    let tight = solve_with(
        &m,
        &MipOptions {
            node_limit: Some(3),
            ..Default::default()
        },
    );
    let loose = solve_with(&m, &MipOptions::default());
    assert_eq!(loose.status, MipStatus::Optimal);
    assert!(loose.gap.unwrap() <= tight.gap_or_inf() + 1e-9);
}
