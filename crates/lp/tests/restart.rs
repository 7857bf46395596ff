//! A restarted engine solves as a fresh one does. After its rows and
//! columns are re-bounded, a used engine that [`Simplex::restart`]s returns
//! from `solve_warm` or `solve` the status, iteration count, objective and
//! `x` bits of [`Simplex::new`] on the re-bounded problem: the contract that
//! lets one engine serve every candidate start of an admission.

mod common;

use common::Rng;
use tvnep_lp::{LpProblem, LpSolution, LpStatus, Simplex, VarId, INF};

/// The fixed part of a seeded LP: costs and rows. Bounds are drawn apart so
/// the same shape can be re-bounded.
struct Shape {
    costs: Vec<f64>,
    rows: Vec<Vec<(VarId, f64)>>,
}

type Bounds = Vec<(f64, f64)>;

/// With `fallback`, column 0 costs less the larger it gets; see
/// [`column_bounds`]. A `wide` shape has more than 64 columns, so the primal
/// phases price a window of them from the engine's rotating cursor.
fn shape(rng: &mut Rng, fallback: bool, wide: bool) -> Shape {
    const VALS: [f64; 8] = [0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 0.3, -0.7];
    let (n, m) = if wide {
        (70 + rng.range(30), 5 + rng.range(10))
    } else {
        (2 + rng.range(13), 1 + rng.range(10))
    };
    let mut costs: Vec<f64> = (0..n)
        .map(|_| match rng.range(4) {
            0 => 0.0,
            _ => 4.0 * rng.unit() - 2.0,
        })
        .collect();
    if fallback {
        costs[0] = -1.0 - rng.unit();
    }
    let rows = (0..m)
        .map(|_| {
            (0..1 + rng.range(n.min(5)))
                .map(|_| (VarId(rng.range(n)), VALS[rng.range(8)]))
                .collect()
        })
        .collect();
    Shape { costs, rows }
}

/// Column bounds, mostly boxed, some fixed; with `fallback`, column 0 gets
/// an infinite upper bound, so with its negative cost the all-slack start is
/// dual infeasible at a column no bound flip can repair, and the dual
/// simplex hands the solve to the primal phases.
fn column_bounds(rng: &mut Rng, n: usize, fallback: bool) -> Bounds {
    let mut cols: Bounds = (0..n)
        .map(|_| match rng.range(6) {
            0 => {
                let v = 2.0 * rng.unit();
                (v, v)
            }
            _ => (-rng.unit(), 2.0 * rng.unit()),
        })
        .collect();
    if fallback {
        cols[0] = (0.0, INF);
    }
    cols
}

/// Row bounds around a random centre: some one-sided, some fixed, and some
/// far enough out that the rows cannot meet them.
fn row_bounds(rng: &mut Rng, m: usize) -> Bounds {
    (0..m)
        .map(|_| {
            let centre = 6.0 * rng.unit() - 3.0;
            let half = match rng.range(10) {
                0 => 0.0,
                _ => 3.0 * rng.unit(),
            };
            match rng.range(4) {
                0 => (-INF, centre + half),
                1 => (centre - half, INF),
                _ => (centre - half, centre + half),
            }
        })
        .collect()
}

fn problem(shape: &Shape, cols: &Bounds, rows: &Bounds) -> LpProblem {
    let mut lp = LpProblem::new();
    for (&c, &(lo, up)) in shape.costs.iter().zip(cols) {
        lp.add_var(lo, up, c);
    }
    for (terms, &(lo, up)) in shape.rows.iter().zip(rows) {
        lp.add_row(lo, up, terms);
    }
    lp
}

/// One solve through either entry point, and what it left.
fn run(engine: &mut Simplex, warm: bool) -> LpSolution {
    let status = if warm {
        engine.solve_warm()
    } else {
        engine.solve()
    };
    engine.extract(status)
}

fn assert_same_bits(got: &LpSolution, want: &LpSolution, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.status, want.status, "{what}: status");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(
        got.objective.to_bits(),
        want.objective.to_bits(),
        "{what}: objective {} vs {}",
        got.objective,
        want.objective
    );
    assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
    assert_eq!(
        bits(&got.row_activity),
        bits(&want.row_activity),
        "{what}: row activity"
    );
}

#[test]
fn a_restarted_engine_solves_as_a_fresh_one() {
    let mut statuses = Vec::new();
    let (mut fallbacks, mut pivots) = (0, 0);
    for case in 0..200u64 {
        let mut rng = Rng(0x7e57_a127 ^ (case << 20));
        let fallback = case % 8 == 0;
        let shape = shape(&mut rng, fallback, case % 4 == 1);
        let n = shape.costs.len();
        let cols = column_bounds(&mut rng, n, fallback);
        let rows = row_bounds(&mut rng, shape.rows.len());
        let mut engine = Simplex::new(&problem(&shape, &cols, &rows));
        run(&mut engine, true);
        // Re-bound the used engine a few times, alternating the entry
        // points; each round starts from what the previous solve left.
        for round in 0..4 {
            let cols = column_bounds(&mut rng, n, fallback);
            let rows = row_bounds(&mut rng, shape.rows.len());
            for (j, &(lo, up)) in cols.iter().enumerate() {
                engine.set_var_bounds(j, lo, up);
            }
            for (i, &(lo, up)) in rows.iter().enumerate() {
                engine.set_row_bounds(i, lo, up);
                assert_eq!(engine.row_bounds(i), (lo, up));
            }
            engine.restart();
            let warm = round % 2 == 0;
            let got = run(&mut engine, warm);
            let mut fresh = Simplex::new(&problem(&shape, &cols, &rows));
            let want = run(&mut fresh, warm);
            assert_same_bits(&got, &want, &format!("case {case}, round {round}"));
            statuses.push(want.status);
            fallbacks += fresh.stats.dual_fallbacks;
            pivots += want.iterations;
        }
    }
    let count = |s: LpStatus| statuses.iter().filter(|&&t| t == s).count();
    let (optimal, infeasible) = (count(LpStatus::Optimal), count(LpStatus::Infeasible));
    assert!(
        optimal > 100 && infeasible > 100 && fallbacks > 10 && pivots > 1000,
        "{optimal} optimal, {infeasible} infeasible, {fallbacks} primal fallbacks, \
         {pivots} iterations"
    );
}
