//! # tvnep-lp — a bounded-variable revised simplex solver
//!
//! Linear-programming substrate for the TVNEP reproduction. The paper solved
//! its mixed-integer programs with Gurobi; no comparable solver exists as an
//! offline Rust crate, so this crate implements the LP engine that the
//! branch-and-bound layer (`tvnep-mip`) drives:
//!
//! * [`problem::LpProblem`] — `min c'x, rlo ≤ Ax ≤ rup, l ≤ x ≤ u`;
//! * [`simplex::Simplex`] — revised primal simplex with variable bounds,
//!   composite phase 1, devex pricing, periodic refactorization, warm
//!   starts from recorded bases, and restarts of a re-bounded engine
//!   ([`Simplex::restart`]) that solve as a fresh engine does;
//! * [`factor`] — the sparse basis kernel: Markowitz LU factorization with
//!   threshold partial pivoting, hypersparse triangular solves, and
//!   product-form eta updates between refactorizations;
//! * [`simplex::solve`] — one-shot convenience entry point;
//! * [`health`] — [`SolveStats`], each engine's one record of work and
//!   numerical health: solves, iterations, refactorizations by cause, pivot
//!   extremes, eta growth estimates and Bland episodes, with a
//!   Stable/Suspect/Unstable [`SolveStats::verdict`], merged across
//!   branch-and-bound workers and exported as the `lp.*` and `lp.health.*`
//!   metrics. The basis residual ([`Simplex::basis_residual`]) is computed
//!   on demand.
//!
//! The engine's only numeric configuration is the tolerance ladder of
//! `tvnep_model::tol` plus fixed schedule constants (refactorization
//! period, eta-file fill budget, Bland switch, Markowitz threshold); a
//! caller sets only the per-solve limits, [`Simplex::set_deadline`] and
//! [`Simplex::set_iteration_limit`].
//!
//! ```
//! use tvnep_lp::{LpProblem, solve, LpStatus, INF};
//! let mut lp = LpProblem::new();
//! let x = lp.add_var(0.0, INF, -3.0); // maximize 3x + 2y via negation
//! let y = lp.add_var(0.0, INF, -2.0);
//! lp.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! lp.add_le(&[(x, 1.0), (y, 3.0)], 6.0);
//! let sol = solve(&lp);
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - (-12.0)).abs() < 1e-6); // x = 4, y = 0
//! ```

mod bitset;
pub mod factor;
pub mod health;
mod pricing;
pub mod problem;
pub mod simplex;
pub mod sparse;

pub use factor::{BasisFactor, EtaFile, LuFactors};
pub use health::{HealthVerdict, RefactorCause, SolveStats};
pub use problem::{LpProblem, RowId, VarId, INF};
pub use simplex::{solve, Basis, LpSolution, LpStatus, Simplex, VarStatus};
