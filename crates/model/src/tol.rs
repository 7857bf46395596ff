//! Shared numeric tolerances for the whole workspace.
//!
//! The LP engine, the branch-and-bound driver, and the Definition-2.1
//! verifier all compare floating-point quantities; before this module each
//! crate carried its own constants, which made it impossible to reason about
//! how solver slack composes into verifier slack. The invariant that keeps
//! the pipeline sound is
//!
//! ```text
//! FEAS_TOL  ≤  INT_TOL  ≤  VERIFY_TOL  ≤  OBJ_EQ_TOL
//! ```
//!
//! i.e. every downstream check is at least as forgiving as the numerical
//! noise the upstream stage may legally leave behind. A solution the MIP
//! solver declares integral-feasible must therefore always pass the verifier,
//! and two formulations solved to optimality must agree within
//! [`OBJ_EQ_TOL`]. The differential fuzzing harness asserts exactly these
//! relations on every generated instance.
//!
//! The ladder is the LP and MIP engines' only numeric configuration: the
//! simplex reads [`FEAS_TOL`], [`OPT_TOL`] and [`PIVOT_TOL`], branch and
//! bound reads [`INT_TOL`] and [`REL_GAP`], and no option, flag or setter
//! moves a rung at run time (the engines' other constants — refactorization
//! period, eta-fill budget, Bland switch, Markowitz threshold — are private
//! to `tvnep-lp`).

/// Primal feasibility tolerance of the simplex engine (`tvnep-lp`).
pub const FEAS_TOL: f64 = 1e-7;

/// Dual (reduced-cost) optimality tolerance of the simplex engine.
pub const OPT_TOL: f64 = 1e-7;

/// Smallest pivot magnitude the simplex engine accepts.
pub const PIVOT_TOL: f64 = 1e-9;

/// Integrality tolerance of the branch-and-bound driver (`tvnep-mip`):
/// a relaxation value within this distance of an integer counts as integral.
pub const INT_TOL: f64 = 1e-6;

/// Relative optimality gap at which branch and bound declares optimality.
pub const REL_GAP: f64 = 1e-6;

/// Default tolerance of the Definition-2.1 verifier (`tvnep_model::verify`).
/// Strictly looser than [`INT_TOL`] so that solver-feasible solutions never
/// fail verification on numerical noise alone.
pub const VERIFY_TOL: f64 = 1e-5;

/// Tolerance for comparing *optimal objective values* across formulations
/// (Δ vs Σ vs cΣ), across thread counts, and against recomputed metrics.
/// Absolute for objectives of magnitude ≤ 1; scale by `max(1, |obj|)` for
/// larger ones (see [`obj_eq`]).
pub const OBJ_EQ_TOL: f64 = 1e-4;

// The ladder is an invariant, not a convention: enforce it at compile time
// so no constant can be retuned out of order.
const _: () = {
    assert!(PIVOT_TOL <= FEAS_TOL);
    assert!(FEAS_TOL <= INT_TOL);
    assert!(INT_TOL <= VERIFY_TOL);
    assert!(VERIFY_TOL <= OBJ_EQ_TOL);
};

/// True when two objective values agree within [`OBJ_EQ_TOL`], relative to
/// their magnitude.
pub fn obj_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= OBJ_EQ_TOL * a.abs().max(b.abs()).max(1.0)
}

/// True when `lower ≤ upper` up to [`OBJ_EQ_TOL`] (magnitude-relative), the
/// one-sided counterpart of [`obj_eq`] used for bound oracles.
pub fn obj_le(lower: f64, upper: f64) -> bool {
    lower <= upper + OBJ_EQ_TOL * lower.abs().max(upper.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_eq_is_magnitude_relative() {
        assert!(obj_eq(1.0, 1.0 + 0.5 * OBJ_EQ_TOL));
        assert!(!obj_eq(1.0, 1.0 + 10.0 * OBJ_EQ_TOL));
        // Large magnitudes scale the tolerance.
        assert!(obj_eq(1e6, 1e6 + 50.0));
        assert!(!obj_eq(1e6, 1e6 + 1e3));
    }

    #[test]
    fn obj_le_accepts_equality_and_noise() {
        assert!(obj_le(5.0, 5.0));
        assert!(obj_le(5.0 + 0.5 * OBJ_EQ_TOL, 5.0));
        assert!(!obj_le(5.1, 5.0));
    }
}
