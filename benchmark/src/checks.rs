//! Output checks. Each returns the failures it found, one line each; an
//! operation with any failure counts as failed, and `run` exits non-zero.

use tvnep_mip::MipStatus;
use tvnep_model::tol::{obj_eq, obj_le};
use tvnep_model::Violation;

/// A deep proof: proven optimal, the solution satisfies Definition 2.1, and
/// the optimum equals the pinned reference.
pub fn proof(
    status: MipStatus,
    objective: Option<f64>,
    reference: f64,
    violations: Option<&[Violation]>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if status != MipStatus::Optimal {
        failures.push(format!("status {} is not optimal", status.as_str()));
    }
    match violations {
        None => failures.push("no solution to verify".to_string()),
        Some([]) => {}
        Some(v) => failures.push(definition_violated(v)),
    }
    if !objective.is_some_and(|got| obj_eq(got, reference)) {
        failures.push(format!(
            "objective {objective:?} differs from reference {reference}"
        ));
    }
    failures
}

/// A sweep cell: proven (optimal, or nothing beats the greedy cutoff), both
/// the greedy and the branch-and-bound solutions satisfy Definition 2.1, and
/// branch and bound is no worse than the greedy revenue it started from.
pub fn sweep_cell(
    status: MipStatus,
    objective: Option<f64>,
    greedy_revenue: f64,
    greedy_violations: &[Violation],
    violations: Option<&[Violation]>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !matches!(status, MipStatus::Optimal | MipStatus::NoBetterThanCutoff) {
        failures.push(format!("status {} is not proven", status.as_str()));
    }
    if !greedy_violations.is_empty() {
        failures.push(format!(
            "greedy: {}",
            definition_violated(greedy_violations)
        ));
    }
    if let Some(v) = violations.filter(|v| !v.is_empty()) {
        failures.push(definition_violated(v));
    }
    if let Some(obj) = objective.filter(|&o| !obj_le(greedy_revenue, o)) {
        failures.push(format!(
            "objective {obj} is below the greedy revenue {greedy_revenue}"
        ));
    }
    failures
}

/// A service run: every submitted request decided (none shed), and the
/// decided schedules together satisfy Definition 2.1.
pub fn service(submitted: usize, decided: usize, violations: &[Violation]) -> Vec<String> {
    let mut failures = Vec::new();
    if decided != submitted {
        failures.push(format!("{decided} of {submitted} requests decided"));
    }
    if !violations.is_empty() {
        failures.push(definition_violated(violations));
    }
    failures
}

fn definition_violated(v: &[Violation]) -> String {
    format!("{} Definition 2.1 violation(s), first: {:?}", v.len(), v[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_graph::NodeId;

    fn overload() -> Violation {
        Violation::NodeCapacity {
            node: NodeId(0),
            time: 1.0,
            load: 4.0,
            capacity: 3.5,
        }
    }

    #[test]
    fn proof_passes_on_the_reference() {
        assert!(proof(MipStatus::Optimal, Some(22.8), 22.8, Some(&[])).is_empty());
    }

    #[test]
    fn proof_fails_on_a_wrong_objective() {
        let f = proof(MipStatus::Optimal, Some(22.9), 22.8, Some(&[]));
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("differs from reference"), "{f:?}");
    }

    #[test]
    fn proof_fails_on_a_definition_violation() {
        let f = proof(MipStatus::Optimal, Some(22.8), 22.8, Some(&[overload()]));
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("Definition 2.1"), "{f:?}");
    }

    #[test]
    fn proof_fails_unless_optimal() {
        for status in [
            MipStatus::Feasible,
            MipStatus::NoSolution,
            MipStatus::Numerical,
        ] {
            let f = proof(status, Some(22.8), 22.8, Some(&[]));
            assert!(f.iter().any(|m| m.contains("not optimal")), "{f:?}");
        }
        let f = proof(MipStatus::NoSolution, None, 22.8, None);
        assert_eq!(f.len(), 3, "{f:?}");
    }

    #[test]
    fn sweep_cell_checks_status_verification_and_greedy_bound() {
        assert!(sweep_cell(MipStatus::NoBetterThanCutoff, None, 10.0, &[], None).is_empty());
        assert!(sweep_cell(MipStatus::Optimal, Some(12.0), 10.0, &[], Some(&[])).is_empty());
        let f = sweep_cell(MipStatus::Feasible, Some(12.0), 10.0, &[], Some(&[]));
        assert!(f[0].contains("not proven"), "{f:?}");
        let f = sweep_cell(MipStatus::Optimal, Some(9.0), 10.0, &[], Some(&[]));
        assert!(f[0].contains("below the greedy revenue"), "{f:?}");
        let f = sweep_cell(
            MipStatus::Optimal,
            Some(12.0),
            10.0,
            &[overload()],
            Some(&[]),
        );
        assert!(f[0].starts_with("greedy: "), "{f:?}");
        let f = sweep_cell(
            MipStatus::Optimal,
            Some(12.0),
            10.0,
            &[],
            Some(&[overload()]),
        );
        assert!(f[0].contains("Definition 2.1"), "{f:?}");
    }

    #[test]
    fn service_fails_on_shedding_and_overcommit() {
        assert!(service(200, 200, &[]).is_empty());
        assert!(service(200, 199, &[])[0].contains("199 of 200"));
        assert!(service(200, 200, &[overload()])[0].contains("Definition 2.1"));
    }
}
