//! Numerical-health monitoring for the simplex engine.
//!
//! The sparse-LU product-form kernel (DESIGN.md §2) survives degeneracy and
//! drift by refactorizing and re-verifying — but on its own it keeps no
//! record of *how close* a solve came to numerical failure.
//! [`HealthMonitor`] collects that record with plain field updates (no
//! locks, nothing sampled): refactorization *cause* counters (scheduled vs.
//! instability-triggered vs. singular-recovery), singular-basis encounters,
//! accepted-pivot magnitude extremes, a growth-factor estimate from the
//! product-form eta columns (`max_i |w_i| / |w_r|` per pivot — large eta
//! entries are the classic PFI error-amplification signal), and Bland's-rule
//! anti-cycling episodes with their iteration counts.
//!
//! Two costlier checks are computed on demand instead of sampled by every
//! solve: the basis-solve residual `‖B·x_B − b‖∞`
//! ([`crate::Simplex::basis_residual`], O(m + nnz)) and the conditioning
//! proxy `max|u_ii| / min|u_ii|` of the last LU factorization
//! ([`crate::BasisFactor::u_diag_ratio`]).
//!
//! [`HealthMonitor::report`] condenses the evidence into a
//! [`HealthReport`] with a three-level [`HealthVerdict`]; thresholds are the
//! named constants below. The monitor is cumulative over a [`crate::Simplex`]
//! instance's lifetime (all solves of a branch-and-bound run); callers that
//! want a per-solve verdict call [`HealthMonitor::reset`] between solves.
//! The report is the stability gate the sparse-LU overhaul was validated
//! against — see the DESIGN.md §10.1 validation notes and the fill-budget
//! test in `tests/health.rs`.

use tvnep_telemetry::Telemetry;

/// Why the basis factorization was rebuilt. Fed by [`crate::Simplex`] at every
/// successful refactorization, the same event that counts into
/// `SolveStats::refactorizations` (exported as `lp.refactorizations`); the
/// time of every factorization, singular ones included, is the `lp.factor`
/// span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorCause {
    /// Periodic rebuild after 150 pivots, an early rebuild forced by the
    /// eta-file fill budget (8·m off-pivot nonzeros), the rebuild at
    /// (warm-)solve entry, or the first verification pass of a solve.
    Scheduled,
    /// Rebuild forced by a failed optimality/feasibility verification —
    /// the product-form update sequence had drifted and the solve is
    /// retrying.
    Instability,
    /// A recorded basis factorized singular and the all-slack basis was
    /// reinstalled.
    SingularRecovery,
}

/// Three-level stability verdict for a (set of) simplex solve(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// No instability signal fired.
    Stable,
    /// Recoverable trouble: drift-triggered refactorizations, Bland
    /// episodes, or eta growth above [`GROWTH_SUSPECT`].
    Suspect,
    /// Hard evidence: singular bases or eta growth past
    /// [`GROWTH_UNSTABLE`] — results should be cross-checked.
    Unstable,
}

impl HealthVerdict {
    /// Stable lower-case name for exports and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthVerdict::Stable => "stable",
            HealthVerdict::Suspect => "suspect",
            HealthVerdict::Unstable => "unstable",
        }
    }
}

/// Product-form eta magnitude (`max_i |w_i| / |w_r|`) above which error
/// amplification is suspected. At 1e6 the growth consumes six of the ~16
/// significant digits and sits an order below `1/OPT_TOL` — the magnitude
/// at which reduced-cost signs solved through the factors start drowning
/// in rounding noise.
pub const GROWTH_SUSPECT: f64 = 1e6;
/// Eta magnitude past which the update sequence is declared unstable.
pub const GROWTH_UNSTABLE: f64 = 1e10;

/// Condensed per-instance stability evidence; see [`HealthMonitor::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// The three-level verdict derived from every field below.
    pub verdict: HealthVerdict,
    /// Largest product-form eta magnitude.
    pub growth_factor: f64,
    /// Smallest accepted pivot magnitude (∞ when no pivot happened).
    pub min_pivot: f64,
    /// Largest accepted pivot magnitude.
    pub max_pivot: f64,
    /// Successful refactorizations by cause.
    pub refactor_scheduled: u64,
    /// Refactorizations forced by verification failure (drift).
    pub refactor_instability: u64,
    /// Refactorizations that reinstalled the all-slack basis.
    pub refactor_singular_recovery: u64,
    /// Bases that factorized singular (each triggers recovery or a
    /// `Numerical` status).
    pub singular_bases: u64,
    /// Entries into Bland's-rule anti-cycling mode.
    pub bland_episodes: u64,
    /// Iterations spent priced by Bland's rule across all episodes.
    pub bland_iters: u64,
}

impl HealthReport {
    /// Total successful refactorizations — by construction equal to
    /// `SolveStats::refactorizations` of the same instance.
    pub fn refactorizations(&self) -> u64 {
        self.refactor_scheduled + self.refactor_instability + self.refactor_singular_recovery
    }
}

/// The collector embedded in [`crate::Simplex`] (public field `health`).
/// Plain `Copy` data, merged across parallel workers with
/// [`HealthMonitor::merge_from`] exactly like `SolveStats`.
#[derive(Debug, Clone, Copy)]
pub struct HealthMonitor {
    growth_factor: f64,
    min_pivot: f64,
    max_pivot: f64,
    refactor_scheduled: u64,
    refactor_instability: u64,
    refactor_singular_recovery: u64,
    singular_bases: u64,
    bland_episodes: u64,
    bland_iters: u64,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self {
            growth_factor: 0.0,
            min_pivot: f64::INFINITY,
            max_pivot: 0.0,
            refactor_scheduled: 0,
            refactor_instability: 0,
            refactor_singular_recovery: 0,
            singular_bases: 0,
            bland_episodes: 0,
            bland_iters: 0,
        }
    }
}

impl HealthMonitor {
    /// Clears all evidence (for callers wanting per-solve verdicts).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Records a successful refactorization of the given cause.
    pub(crate) fn record_refactor(&mut self, cause: RefactorCause) {
        match cause {
            RefactorCause::Scheduled => self.refactor_scheduled += 1,
            RefactorCause::Instability => self.refactor_instability += 1,
            RefactorCause::SingularRecovery => self.refactor_singular_recovery += 1,
        }
    }

    /// Records a basis that factorized singular.
    pub(crate) fn record_singular(&mut self) {
        self.singular_bases += 1;
    }

    /// Records one accepted pivot magnitude (two compares).
    pub(crate) fn record_pivot(&mut self, abs_pivot: f64) {
        if abs_pivot < self.min_pivot {
            self.min_pivot = abs_pivot;
        }
        if abs_pivot > self.max_pivot {
            self.max_pivot = abs_pivot;
        }
    }

    /// Records one product-form eta magnitude.
    pub(crate) fn record_eta(&mut self, eta_max: f64) {
        if eta_max > self.growth_factor {
            self.growth_factor = eta_max;
        }
    }

    /// Records one iteration priced under Bland's rule; `entered` marks the
    /// first iteration of a new episode.
    pub(crate) fn record_bland_iter(&mut self, entered: bool) {
        if entered {
            self.bland_episodes += 1;
        }
        self.bland_iters += 1;
    }

    /// Folds another monitor's evidence into this one (counters add, extremes
    /// min/max) — the per-worker merge of the parallel branch-and-bound
    /// driver, mirroring `SolveStats::merge_from`.
    pub fn merge_from(&mut self, other: &HealthMonitor) {
        self.growth_factor = self.growth_factor.max(other.growth_factor);
        self.min_pivot = self.min_pivot.min(other.min_pivot);
        self.max_pivot = self.max_pivot.max(other.max_pivot);
        self.refactor_scheduled += other.refactor_scheduled;
        self.refactor_instability += other.refactor_instability;
        self.refactor_singular_recovery += other.refactor_singular_recovery;
        self.singular_bases += other.singular_bases;
        self.bland_episodes += other.bland_episodes;
        self.bland_iters += other.bland_iters;
    }

    /// Condenses the evidence into a [`HealthReport`] with a verdict.
    pub fn report(&self) -> HealthReport {
        let unstable = self.singular_bases > 0 || self.growth_factor >= GROWTH_UNSTABLE;
        let suspect = self.refactor_instability > 0
            || self.bland_episodes > 0
            || self.growth_factor >= GROWTH_SUSPECT;
        let verdict = if unstable {
            HealthVerdict::Unstable
        } else if suspect {
            HealthVerdict::Suspect
        } else {
            HealthVerdict::Stable
        };
        HealthReport {
            verdict,
            growth_factor: self.growth_factor,
            min_pivot: self.min_pivot,
            max_pivot: self.max_pivot,
            refactor_scheduled: self.refactor_scheduled,
            refactor_instability: self.refactor_instability,
            refactor_singular_recovery: self.refactor_singular_recovery,
            singular_bases: self.singular_bases,
            bland_episodes: self.bland_episodes,
            bland_iters: self.bland_iters,
        }
    }

    /// Exports the evidence as `lp.health.*` counters and gauges.
    pub fn flush_into(&self, t: &Telemetry) {
        if !t.is_enabled() {
            return;
        }
        t.counter_add("lp.health.refactor_scheduled", self.refactor_scheduled);
        t.counter_add("lp.health.refactor_instability", self.refactor_instability);
        t.counter_add(
            "lp.health.refactor_singular_recovery",
            self.refactor_singular_recovery,
        );
        t.counter_add("lp.health.singular_bases", self.singular_bases);
        t.counter_add("lp.health.bland_episodes", self.bland_episodes);
        t.counter_add("lp.health.bland_iters", self.bland_iters);
        t.gauge_set("lp.health.growth_factor", self.growth_factor);
        if self.max_pivot > 0.0 {
            t.gauge_set("lp.health.min_pivot", self.min_pivot);
            t.gauge_set("lp.health.max_pivot", self.max_pivot);
        }
        t.gauge_set(
            "lp.health.verdict",
            match self.report().verdict {
                HealthVerdict::Stable => 0.0,
                HealthVerdict::Suspect => 1.0,
                HealthVerdict::Unstable => 2.0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_monitor_is_stable() {
        let m = HealthMonitor::default();
        let r = m.report();
        assert_eq!(r.verdict, HealthVerdict::Stable);
        assert_eq!(r.refactorizations(), 0);
    }

    #[test]
    fn singular_basis_is_unstable_and_drift_is_suspect() {
        let mut m = HealthMonitor::default();
        m.record_refactor(RefactorCause::Scheduled);
        assert_eq!(m.report().verdict, HealthVerdict::Stable);
        m.record_refactor(RefactorCause::Instability);
        assert_eq!(m.report().verdict, HealthVerdict::Suspect);
        m.record_singular();
        assert_eq!(m.report().verdict, HealthVerdict::Unstable);
        assert_eq!(m.report().refactorizations(), 2);
    }

    #[test]
    fn conditioning_proxies_drive_verdict() {
        let mut m = HealthMonitor::default();
        m.record_eta(1e3);
        assert_eq!(m.report().verdict, HealthVerdict::Stable);
        m.record_eta(1e7);
        assert_eq!(m.report().verdict, HealthVerdict::Suspect);
        m.record_eta(1e11);
        assert_eq!(m.report().verdict, HealthVerdict::Unstable);
    }

    #[test]
    fn bland_episode_counting() {
        let mut m = HealthMonitor::default();
        m.record_bland_iter(true);
        m.record_bland_iter(false);
        m.record_bland_iter(false);
        m.record_bland_iter(true);
        let r = m.report();
        assert_eq!(r.bland_episodes, 2);
        assert_eq!(r.bland_iters, 4);
        assert_eq!(r.verdict, HealthVerdict::Suspect);
    }

    #[test]
    fn merge_combines_extremes_and_counts() {
        let mut a = HealthMonitor::default();
        a.record_pivot(0.5);
        a.record_refactor(RefactorCause::Scheduled);
        let mut b = HealthMonitor::default();
        b.record_pivot(2.0);
        b.record_refactor(RefactorCause::SingularRecovery);
        b.record_bland_iter(true);
        a.merge_from(&b);
        let r = a.report();
        assert_eq!(r.min_pivot, 0.5);
        assert_eq!(r.max_pivot, 2.0);
        assert_eq!(r.refactor_scheduled, 1);
        assert_eq!(r.refactor_singular_recovery, 1);
        assert_eq!(r.verdict, HealthVerdict::Suspect);
    }

    #[test]
    fn verdict_names() {
        assert_eq!(HealthVerdict::Stable.as_str(), "stable");
        assert_eq!(HealthVerdict::Suspect.as_str(), "suspect");
        assert_eq!(HealthVerdict::Unstable.as_str(), "unstable");
    }
}
