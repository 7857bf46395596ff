//! The LP engine's one record of work and numerical health.
//!
//! Each [`crate::Simplex`] keeps one [`SolveStats`] (public field `stats`)
//! and updates it with plain field writes (no locks, nothing sampled): solves
//! and warm calls, dual successes and fallbacks, primal and dual iterations,
//! refactorizations by cause, degenerate pivots, bound flips, pricing-window
//! hits, and the stability evidence of the sparse-LU product-form kernel
//! (DESIGN.md §2), which survives degeneracy and drift by refactorizing and
//! re-verifying but would otherwise keep no record of *how close* a solve
//! came to numerical failure: singular-basis encounters, accepted-pivot
//! magnitude extremes, a growth estimate from the product-form eta columns
//! (`max_i |w_i| / |w_r|` per pivot — large eta entries are the classic PFI
//! error-amplification signal), and Bland's-rule anti-cycling episodes with
//! their iteration counts.
//!
//! The record is cumulative over a `Simplex`'s lifetime (every solve of a
//! branch-and-bound worker). The branch-and-bound driver merges one record
//! per worker with [`SolveStats::merge_from`] and exports the sum once with
//! [`SolveStats::flush_into`], as the `lp.*` and `lp.health.*` series, so
//! the exported verdict is the worst over the whole MIP solve; the
//! `lp.health.*` gauges keep the worst over every MIP solve flushed into one
//! handle.
//! [`SolveStats::verdict`] condenses the evidence into a three-level
//! [`HealthVerdict`]; thresholds are the named constants below.
//!
//! Two costlier checks are computed on demand instead of sampled by every
//! solve: the basis-solve residual `‖B·x_B − b‖∞`
//! ([`crate::Simplex::basis_residual`], O(m + nnz)) and the conditioning
//! proxy `max|u_ii| / min|u_ii|` of the last LU factorization
//! ([`crate::BasisFactor::u_diag_ratio`]).
//!
//! The verdict is the stability gate the sparse-LU overhaul was validated
//! against — see the DESIGN.md §10.1 validation notes and the fill-budget
//! test in `tests/health.rs`.

use tvnep_telemetry::Telemetry;

/// Why the basis factorization was rebuilt. Recorded by [`crate::Simplex`]
/// at every successful refactorization; the causes sum to
/// [`SolveStats::refactorizations`] (exported as `lp.refactorizations`), and
/// the discriminant is the flight recorder's `Refactor` cause code. The time
/// of every factorization, singular ones included, is the `lp.factor` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorCause {
    /// Periodic rebuild after 150 pivots, an early rebuild forced by the
    /// eta-file fill budget (8·m off-pivot nonzeros), the rebuild at
    /// (warm-)solve entry, or the first verification pass of a solve.
    Scheduled = 0,
    /// Rebuild forced by a failed optimality/feasibility verification —
    /// the product-form update sequence had drifted and the solve is
    /// retrying.
    Instability = 1,
    /// A recorded basis factorized singular and the all-slack basis was
    /// reinstalled.
    SingularRecovery = 2,
}

/// Three-level stability verdict for a (set of) simplex solve(s). The
/// discriminant is the `lp.health.verdict` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// No instability signal fired.
    Stable = 0,
    /// Recoverable trouble: drift-triggered refactorizations, Bland
    /// episodes, or eta growth above [`GROWTH_SUSPECT`].
    Suspect = 1,
    /// Hard evidence: singular bases or eta growth past
    /// [`GROWTH_UNSTABLE`] — results should be cross-checked.
    Unstable = 2,
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

/// Everything one LP engine counts, cumulative over all its solves.
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Calls to [`crate::Simplex::solve`] and
    /// [`crate::Simplex::solve_warm`].
    pub solves: usize,
    /// Calls to [`crate::Simplex::solve_warm`].
    pub warm_calls: usize,
    /// Warm calls where the dual simplex finished the job.
    pub dual_successes: usize,
    /// Warm calls that fell back to the primal phases.
    pub dual_fallbacks: usize,
    /// Iterations spent inside the dual simplex.
    pub dual_iters: usize,
    /// Iterations spent inside the primal phases.
    pub primal_iters: usize,
    /// Successful refactorizations caused by [`RefactorCause::Scheduled`].
    pub refactor_scheduled: usize,
    /// Refactorizations forced by verification failure (drift).
    pub refactor_instability: usize,
    /// Refactorizations that reinstalled the all-slack basis.
    pub refactor_singular_recovery: usize,
    /// Pivots with (near-)zero step length or dual progress.
    pub degenerate_pivots: usize,
    /// Nonbasic bound flips (ratio test won by the entering variable).
    pub bound_flips: usize,
    /// Primal prices resolved inside the partial-pricing window.
    pub pricing_window_hits: usize,
    /// Primal prices that needed a full Dantzig scan (window priced out, or
    /// the scan proved optimality).
    pub pricing_full_scans: usize,
    /// Bases that factorized singular (each triggers recovery or a
    /// `Numerical` status).
    pub singular_bases: usize,
    /// Entries into Bland's-rule anti-cycling mode.
    pub bland_episodes: usize,
    /// Iterations spent priced by Bland's rule across all episodes.
    pub bland_iters: usize,
    /// Largest product-form eta magnitude.
    pub growth_factor: f64,
    /// Smallest accepted pivot magnitude (∞ when no pivot happened).
    pub min_pivot: f64,
    /// Largest accepted pivot magnitude.
    pub max_pivot: f64,
}

impl Default for SolveStats {
    fn default() -> Self {
        Self {
            solves: 0,
            warm_calls: 0,
            dual_successes: 0,
            dual_fallbacks: 0,
            dual_iters: 0,
            primal_iters: 0,
            refactor_scheduled: 0,
            refactor_instability: 0,
            refactor_singular_recovery: 0,
            degenerate_pivots: 0,
            bound_flips: 0,
            pricing_window_hits: 0,
            pricing_full_scans: 0,
            singular_bases: 0,
            bland_episodes: 0,
            bland_iters: 0,
            growth_factor: 0.0,
            min_pivot: f64::INFINITY,
            max_pivot: 0.0,
        }
    }
}

impl SolveStats {
    /// Simplex iterations, both algorithms.
    pub fn iterations(&self) -> usize {
        self.primal_iters + self.dual_iters
    }

    /// Successful refactorizations, every cause.
    pub fn refactorizations(&self) -> usize {
        self.refactor_scheduled + self.refactor_instability + self.refactor_singular_recovery
    }

    /// Records a successful refactorization of the given cause.
    pub(crate) fn record_refactor(&mut self, cause: RefactorCause) {
        match cause {
            RefactorCause::Scheduled => self.refactor_scheduled += 1,
            RefactorCause::Instability => self.refactor_instability += 1,
            RefactorCause::SingularRecovery => self.refactor_singular_recovery += 1,
        }
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

    /// The three-level verdict of the evidence so far.
    pub fn verdict(&self) -> HealthVerdict {
        if self.singular_bases > 0 || self.growth_factor >= GROWTH_UNSTABLE {
            HealthVerdict::Unstable
        } else if self.refactor_instability > 0
            || self.bland_episodes > 0
            || self.growth_factor >= GROWTH_SUSPECT
        {
            HealthVerdict::Suspect
        } else {
            HealthVerdict::Stable
        }
    }

    /// Folds another engine's record into this one: counters add, extremes
    /// take the min/max. The branch-and-bound driver gives each worker its
    /// own [`crate::Simplex`] and merges the per-worker records at the end,
    /// so reported quantities are identical regardless of thread count.
    pub fn merge_from(&mut self, other: &SolveStats) {
        self.solves += other.solves;
        self.warm_calls += other.warm_calls;
        self.dual_successes += other.dual_successes;
        self.dual_fallbacks += other.dual_fallbacks;
        self.dual_iters += other.dual_iters;
        self.primal_iters += other.primal_iters;
        self.refactor_scheduled += other.refactor_scheduled;
        self.refactor_instability += other.refactor_instability;
        self.refactor_singular_recovery += other.refactor_singular_recovery;
        self.degenerate_pivots += other.degenerate_pivots;
        self.bound_flips += other.bound_flips;
        self.pricing_window_hits += other.pricing_window_hits;
        self.pricing_full_scans += other.pricing_full_scans;
        self.singular_bases += other.singular_bases;
        self.bland_episodes += other.bland_episodes;
        self.bland_iters += other.bland_iters;
        self.growth_factor = self.growth_factor.max(other.growth_factor);
        self.min_pivot = self.min_pivot.min(other.min_pivot);
        self.max_pivot = self.max_pivot.max(other.max_pivot);
    }

    /// Adds every counter to `t` under the `lp.` prefix and the stability
    /// evidence as `lp.health.*` counters and gauges. The gauges keep the
    /// worst over every flush into `t`: the largest verdict, growth factor
    /// and pivot, and the smallest pivot, so a run of several MIP solves on
    /// one handle does not hide an earlier solve's trouble.
    pub fn flush_into(&self, t: &Telemetry) {
        if !t.is_enabled() {
            return;
        }
        for (name, value) in [
            ("lp.solves", self.solves),
            ("lp.iterations", self.iterations()),
            ("lp.warm_calls", self.warm_calls),
            ("lp.dual_successes", self.dual_successes),
            ("lp.dual_fallbacks", self.dual_fallbacks),
            ("lp.dual_iters", self.dual_iters),
            ("lp.primal_iters", self.primal_iters),
            ("lp.refactorizations", self.refactorizations()),
            ("lp.degenerate_pivots", self.degenerate_pivots),
            ("lp.bound_flips", self.bound_flips),
            ("lp.pricing_window_hits", self.pricing_window_hits),
            ("lp.pricing_full_scans", self.pricing_full_scans),
            ("lp.health.refactor_scheduled", self.refactor_scheduled),
            ("lp.health.refactor_instability", self.refactor_instability),
            (
                "lp.health.refactor_singular_recovery",
                self.refactor_singular_recovery,
            ),
            ("lp.health.singular_bases", self.singular_bases),
            ("lp.health.bland_episodes", self.bland_episodes),
            ("lp.health.bland_iters", self.bland_iters),
        ] {
            t.counter_add(name, value as u64);
        }
        t.gauge_max("lp.health.growth_factor", self.growth_factor);
        if self.max_pivot > 0.0 {
            t.gauge_min("lp.health.min_pivot", self.min_pivot);
            t.gauge_max("lp.health.max_pivot", self.max_pivot);
        }
        t.gauge_max("lp.health.verdict", self.verdict() as u8 as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_monitor_is_stable() {
        let s = SolveStats::default();
        assert_eq!(s.verdict(), HealthVerdict::Stable);
        assert_eq!(s.refactorizations(), 0);
    }

    #[test]
    fn singular_basis_is_unstable_and_drift_is_suspect() {
        let mut s = SolveStats::default();
        s.record_refactor(RefactorCause::Scheduled);
        assert_eq!(s.verdict(), HealthVerdict::Stable);
        s.record_refactor(RefactorCause::Instability);
        assert_eq!(s.verdict(), HealthVerdict::Suspect);
        s.singular_bases += 1;
        assert_eq!(s.verdict(), HealthVerdict::Unstable);
        assert_eq!(s.refactorizations(), 2);
    }

    #[test]
    fn conditioning_proxies_drive_verdict() {
        let mut s = SolveStats::default();
        s.record_eta(1e3);
        assert_eq!(s.verdict(), HealthVerdict::Stable);
        s.record_eta(1e7);
        assert_eq!(s.verdict(), HealthVerdict::Suspect);
        s.record_eta(1e11);
        assert_eq!(s.verdict(), HealthVerdict::Unstable);
    }

    #[test]
    fn bland_episode_counting() {
        let mut s = SolveStats::default();
        s.record_bland_iter(true);
        s.record_bland_iter(false);
        s.record_bland_iter(false);
        s.record_bland_iter(true);
        assert_eq!(s.bland_episodes, 2);
        assert_eq!(s.bland_iters, 4);
        assert_eq!(s.verdict(), HealthVerdict::Suspect);
    }

    #[test]
    fn merge_combines_extremes_and_counts() {
        let mut a = SolveStats::default();
        a.record_pivot(0.5);
        a.record_refactor(RefactorCause::Scheduled);
        a.dual_iters = 3;
        let mut b = SolveStats::default();
        b.record_pivot(2.0);
        b.record_refactor(RefactorCause::SingularRecovery);
        b.record_bland_iter(true);
        b.primal_iters = 4;
        a.merge_from(&b);
        assert_eq!(a.min_pivot, 0.5);
        assert_eq!(a.max_pivot, 2.0);
        assert_eq!(a.refactor_scheduled, 1);
        assert_eq!(a.refactor_singular_recovery, 1);
        assert_eq!(a.refactorizations(), 2);
        assert_eq!(a.iterations(), 7);
        assert_eq!(a.verdict(), HealthVerdict::Suspect);
    }

    /// A greedy run or a service session flushes one record per MIP solve
    /// into one handle: a Suspect solve followed by a clean one still
    /// exports the Suspect verdict and its extremes.
    #[test]
    fn flushed_gauges_keep_the_worst_solve() {
        let t = Telemetry::metrics_only();
        let mut suspect = SolveStats::default();
        suspect.record_eta(1e7);
        suspect.record_pivot(1e-6);
        suspect.record_pivot(4.0);
        suspect.solves = 1;
        let mut clean = SolveStats::default();
        clean.record_eta(2.0);
        clean.record_pivot(0.5);
        clean.solves = 1;
        assert_eq!(suspect.verdict(), HealthVerdict::Suspect);
        assert_eq!(clean.verdict(), HealthVerdict::Stable);
        suspect.flush_into(&t);
        clean.flush_into(&t);
        let snap = t.snapshot();
        assert_eq!(snap.gauge("lp.health.verdict"), Some(1.0));
        assert_eq!(snap.gauge("lp.health.growth_factor"), Some(1e7));
        assert_eq!(snap.gauge("lp.health.min_pivot"), Some(1e-6));
        assert_eq!(snap.gauge("lp.health.max_pivot"), Some(4.0));
        assert_eq!(snap.counter("lp.solves"), 2);
    }

    #[test]
    fn verdict_names() {
        assert_eq!(HealthVerdict::Stable.as_str(), "stable");
        assert_eq!(HealthVerdict::Suspect.as_str(), "suspect");
        assert_eq!(HealthVerdict::Unstable.as_str(), "unstable");
    }
}
