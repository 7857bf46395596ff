//! Bounded-variable revised simplex: primal (with a composite, artificial-
//! free phase 1) and dual (for branch-and-bound warm starts).
//!
//! # Standard form
//!
//! The user problem `rlo ≤ Ax ≤ rup, l ≤ x ≤ u` is augmented with one slack
//! per row: `Ax − s = 0`, `s ∈ [rlo, rup]`. All constraints become equalities
//! with right-hand side 0 and the all-slack basis (`B = −I`) is always
//! structurally nonsingular, so the solver can start — and warm-start — from
//! any recorded basis without artificial variables.
//!
//! # Phase 1 (primal)
//!
//! Feasibility is attained by minimizing the sum of bound violations of the
//! basic variables ("composite objective"): a basic variable below its lower
//! bound gets phase-1 cost −1, above its upper bound +1, otherwise 0. The
//! ratio test lets an infeasible basic variable travel to the bound it is
//! violating (first-breakpoint rule) where it leaves the basis feasibly.
//!
//! # Dual simplex
//!
//! After a bound change the old optimal basis stays *dual* feasible (reduced
//! costs are untouched) while a few basic variables may violate their new
//! bounds. [`Simplex::solve_warm`] runs the dual simplex from that basis —
//! typically a handful of pivots per branch-and-bound node. A start that is
//! not dual feasible is repaired in place where it can be: a nonbasic
//! variable with two finite bounds whose reduced cost has the wrong sign
//! moves to its other bound (bound-flipping dual phase 1, Koberstein & Suhl,
//! "Progress in the dual simplex method for large scale LP problems:
//! practical dual phase 1 algorithms", COAP 2007), which trades the dual
//! infeasibility for primal infeasibility the dual simplex then removes.
//! Only a dual-infeasible variable with an infinite bound sends the solve to
//! the primal phases. A basis recorded with [`Simplex::save_basis`] and
//! installed by [`Simplex::load_basis`] is factorized by the next solve, so
//! each branch-and-bound node can re-solve from its parent's basis.
//!
//! The same repair makes a fresh engine's all-slack basis a dual start when
//! every structural column has two finite bounds, as in the TVNEP models, so
//! the branch-and-bound driver solves its root with `solve_warm` too.
//! [`Simplex::solve`] is the primal entry (phase 1, a perturbed phase 2, a
//! cleanup pass and a verification after a fresh factorization) for the
//! dual simplex's fallbacks and for callers outside the search.
//!
//! # Basis kernel and numerical safety
//!
//! The basis is held as a sparse LU factorization (Markowitz pivot order,
//! threshold partial pivoting — see [`crate::factor`]) with product-form eta
//! updates between refactorizations, so FTRAN/BTRAN cost O(fill) instead of
//! O(m²). The factorization is rebuilt every [`REFACTOR_EVERY`] pivots or
//! earlier when the eta file outgrows [`ETA_FILL_PER_ROW`] × m nonzeros,
//! and claimed optima are re-verified after a fresh factorization before
//! being reported. Pricing uses devex reference weights (primal and dual)
//! over a rotating candidate window; prolonged degeneracy switches to
//! Bland's rule.
//!
//! # Numeric configuration
//!
//! The tolerances are the workspace ladder in `tvnep_model::tol`
//! ([`FEAS_TOL`], [`OPT_TOL`], [`PIVOT_TOL`]) and the schedule constants
//! below are fixed; only the two per-solve limits are settable,
//! [`Simplex::set_deadline`] and [`Simplex::set_iteration_limit`].
//!
//! A pivot costs what its nonzeros cost (Hall & McKinnon, "Hyper-sparsity
//! in the revised simplex method and how to exploit it", COAP 2005). The
//! FTRAN spike and the unit BTRAN come back with their supports, and the
//! eta push, the devex row update, the `x_B` updates and the primal ratio
//! test walk the spike's support. The dual ratio test needs the pivot row
//! `α = ρᵀA`; a row-wise copy of `A`, built once with the solver, forms it
//! by scattering each nonzero `ρ_r` along row `r`, rows ascending, so every
//! `α_j` sums its terms in the order of a column dot product and comes out
//! bit-equal to one. The ratio test, the reduced-cost update and the reset
//! of `α` then visit only the nonbasic columns the row touched.

use std::time::{Duration, Instant};

use crate::bitset::BitSet;
use crate::factor::BasisFactor;
use crate::health::{RefactorCause, SolveStats};
use crate::pricing::Devex;
use crate::problem::{LpProblem, INF};
use crate::sparse::CscMatrix;
use tvnep_model::tol::{FEAS_TOL, OPT_TOL, PIVOT_TOL};
use tvnep_telemetry::blackbox::{HEALTH_STABLE, LP_MILESTONE_EVERY};
use tvnep_telemetry::{EventKind, FlightHandle, Telemetry};

/// Rebuild the basis factorization after this many pivots.
const REFACTOR_EVERY: usize = 150;

/// Eta-file fill budget: refactorize early once the eta file holds more
/// than `ETA_FILL_PER_ROW × m` off-pivot nonzeros (dense-spike pivots fill
/// the file fast; replay cost then rivals a fresh factorization).
const ETA_FILL_PER_ROW: usize = 8;

/// Consecutive degenerate pivots before the primal phases switch to
/// Bland's rule and the dual simplex hands over to them.
const DEGEN_SWITCH: usize = 300;

/// Per-solve iteration cap (phases combined) until
/// [`Simplex::set_iteration_limit`] sets another.
const ITERATION_LIMIT: usize = 500_000;

/// Outcome of a simplex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// Phase 1 terminated with positive infeasibility.
    Infeasible,
    /// Phase 2 found an improving ray.
    Unbounded,
    /// Iteration limit hit before convergence.
    IterationLimit,
    /// The deadline set by [`Simplex::set_deadline`] passed mid-solve.
    TimeLimit,
    /// Numerical verification failed repeatedly.
    Numerical,
}

impl LpStatus {
    /// Stable numeric code used as the `b` payload of black-box
    /// [`EventKind::LpSolve`] events.
    pub fn code(self) -> u64 {
        match self {
            LpStatus::Optimal => 0,
            LpStatus::Infeasible => 1,
            LpStatus::Unbounded => 2,
            LpStatus::IterationLimit => 3,
            LpStatus::TimeLimit => 4,
            LpStatus::Numerical => 5,
        }
    }
}

/// Position of a variable relative to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis; value stored in `xb`.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable resting at zero.
    Free,
}

/// A snapshot of the basis, sufficient to warm-start a later solve: the
/// [`VarStatus`] of every column (structural, then slack), packed 2 bits
/// each. The basic set is implied — the columns marked basic, taken in index
/// order — so a snapshot costs `⌈n/4⌉` bytes for `n` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    packed: Box<[u8]>,
}

impl Basis {
    fn pack(status: &[VarStatus]) -> Self {
        let mut packed = vec![0u8; Self::packed_len(status.len())].into_boxed_slice();
        for (j, s) in status.iter().enumerate() {
            let code = match s {
                VarStatus::Basic => 0,
                VarStatus::AtLower => 1,
                VarStatus::AtUpper => 2,
                VarStatus::Free => 3,
            };
            packed[j / 4] |= code << (2 * (j % 4));
        }
        Self { packed }
    }

    fn status(&self, j: usize) -> VarStatus {
        match (self.packed[j / 4] >> (2 * (j % 4))) & 3 {
            0 => VarStatus::Basic,
            1 => VarStatus::AtLower,
            2 => VarStatus::AtUpper,
            _ => VarStatus::Free,
        }
    }

    /// Heap bytes of a snapshot of an LP with `columns` columns
    /// (structural variables plus one slack per row).
    pub fn packed_len(columns: usize) -> usize {
        columns.div_ceil(4)
    }
}

/// Result of [`solve`]: status plus (when feasible) the optimal point.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value including the problem's offset (meaningful when
    /// `status == Optimal`).
    pub objective: f64,
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Row activities `Ax`.
    pub row_activity: Vec<f64>,
    /// Simplex iterations performed.
    pub iterations: usize,
}

/// One-shot convenience wrapper around [`Simplex`].
pub fn solve(problem: &LpProblem) -> LpSolution {
    let mut s = Simplex::new(problem);
    let status = s.solve();
    s.extract(status)
}

/// Reusable simplex instance; supports bound changes and warm starts, which
/// the branch-and-bound layer relies on.
pub struct Simplex {
    m: usize,
    n_struct: usize,
    n_total: usize,
    /// `m × n_total` matrix: structural columns then `−1`-diagonal slacks.
    cols: CscMatrix,
    /// The same matrix stored by rows, for the dual simplex's pivot row.
    rows: CscMatrix,
    obj: Vec<f64>,
    /// Slightly perturbed costs used for *pricing only*: the TVNEP LPs have
    /// almost entirely zero objectives, making them massively degenerate;
    /// unique-ish perturbed costs give every pivot strict dual progress.
    /// Reported objectives and final optimality checks always use `obj`.
    obj_pert: Vec<f64>,
    lo: Vec<f64>,
    up: Vec<f64>,
    obj_offset: f64,

    basis: Vec<usize>,
    status: Vec<VarStatus>,
    xb: Vec<f64>,
    /// Sparse LU factors plus the eta file accumulated since the last
    /// refactorization (see [`crate::factor`]).
    factor: BasisFactor,
    /// Pivots since the last refactorization.
    pivots_since_refactor: usize,
    iterations: usize,
    /// Iteration count at entry to the current public solve; the
    /// iteration limit is per solve, not per instance lifetime.
    iter_base: usize,
    /// Per-solve iteration cap; see [`Simplex::set_iteration_limit`].
    iteration_limit: usize,
    /// Wall-clock deadline, checked every 64 iterations mid-solve.
    deadline: Option<Instant>,
    /// Rotating start column for candidate-list partial pricing; survives
    /// across solves so successive prices walk different windows.
    pricing_cursor: usize,
    /// Scratch buffers reused across iterations to avoid allocation.
    scratch_w: Vec<f64>,
    /// Ascending positions of `scratch_w` that may be nonzero: the support
    /// of the last FTRAN spike.
    w_support: Vec<usize>,
    scratch_y: Vec<f64>,
    /// `scratch_y` holds the true-cost duals `c_Bᵀ B⁻¹` of the current
    /// basis and factors (see [`Simplex::true_duals`]); any other BTRAN of
    /// costs, pivot, refactorization or new basis clears it.
    duals_current: bool,
    /// Basic-cost vector consumed by [`Simplex::btran_costs`] (length `m`).
    scratch_cb: Vec<f64>,
    /// Dual-simplex reduced costs (length `n_total`).
    scratch_d: Vec<f64>,
    /// Dual-simplex pivot row of `B⁻¹` (length `m`).
    scratch_rho: Vec<f64>,
    /// Ascending rows of `scratch_rho` that may be nonzero.
    rho_support: Vec<usize>,
    /// Dual-simplex pivot-row coefficients `ρ'A_j` (length `n_total`).
    scratch_alpha: Vec<f64>,
    /// Columns the pivot row touched, while it is formed.
    alpha_touched: BitSet,
    /// The nonbasic, non-fixed columns of the pivot row, ascending: the
    /// only columns where `scratch_alpha` may be nonzero.
    alpha_cols: Vec<usize>,
    /// Right-hand side accumulator for [`Simplex::recompute_xb`].
    scratch_rhs: Vec<f64>,
    /// Devex reference weights for primal entering-column pricing
    /// (length `n_total`), reset per phase.
    primal_devex: Devex,
    /// Devex reference weights for dual leaving-row pricing (length `m`),
    /// reset per dual run.
    dual_devex: Devex,
    /// The engine's record of work and numerical health, cumulative over
    /// all solves; see [`crate::health`].
    pub stats: SolveStats,
    /// Observability sink; disabled (free) by default.
    telemetry: Telemetry,
    /// Cached `telemetry.spans_enabled()`, refreshed at every public solve
    /// entry; the per-kernel clocks below only tick when it is true, so the
    /// profiler costs one branch per kernel call when off.
    spans_on: bool,
    /// Wall-time accumulators for the hot kernels of the *current* solve.
    /// One span per kernel call would swamp the buffers (a solve runs up to
    /// its iteration limit); the totals are emitted as one aggregate child
    /// span each inside the enclosing `lp.solve`/`lp.solve_warm` span.
    kernels: KernelClocks,
    /// Black-box flight-recorder handle; `None` (one branch per event site)
    /// unless crash diagnostics are on. Feeds the progress pulse per pivot
    /// and records solve/refactorization/milestone events.
    blackbox: Option<FlightHandle>,
}

/// Accumulated nanoseconds and call counts per hot simplex kernel.
#[derive(Debug, Clone, Copy, Default)]
struct KernelClocks {
    pricing_ns: u64,
    pricing_calls: u64,
    ftran_ns: u64,
    ftran_calls: u64,
    btran_ns: u64,
    btran_calls: u64,
    /// Sparse LU factorizations, singular ones included (the successful
    /// ones are `SolveStats::refactorizations()`).
    factor_ns: u64,
    factor_calls: u64,
    /// Devex weight maintenance (distinct from `pricing_ns`, which times the
    /// candidate scan itself).
    price_ns: u64,
    price_calls: u64,
}

impl Simplex {
    /// Builds a solver for `problem`, starting from the all-slack basis,
    /// which the first solve factorizes. Read no values before that solve.
    pub fn new(problem: &LpProblem) -> Self {
        let m = problem.num_rows();
        let n_struct = problem.num_vars();
        let n_total = n_struct + m;
        let (row_ptr, terms) = problem.row_store();
        let (cols, rows) = CscMatrix::with_slacks(n_struct, row_ptr, terms);
        let mut obj = Vec::with_capacity(n_total);
        obj.extend_from_slice(problem.objective());
        obj.resize(n_total, 0.0);
        // Deterministic tiny perturbation (splitmix64 per index).
        let obj_pert: Vec<f64> = obj
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let mut z = (j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                let eps = 1e-9 * (1.0 + c.abs()) * (0.5 + unit);
                let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
                c + sign * eps
            })
            .collect();
        let lo = [problem.var_lower(), problem.row_lower()].concat();
        let up = [problem.var_upper(), problem.row_upper()].concat();
        let mut alpha_touched = BitSet::default();
        alpha_touched.resize(n_total);
        let mut s = Self {
            m,
            n_struct,
            n_total,
            cols,
            rows,
            obj,
            obj_pert,
            lo,
            up,
            obj_offset: problem.obj_offset(),
            basis: Vec::new(),
            status: Vec::new(),
            xb: Vec::new(),
            factor: BasisFactor::default(),
            pivots_since_refactor: 0,
            iterations: 0,
            iter_base: 0,
            iteration_limit: ITERATION_LIMIT,
            deadline: None,
            pricing_cursor: 0,
            scratch_w: vec![0.0; m],
            w_support: Vec::with_capacity(m),
            scratch_y: vec![0.0; m],
            duals_current: false,
            scratch_cb: vec![0.0; m],
            scratch_d: vec![0.0; n_total],
            scratch_rho: vec![0.0; m],
            rho_support: Vec::with_capacity(m),
            scratch_alpha: vec![0.0; n_total],
            alpha_touched,
            alpha_cols: Vec::with_capacity(n_total),
            scratch_rhs: vec![0.0; m],
            primal_devex: Devex::default(),
            dual_devex: Devex::default(),
            stats: SolveStats::default(),
            telemetry: Telemetry::disabled(),
            spans_on: false,
            kernels: KernelClocks::default(),
            blackbox: None,
        };
        s.install_slack_basis();
        s
    }

    /// Sets the wall-clock deadline after which a solve returns
    /// [`LpStatus::TimeLimit`] (`None`, the default, for no deadline).
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Sets the number of iterations (phases combined) after which a solve
    /// returns [`LpStatus::IterationLimit`]; the count restarts at every
    /// [`solve`](Self::solve) and [`solve_warm`](Self::solve_warm). The
    /// default is 500,000.
    pub fn set_iteration_limit(&mut self, limit: usize) {
        self.iteration_limit = limit;
    }

    /// Attaches an observability sink. Each top-level [`solve`](Self::solve)
    /// or [`solve_warm`](Self::solve_warm) observes its iterations into
    /// `lp.iters_per_solve`, and records an `lp.solve` / `lp.solve_warm` span
    /// when the sink records spans; a disabled handle costs one pointer
    /// check per solve. The counters stay in [`stats`](Self::stats) until
    /// its owner flushes them.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attaches (or detaches) a black-box flight-recorder handle. When set,
    /// every pivot bumps the recorder's progress pulse, every
    /// [`LP_MILESTONE_EVERY`] pivots record a milestone event, each
    /// refactorization records its cause and publishes the current health
    /// verdict, and each completed solve records an
    /// [`EventKind::LpSolve`] event.
    pub fn set_blackbox(&mut self, blackbox: Option<FlightHandle>) {
        self.blackbox = blackbox;
    }

    /// Per-pivot black-box hook: one `Option` branch when detached. `phase`
    /// is 0 for the dual simplex, 1/2 for the primal phases.
    #[inline]
    fn blackbox_iter_tick(&self, phase: u64) {
        if let Some(bb) = &self.blackbox {
            bb.pulse().add_lp_iters(1);
            let total = self.iterations as u64;
            if total.is_multiple_of(LP_MILESTONE_EVERY) {
                bb.record(EventKind::LpMilestone, total, phase);
            }
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.n_struct
    }

    /// Heap bytes held by this solver instance: the constraint matrix and
    /// its row-wise copy, the sparse basis factorization (LU triangles + eta
    /// file + solve workspace), the devex weight arrays, and every scratch
    /// vector and support list (capacities, not lengths). Exported as the
    /// `mem.lp.simplex_bytes` gauge — the "LP scratch" line of the paper's
    /// model-size discussion. Unlike the retired dense kernel (three `m × m`
    /// buffers, O(m²)), the footprint now scales with basis fill:
    /// O(nnz(L) + nnz(U) + eta fill).
    pub fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        self.cols.memory_bytes()
            + self.rows.memory_bytes()
            + self.factor.memory_bytes()
            + self.primal_devex.memory_bytes()
            + self.dual_devex.memory_bytes()
            + (self.obj.capacity()
                + self.obj_pert.capacity()
                + self.lo.capacity()
                + self.up.capacity()
                + self.xb.capacity()
                + self.scratch_w.capacity()
                + self.scratch_y.capacity()
                + self.scratch_cb.capacity()
                + self.scratch_d.capacity()
                + self.scratch_rho.capacity()
                + self.scratch_alpha.capacity()
                + self.scratch_rhs.capacity())
                * f
            + (self.basis.capacity()
                + self.w_support.capacity()
                + self.rho_support.capacity()
                + self.alpha_cols.capacity())
                * u
            + self.alpha_touched.memory_bytes()
            + self.status.capacity() * std::mem::size_of::<VarStatus>()
    }

    /// Resets to the all-slack basis with structural variables at the bound
    /// closest to zero, and factorizes it.
    pub fn reset_basis(&mut self) {
        self.install_slack_basis();
        self.rebuild_state();
    }

    /// Installs the all-slack basis with structural variables at the bound
    /// closest to zero, leaving the factors stale.
    fn install_slack_basis(&mut self) {
        self.basis.clear();
        self.basis.extend(self.n_struct..self.n_total);
        self.status.clear();
        self.status.extend((0..self.n_total).map(|j| {
            if j >= self.n_struct {
                VarStatus::Basic
            } else {
                Self::resting_status(self.lo[j], self.up[j])
            }
        }));
        self.factor.invalidate();
        self.duals_current = false;
    }

    fn resting_status(lo: f64, up: f64) -> VarStatus {
        if lo.is_finite() {
            if up.is_finite() && up.abs() < lo.abs() {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            }
        } else if up.is_finite() {
            VarStatus::AtUpper
        } else {
            VarStatus::Free
        }
    }

    /// Changes the bounds of structural variable `j` (used by branch &
    /// bound). The basis is kept; call [`solve_warm`](Self::solve_warm) to
    /// re-optimize.
    pub fn set_var_bounds(&mut self, j: usize, lo: f64, up: f64) {
        assert!(j < self.n_struct && lo <= up);
        self.lo[j] = lo;
        self.up[j] = up;
    }

    /// Current bounds of structural variable `j`.
    pub fn var_bounds(&self, j: usize) -> (f64, f64) {
        (self.lo[j], self.up[j])
    }

    /// Changes the activity bounds of row `i` (the bounds of its slack).
    /// The basis is kept, as by [`set_var_bounds`](Self::set_var_bounds).
    pub fn set_row_bounds(&mut self, i: usize, lo: f64, up: f64) {
        assert!(i < self.m && lo <= up);
        self.lo[self.n_struct + i] = lo;
        self.up[self.n_struct + i] = up;
    }

    /// Current activity bounds of row `i`.
    pub fn row_bounds(&self, i: usize) -> (f64, f64) {
        (self.lo[self.n_struct + i], self.up[self.n_struct + i])
    }

    /// Puts the engine in the state [`Simplex::new`] leaves on the problem
    /// with the current bounds: the all-slack basis with statuses from those
    /// bounds and stale factors, the pricing cursor at column 0 and the
    /// iteration count at 0 (the dual simplex seeds its anti-stall choice
    /// from it, and the deadline check and the flight recorder's milestones
    /// read it). The next solve then takes the pivots, and returns the
    /// status, iteration count and bits, of a fresh engine's first solve.
    /// The limits, the telemetry and flight-recorder handles and the
    /// cumulative [`stats`](Self::stats) are kept, and so are the buffers,
    /// which the restarted solve reuses.
    pub fn restart(&mut self) {
        self.install_slack_basis();
        self.iterations = 0;
        self.pricing_cursor = 0;
    }

    /// Records the current basis for later [`load_basis`](Self::load_basis).
    pub fn save_basis(&self) -> Basis {
        Basis::pack(&self.status)
    }

    /// Installs a recorded basis. Only the statuses are installed: the
    /// factors are marked stale, and the next [`solve`](Self::solve) or
    /// [`solve_warm`](Self::solve_warm) factorizes the basis and re-clamps
    /// nonbasic variables to the bounds current at that time. Read no values
    /// before that solve.
    pub fn load_basis(&mut self, b: &Basis) {
        assert_eq!(b.packed.len(), Basis::packed_len(self.n_total));
        self.basis.clear();
        for j in 0..self.n_total {
            let s = b.status(j);
            if s == VarStatus::Basic {
                self.basis.push(j);
            }
            self.status[j] = s;
        }
        assert_eq!(
            self.basis.len(),
            self.m,
            "recorded basis has the wrong size"
        );
        self.factor.invalidate();
        self.duals_current = false;
    }

    /// Re-clamps nonbasic statuses after bound changes: a status pointing at
    /// an infinite bound is moved to a finite one (or `Free`).
    fn normalize_nonbasic_statuses(&mut self) {
        for j in 0..self.n_total {
            match self.status[j] {
                VarStatus::Basic => {}
                VarStatus::AtLower if self.lo[j].is_finite() => {}
                VarStatus::AtUpper if self.up[j].is_finite() => {}
                _ => self.status[j] = Self::resting_status(self.lo[j], self.up[j]),
            }
        }
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lo[j],
            VarStatus::AtUpper => self.up[j],
            VarStatus::Free => 0.0,
            VarStatus::Basic => unreachable!("basic variable has no resting value"),
        }
    }

    fn deadline_hit(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Rebuilds the sparse LU factorization of the basis (Markowitz pivot
    /// order with threshold partial pivoting), dropping the eta file.
    /// Returns `false` on a singular basis. Each rebuild is recorded here
    /// once: its cause (or the singular basis) in `stats`, and, with a
    /// flight recorder attached, a `Refactor` event and the verdict in the
    /// recorder's health register.
    fn refactorize(&mut self, cause: RefactorCause) -> bool {
        self.duals_current = false;
        let t0 = self.spans_on.then(Instant::now);
        let ok = self.factor.factorize(&self.cols, &self.basis);
        if let Some(t0) = t0 {
            self.kernels.factor_ns += t0.elapsed().as_nanos() as u64;
            self.kernels.factor_calls += 1;
        }
        if ok {
            self.pivots_since_refactor = 0;
            self.stats.record_refactor(cause);
        } else {
            self.stats.singular_bases += 1;
        }
        if let Some(bb) = &self.blackbox {
            let total = self.stats.refactorizations() as u64;
            bb.record(EventKind::Refactor, cause as u64, total);
            // Keep the recorder's health register fresh so a crash dump
            // carries the verdict as of the last factorization, not the
            // last clean solve exit. The register's codes follow the
            // verdict's order, one above it.
            bb.recorder()
                .set_health(HEALTH_STABLE + self.stats.verdict() as u64);
        }
        ok
    }

    /// True when the periodic refactorization is due: [`REFACTOR_EVERY`]
    /// pivots have passed, or the eta file has outgrown its fill budget
    /// ([`ETA_FILL_PER_ROW`]) early.
    fn refactor_due(&self) -> bool {
        self.pivots_since_refactor >= REFACTOR_EVERY
            || self.factor.eta_nnz() > ETA_FILL_PER_ROW * self.m
    }

    /// Recomputes `xb = B⁻¹ (0 − N x_N)` in place.
    fn recompute_xb(&mut self) {
        let m = self.m;
        self.scratch_rhs.iter_mut().for_each(|v| *v = 0.0);
        for j in 0..self.n_total {
            if self.status[j] != VarStatus::Basic {
                let v = self.nonbasic_value(j);
                if v != 0.0 {
                    self.cols.axpy_column(j, -v, &mut self.scratch_rhs);
                }
            }
        }
        self.xb.resize(m, 0.0);
        self.xb.copy_from_slice(&self.scratch_rhs);
        self.factor.ftran(&mut self.xb);
    }

    fn rebuild_state(&mut self) {
        if !self.refactorize(RefactorCause::Scheduled) {
            // A recorded basis can become singular only through memory
            // corruption; the all-slack basis never is.
            self.install_slack_basis();
            let ok = self.refactorize(RefactorCause::SingularRecovery);
            assert!(ok, "slack basis must be nonsingular");
        }
        self.recompute_xb();
    }

    /// `w = B⁻¹ A_q` into `scratch_w`, its support into `w_support`
    /// (hypersparse triangular solves + eta replay). Only the previous
    /// spike's support is cleared first.
    fn ftran(&mut self, q: usize) {
        let t0 = self.spans_on.then(Instant::now);
        for &i in &self.w_support {
            self.scratch_w[i] = 0.0;
        }
        self.cols.axpy_column(q, 1.0, &mut self.scratch_w);
        self.factor.ftran_sparse(
            &mut self.scratch_w,
            self.cols.column(q).0,
            &mut self.w_support,
        );
        if let Some(t0) = t0 {
            self.kernels.ftran_ns += t0.elapsed().as_nanos() as u64;
            self.kernels.ftran_calls += 1;
        }
    }

    /// Fills `scratch_cb` with the basic costs for the given phase and
    /// perturbation setting (phase-1 composite costs, perturbed pricing
    /// costs, or the true objective).
    fn fill_basic_costs(&mut self, phase1: bool, pert: bool) {
        for i in 0..self.m {
            let j = self.basis[i];
            self.scratch_cb[i] = if phase1 {
                if self.xb[i] < self.lo[j] - FEAS_TOL {
                    -1.0
                } else if self.xb[i] > self.up[j] + FEAS_TOL {
                    1.0
                } else {
                    0.0
                }
            } else if pert {
                self.obj_pert[j]
            } else {
                self.obj[j]
            };
        }
    }

    /// `y = c_B' B⁻¹` into `scratch_y`, with `c_B` read from `scratch_cb`
    /// (filled by [`Simplex::fill_basic_costs`]).
    fn btran_costs(&mut self) {
        self.duals_current = false;
        let t0 = self.spans_on.then(Instant::now);
        let m = self.m;
        self.scratch_y[..m].copy_from_slice(&self.scratch_cb[..m]);
        self.factor.btran(&mut self.scratch_y);
        if let Some(t0) = t0 {
            self.kernels.btran_ns += t0.elapsed().as_nanos() as u64;
            self.kernels.btran_calls += 1;
        }
    }

    /// The true-cost duals `y = c_Bᵀ B⁻¹` into `scratch_y`, unless it holds
    /// them already: the optimality check that ends a solve leaves them
    /// there, and reduced-cost fixing reads them with no second BTRAN.
    fn true_duals(&mut self) {
        if !self.duals_current {
            self.fill_basic_costs(false, false);
            self.btran_costs();
            self.duals_current = true;
        }
    }

    /// `ρ = B⁻ᵀ e_r` into `scratch_rho` and its support into `rho_support`
    /// — row `r` of `B⁻¹` via a unit-rhs BTRAN (the dual pivot row and the
    /// devex update row). Only the previous row's support is cleared first.
    fn btran_unit(&mut self, r: usize) {
        let t0 = self.spans_on.then(Instant::now);
        for &i in &self.rho_support {
            self.scratch_rho[i] = 0.0;
        }
        self.scratch_rho[r] = 1.0;
        self.factor
            .btran_sparse(&mut self.scratch_rho, &[r], &mut self.rho_support);
        if let Some(t0) = t0 {
            self.kernels.btran_ns += t0.elapsed().as_nanos() as u64;
            self.kernels.btran_calls += 1;
        }
    }

    /// Basis-exchange update after a pivot at row `r` with direction
    /// `w = B⁻¹ A_q` (in `scratch_w`): appends one sparse eta vector in one
    /// pass over the spike's support, so the update costs O(nnz of the
    /// spike) instead of the dense kernel's O(m²).
    fn update_factor(&mut self, r: usize) {
        let inv_piv = 1.0 / self.scratch_w[r];
        let eta_max = self
            .factor
            .push_eta_sparse(r, &self.scratch_w, &self.w_support);
        // Eta growth estimate `max_i |w_i| / |w_r|`: large eta entries are
        // the classic product-form error-amplification signal.
        self.stats.record_eta(eta_max * inv_piv.abs());
        self.pivots_since_refactor += 1;
        self.duals_current = false;
    }

    /// Total bound violation of the basic variables.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for (i, &j) in self.basis.iter().enumerate() {
            let v = self.xb[i];
            if v < self.lo[j] {
                total += self.lo[j] - v;
            } else if v > self.up[j] {
                total += v - self.up[j];
            }
        }
        total
    }

    /// Runs phase 1 (if needed) and phase 2 from the current basis.
    pub fn solve(&mut self) -> LpStatus {
        let before = self.iterations;
        self.iter_base = before;
        let profile = self.begin_profile();
        let status = self.solve_inner();
        self.record_solve(before, status);
        self.end_profile("lp.solve", profile, before);
        status
    }

    /// Refreshes the cached span toggle and, when profiling, resets the
    /// kernel clocks and returns the span start offset.
    fn begin_profile(&mut self) -> Option<Duration> {
        self.spans_on = self.telemetry.spans_enabled();
        if self.spans_on {
            self.kernels = KernelClocks::default();
            Some(self.telemetry.elapsed())
        } else {
            None
        }
    }

    /// Emits the solve span plus one aggregate child span per hot kernel.
    /// The children are laid out sequentially from the parent's start (their
    /// true intervals interleave per iteration, far below trace resolution);
    /// each carries its call count, and the layout preserves the containment
    /// and monotone-timestamp invariants Chrome's trace viewer requires.
    fn end_profile(&mut self, name: &'static str, started: Option<Duration>, iters_before: usize) {
        let Some(start) = started else { return };
        let end = self.telemetry.elapsed();
        let total = end.saturating_sub(start);
        let iters = (self.iterations - iters_before) as f64;
        self.telemetry
            .record_span(name, start, total, vec![("iters", iters)]);
        let k = self.kernels;
        let mut cursor = start;
        let limit = start + total;
        for (kname, ns, calls) in [
            ("lp.pricing", k.pricing_ns, k.pricing_calls),
            ("lp.price", k.price_ns, k.price_calls),
            ("lp.ftran", k.ftran_ns, k.ftran_calls),
            ("lp.btran", k.btran_ns, k.btran_calls),
            ("lp.factor", k.factor_ns, k.factor_calls),
        ] {
            if calls == 0 {
                continue;
            }
            let mut dur = Duration::from_nanos(ns);
            if cursor + dur > limit {
                dur = limit.saturating_sub(cursor);
            }
            self.telemetry
                .record_span(kname, cursor, dur, vec![("calls", calls as f64)]);
            cursor += dur;
        }
    }

    /// Records a finished solve: its count, its flight-recorder event and
    /// its iteration count.
    fn record_solve(&mut self, iters_before: usize, status: LpStatus) {
        let iters = (self.iterations - iters_before) as u64;
        self.stats.solves += 1;
        // Black-box record is independent of the telemetry sink: crash
        // diagnostics stay on even when metrics are off.
        if let Some(bb) = &self.blackbox {
            bb.record(EventKind::LpSolve, iters, status.code());
        }
        self.telemetry.observe("lp.iters_per_solve", iters as f64);
    }

    fn solve_inner(&mut self) -> LpStatus {
        // Bounds may have changed since the basis was recorded.
        self.normalize_nonbasic_statuses();
        if (self.pivots_since_refactor > 0 || !self.factor.is_ready(self.m))
            && !self.refactorize(RefactorCause::Scheduled)
        {
            self.reset_basis();
        }
        self.recompute_xb();

        match self.run_phase(true, false) {
            LpStatus::Optimal => {}
            other => return other,
        }
        if self.infeasibility() > FEAS_TOL * 10.0 {
            return LpStatus::Infeasible;
        }
        // Phase 2: fast perturbed pass, exact cleanup pass, verification
        // after a fresh factorization; resume on disagreement.
        for attempt in 0..4 {
            match self.run_phase(false, true) {
                LpStatus::Optimal | LpStatus::Unbounded => {}
                other => return other,
            }
            // Cleanup with the true costs decides optimality/unboundedness.
            match self.run_phase(false, false) {
                LpStatus::Optimal => {}
                other => return other,
            }
            // The first verification pass is part of every solve (scheduled);
            // a repeat means the previous verification failed — the inverse
            // had drifted, so the rebuild is instability-triggered.
            let ok1 = self.refactorize(if attempt == 0 {
                RefactorCause::Scheduled
            } else {
                RefactorCause::Instability
            });
            self.recompute_xb();
            if ok1 && self.infeasibility() <= FEAS_TOL * 100.0 && !self.has_improving_direction() {
                return LpStatus::Optimal;
            }
            match self.run_phase(true, false) {
                LpStatus::Optimal => {}
                other => return other,
            }
            if self.infeasibility() > FEAS_TOL * 10.0 {
                return LpStatus::Infeasible;
            }
        }
        LpStatus::Numerical
    }

    /// Re-optimizes after bound changes: dual simplex from the current basis
    /// (dual feasibility survives bound changes), falling back to the primal
    /// phases on any trouble. This is the branch-and-bound workhorse, and it
    /// solves the root as well: on a fresh engine it factorizes the
    /// all-slack basis, and bound flips make that start dual feasible
    /// unless a wrong-signed reduced cost sits on a column with an infinite
    /// bound (counted in `stats.dual_fallbacks`).
    pub fn solve_warm(&mut self) -> LpStatus {
        let before = self.iterations;
        self.iter_base = before;
        let profile = self.begin_profile();
        let status = self.solve_warm_inner();
        self.record_solve(before, status);
        self.end_profile("lp.solve_warm", profile, before);
        status
    }

    fn solve_warm_inner(&mut self) -> LpStatus {
        self.stats.warm_calls += 1;
        self.normalize_nonbasic_statuses();
        // A basis installed by `load_basis` arrives unfactored; factorizing
        // it here books the cost under this solve's `lp.factor` span.
        if !self.factor.is_ready(self.m) && !self.refactorize(RefactorCause::Scheduled) {
            self.stats.dual_fallbacks += 1;
            self.reset_basis();
            return self.solve_inner();
        }
        self.recompute_xb();
        let before = self.iterations;
        let dual_status = self.dual_simplex();
        self.stats.dual_iters += self.iterations - before;
        match dual_status {
            LpStatus::Optimal => {
                // The dual optimized perturbed costs; clean up against the
                // true costs from this (near-optimal) basis, then verify.
                if self.infeasibility() <= FEAS_TOL * 100.0 && !self.has_improving_direction() {
                    self.stats.dual_successes += 1;
                    return LpStatus::Optimal;
                }
                match self.run_phase(false, false) {
                    LpStatus::Optimal => {}
                    other => return other,
                }
                if self.infeasibility() <= FEAS_TOL * 100.0 && !self.has_improving_direction() {
                    self.stats.dual_successes += 1;
                    LpStatus::Optimal
                } else {
                    self.stats.dual_fallbacks += 1;
                    self.solve_inner()
                }
            }
            LpStatus::Infeasible => {
                self.stats.dual_successes += 1;
                LpStatus::Infeasible
            }
            LpStatus::TimeLimit => LpStatus::TimeLimit,
            LpStatus::IterationLimit => LpStatus::IterationLimit,
            // Dual feasibility did not hold or numerics interfered: do the
            // full primal solve.
            _ => {
                self.stats.dual_fallbacks += 1;
                self.solve_inner()
            }
        }
    }

    /// True if any nonbasic variable has an improving reduced cost (phase 2).
    fn has_improving_direction(&mut self) -> bool {
        self.true_duals();
        let tol = OPT_TOL * 100.0;
        for j in 0..self.n_total {
            if self.status[j] == VarStatus::Basic || self.lo[j] == self.up[j] {
                continue;
            }
            let d = self.reduced_cost(j, false, false);
            match self.status[j] {
                VarStatus::AtLower if d < -tol => return true,
                VarStatus::AtUpper if d > tol => return true,
                VarStatus::Free if d.abs() > tol => return true,
                _ => {}
            }
        }
        false
    }

    /// The dual pivot row `α_j = ρ'A_j` over the nonbasic, non-fixed
    /// columns, into `scratch_alpha`, with those it touched listed in
    /// `alpha_cols`; see [`scatter_pivot_row`].
    fn pivot_row(&mut self) {
        let (status, lo, up) = (&self.status, &self.lo, &self.up);
        scatter_pivot_row(
            &self.rows,
            &self.scratch_rho,
            &self.rho_support,
            |j| status[j] != VarStatus::Basic && lo[j] != up[j],
            &mut self.scratch_alpha,
            &mut self.alpha_touched,
            &mut self.alpha_cols,
        );
    }

    fn reduced_cost(&self, j: usize, phase1: bool, pert: bool) -> f64 {
        let c = if phase1 {
            0.0
        } else if pert {
            self.obj_pert[j]
        } else {
            self.obj[j]
        };
        c - self.cols.column_dot(j, &self.scratch_y)
    }

    /// The dual simplex loop. A nonbasic variable with two finite bounds
    /// whose reduced cost has the wrong sign is first moved to its other
    /// bound (bound-flipping dual phase 1); any other dual infeasibility is
    /// reported as `Numerical` so callers can fall back.
    fn dual_simplex(&mut self) -> LpStatus {
        let m = self.m;
        // Reduced costs for all nonbasic variables, into the persistent
        // scratch vectors (zeroed here: a previous solve may have left them
        // dirty through an early return).
        self.fill_basic_costs(false, true);
        self.btran_costs();
        for j in 0..self.n_total {
            self.scratch_d[j] = if self.status[j] == VarStatus::Basic {
                0.0
            } else {
                self.reduced_cost(j, false, true)
            };
        }
        self.scratch_alpha.iter_mut().for_each(|a| *a = 0.0);
        // Verify dual feasibility within a loose tolerance, flipping boxed
        // violators to the bound their reduced cost favors.
        let dtol = OPT_TOL * 100.0;
        let mut flipped = false;
        for j in 0..self.n_total {
            if self.lo[j] == self.up[j] {
                continue;
            }
            let dj = self.scratch_d[j];
            let bad = match self.status[j] {
                VarStatus::Basic => false,
                VarStatus::AtLower => dj < -dtol,
                VarStatus::AtUpper => dj > dtol,
                VarStatus::Free => dj.abs() > dtol,
            };
            if !bad {
                continue;
            }
            if !(self.lo[j].is_finite() && self.up[j].is_finite()) {
                return LpStatus::Numerical; // caller falls back to primal
            }
            self.status[j] = if self.status[j] == VarStatus::AtLower {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            flipped = true;
        }
        if flipped {
            self.recompute_xb();
        }

        let mut degen_run = 0usize;
        // Deterministic xorshift for the anti-stall row choice.
        let mut rng_state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (self.iterations as u64 + 1);
        // Fresh devex reference framework per dual run: row weights
        // approximate ‖B⁻ᵀe_i‖² and steer the leaving-row choice toward
        // genuinely steep dual edges instead of the raw worst violation.
        self.dual_devex.reset(m);
        loop {
            if self.iterations - self.iter_base >= self.iteration_limit {
                return LpStatus::IterationLimit;
            }
            if self.iterations.is_multiple_of(64) && self.deadline_hit() {
                return LpStatus::TimeLimit;
            }
            if degen_run > DEGEN_SWITCH {
                // The TVNEP LPs are massively dual-degenerate (nearly all
                // costs are zero); prolonged zero-progress pivoting is better
                // handled by the primal phases. Caller falls back.
                return LpStatus::Numerical;
            }
            // Leaving row: best devex-weighted violation `viol²/δ_i`; under
            // stalling, a pseudo-random violated row (breaks ping-pong
            // patterns).
            let randomize = degen_run > 50;
            let mut r_best: Option<(usize, f64, bool)> = None; // (row, score, below)
            for i in 0..m {
                let j = self.basis[i];
                let v = self.xb[i];
                let (viol, below) = if v < self.lo[j] - FEAS_TOL {
                    (self.lo[j] - v, true)
                } else if v > self.up[j] + FEAS_TOL {
                    (v - self.up[j], false)
                } else {
                    continue;
                };
                let score = if randomize {
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    (rng_state >> 11) as f64
                } else {
                    self.dual_devex.score(i, viol)
                };
                if r_best.is_none_or(|(_, w, _)| score > w) {
                    r_best = Some((i, score, below));
                }
            }
            let Some((r, _viol, below)) = r_best else {
                return LpStatus::Optimal; // primal feasible, dual maintained
            };

            // ρ = row r of B⁻¹ (unit-rhs BTRAN); α_j = ρ'A_j for nonbasic j.
            self.btran_unit(r);
            self.pivot_row();
            // Dual ratio test: minimize |d_j| / |α_j| over eligible columns
            // (an untouched column has α_j = 0 and is never eligible).
            let mut best: Option<(usize, f64, f64)> = None; // (var, ratio, |alpha|)
            for &j in &self.alpha_cols {
                let a = self.scratch_alpha[j];
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let eligible = match (self.status[j], below) {
                    // Leaving exits at its lower bound: x_B[r] must increase.
                    (VarStatus::AtLower, true) => a < 0.0,
                    (VarStatus::AtUpper, true) => a > 0.0,
                    // Leaving exits at its upper bound: x_B[r] must decrease.
                    (VarStatus::AtLower, false) => a > 0.0,
                    (VarStatus::AtUpper, false) => a < 0.0,
                    (VarStatus::Free, _) => true,
                    (VarStatus::Basic, _) => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                let ratio = self.scratch_d[j].abs() / a.abs();
                // Under stalling, randomize the tie-break among the (many)
                // zero-ratio candidates instead of always taking max |α|.
                let score = if randomize {
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    (rng_state >> 11) as f64
                } else {
                    a.abs()
                };
                let better = match best {
                    None => true,
                    Some((_, br, ba)) => ratio < br - 1e-12 || (ratio < br + 1e-12 && score > ba),
                };
                if better {
                    best = Some((j, ratio, score));
                }
            }
            let Some((q, _ratio, _)) = best else {
                // No entering column can repair the violated row: infeasible.
                return LpStatus::Infeasible;
            };

            // Pivot: move x_B[r] exactly onto its violated bound.
            self.ftran(q);
            let w_r = self.scratch_w[r];
            if w_r.abs() <= PIVOT_TOL {
                return LpStatus::Numerical;
            }
            self.stats.record_pivot(w_r.abs());

            // Devex row-weight update (Forrest–Goldfarb), free of extra
            // solves: reuses the FTRAN spike already in `scratch_w`.
            // δ_i ← max(δ_i, (w_i/w_r)²·δ_r) for i ≠ r; the entering
            // variable lands in row r with δ_r ← max(δ_r/w_r², 1).
            let price_t0 = self.spans_on.then(Instant::now);
            let delta_r = self.dual_devex.weight(r);
            let inv_wr2 = 1.0 / (w_r * w_r);
            for &i in &self.w_support {
                if i != r {
                    let wi = self.scratch_w[i];
                    if wi != 0.0 {
                        self.dual_devex.bump(i, wi * wi * inv_wr2 * delta_r);
                    }
                }
            }
            self.dual_devex.set(r, delta_r * inv_wr2);
            if self.dual_devex.needs_reset() {
                self.dual_devex.reset(m);
            }
            if let Some(t0) = price_t0 {
                self.kernels.price_ns += t0.elapsed().as_nanos() as u64;
                self.kernels.price_calls += 1;
            }
            let jl = self.basis[r];
            let target = if below { self.lo[jl] } else { self.up[jl] };
            let delta_xbr = target - self.xb[r];
            let dx_q = -delta_xbr / w_r;
            // Update basic values: Δx_B = −w · Δx_q.
            for &i in &self.w_support {
                self.xb[i] -= self.scratch_w[i] * dx_q;
            }
            let entering_value = self.nonbasic_value(q) + dx_q;
            self.status[jl] = if below {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.basis[r] = q;
            self.status[q] = VarStatus::Basic;
            self.xb[r] = entering_value;

            // Incremental reduced-cost update over the pivot row:
            // d'_k = d_k − (d_q/α_q)·α_k.
            let theta = self.scratch_d[q] / self.scratch_alpha[q];
            if theta != 0.0 {
                for &k in &self.alpha_cols {
                    if self.status[k] != VarStatus::Basic && self.scratch_alpha[k] != 0.0 {
                        self.scratch_d[k] -= theta * self.scratch_alpha[k];
                    }
                }
            }
            self.scratch_d[jl] = -theta;
            self.scratch_d[q] = 0.0;
            for &k in &self.alpha_cols {
                self.scratch_alpha[k] = 0.0;
            }

            self.update_factor(r);
            self.iterations += 1;
            self.blackbox_iter_tick(0);
            // A dual-degenerate pivot makes no dual-objective progress
            // (θ = d_q/α_q ≈ 0), even though primal values move.
            if theta.abs() <= 1e-10 {
                degen_run += 1;
                self.stats.degenerate_pivots += 1;
            } else {
                degen_run = 0;
            }
            if self.refactor_due() {
                if !self.refactorize(RefactorCause::Scheduled) {
                    return LpStatus::Numerical;
                }
                self.recompute_xb();
                // Refresh reduced costs from scratch to bound drift.
                self.fill_basic_costs(false, true);
                self.btran_costs();
                for j in 0..self.n_total {
                    self.scratch_d[j] = if self.status[j] == VarStatus::Basic {
                        0.0
                    } else {
                        self.reduced_cost(j, false, true)
                    };
                }
            }
        }
    }

    /// Core pricing + ratio-test + pivot loop for one primal phase.
    /// `pert` selects the perturbed costs (anti-degeneracy); the final
    /// cleanup pass always runs with `pert = false`.
    fn run_phase(&mut self, phase1: bool, pert: bool) -> LpStatus {
        let mut degen_run = 0usize;
        // Tracks entry into Bland's-rule mode so the record can count
        // anti-cycling episodes and the iterations spent inside them.
        let mut in_bland = false;
        // Fresh devex reference framework per phase: column weights
        // approximate ‖B⁻¹a_j‖² so the Dantzig-style scan compares
        // d²_j/γ_j instead of |d_j|.
        self.primal_devex.reset(self.n_total);
        loop {
            if self.iterations - self.iter_base >= self.iteration_limit {
                return LpStatus::IterationLimit;
            }
            if self.iterations.is_multiple_of(64) && self.deadline_hit() {
                return LpStatus::TimeLimit;
            }
            if phase1 && self.infeasibility() <= FEAS_TOL {
                return LpStatus::Optimal;
            }
            // Price. Candidate-list partial pricing (Dantzig only): scan a
            // rotating window of columns and enter the best eligible one
            // found there; keep scanning past the window while nothing is
            // eligible, so optimality is still only ever declared after a
            // genuinely full scan. Bland's rule keeps its fixed column order
            // from index 0 — the anti-cycling guarantee depends on it.
            self.fill_basic_costs(phase1, pert);
            self.btran_costs();
            let price_t0 = self.spans_on.then(Instant::now);
            let bland = degen_run > DEGEN_SWITCH;
            if bland {
                self.stats.record_bland_iter(!in_bland);
            }
            in_bland = bland;
            let n = self.n_total;
            let (start, window) = if bland {
                (0, n)
            } else {
                (self.pricing_cursor % n, (n / 8).clamp(64.min(n), n))
            };
            let mut entering: Option<(usize, f64, f64)> = None; // (var, d, sigma)
            let mut best_score = 0.0f64;
            let mut scanned = 0usize;
            while scanned < n && !(scanned >= window && entering.is_some()) {
                let mut j = start + scanned;
                if j >= n {
                    j -= n;
                }
                scanned += 1;
                if self.status[j] == VarStatus::Basic || self.lo[j] == self.up[j] {
                    continue;
                }
                let d = self.reduced_cost(j, phase1, pert);
                let (eligible, sigma) = match self.status[j] {
                    VarStatus::AtLower => (d < -OPT_TOL, 1.0),
                    VarStatus::AtUpper => (d > OPT_TOL, -1.0),
                    VarStatus::Free => (d.abs() > OPT_TOL, if d < 0.0 { 1.0 } else { -1.0 }),
                    VarStatus::Basic => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                if bland {
                    entering = Some((j, d, sigma));
                    break;
                }
                // Devex score d²/γ_j layered on the candidate scan.
                let score = self.primal_devex.score(j, d);
                if entering.is_none() || score > best_score {
                    entering = Some((j, d, sigma));
                    best_score = score;
                }
            }
            if !bland {
                self.pricing_cursor = (start + scanned) % n;
                if entering.is_some() && scanned < n {
                    self.stats.pricing_window_hits += 1;
                } else {
                    self.stats.pricing_full_scans += 1;
                }
            }
            if let Some(t0) = price_t0 {
                self.kernels.pricing_ns += t0.elapsed().as_nanos() as u64;
                self.kernels.pricing_calls += 1;
            }
            let Some((q, _dq, sigma)) = entering else {
                return LpStatus::Optimal;
            };

            // Direction of basics: dx_B/dt = −σ·w.
            self.ftran(q);

            // Ratio test.
            let own_limit = match self.status[q] {
                VarStatus::AtLower | VarStatus::AtUpper => self.up[q] - self.lo[q],
                VarStatus::Free => INF,
                VarStatus::Basic => unreachable!(),
            };
            let mut best_t = INF;
            let mut best_row: Option<(usize, bool)> = None; // (row, blocks_at_upper)
            let mut best_piv: f64 = 0.0;
            for &i in &self.w_support {
                let w = self.scratch_w[i];
                if w.abs() <= PIVOT_TOL {
                    continue;
                }
                let rate = -sigma * w; // dx_B[i]/dt
                let bj = self.basis[i];
                let v = self.xb[i];
                let below = v < self.lo[bj] - FEAS_TOL;
                let above = v > self.up[bj] + FEAS_TOL;
                let (limit, at_upper) = if phase1 && below {
                    if rate > 0.0 {
                        ((self.lo[bj] - v) / rate, false)
                    } else {
                        continue;
                    }
                } else if phase1 && above {
                    if rate < 0.0 {
                        ((v - self.up[bj]) / -rate, true)
                    } else {
                        continue;
                    }
                } else if rate > 0.0 {
                    if self.up[bj] == INF {
                        continue;
                    }
                    (((self.up[bj] - v) / rate).max(0.0), true)
                } else {
                    if self.lo[bj] == -INF {
                        continue;
                    }
                    (((v - self.lo[bj]) / -rate).max(0.0), false)
                };
                let better =
                    limit < best_t - 1e-12 || (limit < best_t + 1e-12 && w.abs() > best_piv.abs());
                if better {
                    best_t = limit;
                    best_row = Some((i, at_upper));
                    best_piv = w;
                }
            }

            if own_limit <= best_t {
                if own_limit == INF {
                    return if phase1 {
                        LpStatus::Numerical
                    } else {
                        LpStatus::Unbounded
                    };
                }
                // Bound flip: no basis change.
                let t = own_limit;
                for &i in &self.w_support {
                    self.xb[i] -= sigma * t * self.scratch_w[i];
                }
                self.status[q] = match self.status[q] {
                    VarStatus::AtLower => VarStatus::AtUpper,
                    VarStatus::AtUpper => VarStatus::AtLower,
                    _ => unreachable!("free variables have no opposite bound"),
                };
                self.iterations += 1;
                self.stats.primal_iters += 1;
                self.stats.bound_flips += 1;
                self.blackbox_iter_tick(if phase1 { 1 } else { 2 });
                if t <= 1e-10 {
                    degen_run += 1;
                    self.stats.degenerate_pivots += 1;
                } else {
                    degen_run = 0;
                }
                continue;
            }

            let Some((r, at_upper)) = best_row else {
                return if phase1 {
                    LpStatus::Numerical
                } else {
                    LpStatus::Unbounded
                };
            };
            let t = best_t;
            let entering_value = match self.status[q] {
                VarStatus::AtLower => self.lo[q] + sigma * t,
                VarStatus::AtUpper => self.up[q] + sigma * t,
                VarStatus::Free => sigma * t,
                VarStatus::Basic => unreachable!(),
            };
            for &i in &self.w_support {
                self.xb[i] -= sigma * t * self.scratch_w[i];
            }
            self.stats.record_pivot(best_piv.abs());
            let leaving = self.basis[r];
            self.status[leaving] = if at_upper {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.basis[r] = q;
            self.status[q] = VarStatus::Basic;
            self.xb[r] = entering_value;

            // Devex column-weight update against the *old* basis's pivot row
            // ρ = B⁻ᵀe_r (one sparse unit-rhs BTRAN), restricted to the
            // upcoming pricing window: γ_j ← max(γ_j, (α_rj/α_rq)²·γ_q).
            // Off-window weights go stale but stay valid under-estimates of
            // the update — devex is a heuristic bound either way, and the
            // reference reset caps the drift.
            let gamma_q = self.primal_devex.weight(q);
            self.btran_unit(r);
            let price_t0 = self.spans_on.then(Instant::now);
            let inv_piv2 = 1.0 / (best_piv * best_piv);
            for s in 0..window {
                let mut j = (self.pricing_cursor + s) % n;
                if j >= n {
                    j -= n;
                }
                if self.status[j] == VarStatus::Basic || self.lo[j] == self.up[j] {
                    continue;
                }
                let alpha = self.cols.column_dot(j, &self.scratch_rho);
                if alpha != 0.0 {
                    self.primal_devex
                        .bump(j, alpha * alpha * inv_piv2 * gamma_q);
                }
            }
            self.primal_devex.set(leaving, gamma_q * inv_piv2);
            if self.primal_devex.needs_reset() {
                self.primal_devex.reset(n);
            }
            if let Some(t0) = price_t0 {
                self.kernels.price_ns += t0.elapsed().as_nanos() as u64;
                self.kernels.price_calls += 1;
            }

            self.update_factor(r);
            self.iterations += 1;
            self.stats.primal_iters += 1;
            self.blackbox_iter_tick(if phase1 { 1 } else { 2 });
            if t <= 1e-10 {
                degen_run += 1;
                self.stats.degenerate_pivots += 1;
            } else {
                degen_run = 0;
            }
            if self.refactor_due() {
                if !self.refactorize(RefactorCause::Scheduled) {
                    return LpStatus::Numerical;
                }
                self.recompute_xb();
            }
        }
    }

    /// Basis position of every basic column (`usize::MAX` for nonbasic).
    fn basic_positions(&self) -> Vec<usize> {
        let mut pos = vec![usize::MAX; self.n_total];
        for (i, &j) in self.basis.iter().enumerate() {
            pos[j] = i;
        }
        pos
    }

    /// Current value of column `j`, given [`Simplex::basic_positions`].
    fn value_at(&self, basic_pos: &[usize], j: usize) -> f64 {
        match basic_pos[j] {
            usize::MAX => self.nonbasic_value(j),
            i => self.xb[i],
        }
    }

    /// Maximum KKT violation of the current basis point: primal bound/row
    /// violations plus dual-feasibility violations of the reduced costs.
    /// A small value certifies optimality independently of the pivoting path,
    /// which the test suite uses in place of a reference solver.
    pub fn kkt_violation(&self) -> f64 {
        let m = self.m;
        // y = c_B' B⁻¹ solved through the factorization with local buffers
        // (&self).
        let mut y: Vec<f64> = self.basis.iter().map(|&j| self.obj[j]).collect();
        let mut work = vec![0.0; m];
        self.factor.btran_with(&mut y, &mut work);
        let mut worst = self.infeasibility();
        for j in 0..self.n_total {
            if self.lo[j] == self.up[j] {
                continue;
            }
            let d = self.obj[j] - self.cols.column_dot(j, &y);
            let viol = match self.status[j] {
                VarStatus::Basic => d.abs(),
                VarStatus::AtLower => (-d).max(0.0),
                VarStatus::AtUpper => d.max(0.0),
                VarStatus::Free => d.abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// The basis-solve residual `‖B·x_B − b‖∞` of the current point, with
    /// `b = −N x_N` recomputed from the nonbasic values: how far the basic
    /// values the factors and the eta file produced are from solving the
    /// basis system. Computed on demand, in one pass over the matrix; no
    /// solve samples it. Call after a solve.
    pub fn basis_residual(&mut self) -> f64 {
        self.scratch_rhs.iter_mut().for_each(|v| *v = 0.0);
        for j in 0..self.n_total {
            if self.status[j] != VarStatus::Basic {
                let v = self.nonbasic_value(j);
                if v != 0.0 {
                    self.cols.axpy_column(j, -v, &mut self.scratch_rhs);
                }
            }
        }
        // `B·x_B` goes to `scratch_rho`, which is dead between solves; it is
        // left zero with an empty support, as the next BTRAN expects.
        self.scratch_rho.iter_mut().for_each(|v| *v = 0.0);
        for (&j, &v) in self.basis.iter().zip(&self.xb) {
            if v != 0.0 {
                self.cols.axpy_column(j, v, &mut self.scratch_rho);
            }
        }
        let residual = self
            .scratch_rho
            .iter()
            .zip(&self.scratch_rhs)
            .fold(0.0f64, |worst, (bx, rhs)| worst.max((bx - rhs).abs()));
        self.scratch_rho.iter_mut().for_each(|v| *v = 0.0);
        self.rho_support.clear();
        residual
    }

    /// The status and true-cost (unperturbed) reduced cost `d_j = c_j − yᵀA_j`
    /// of each structural column in `cols`, in order, into `out` (cleared
    /// first); a basic column reads `d_j = 0`. One column dot per nonbasic
    /// column, on the duals the solve's optimality check computed (a BTRAN
    /// only when the basis changed since). Call after a solve that returned
    /// [`LpStatus::Optimal`]: the duals are then the optimal basis's.
    pub fn reduced_costs(&mut self, cols: &[usize], out: &mut Vec<(VarStatus, f64)>) {
        self.true_duals();
        out.clear();
        out.extend(cols.iter().map(|&j| {
            assert!(j < self.n_struct, "column {j} is not structural");
            let d = match self.status[j] {
                VarStatus::Basic => 0.0,
                _ => self.reduced_cost(j, false, false),
            };
            (self.status[j], d)
        }));
    }

    /// Objective of the current point (including offset); bit-equal to the
    /// `objective` of [`extract`](Self::extract).
    pub fn objective_value(&self) -> f64 {
        let pos = self.basic_positions();
        self.obj_offset
            + (0..self.n_struct)
                .map(|j| self.obj[j] * self.value_at(&pos, j))
                .sum::<f64>()
    }

    /// Extracts the solution; `status` should be the value returned by
    /// [`solve`](Self::solve).
    pub fn extract(&self, status: LpStatus) -> LpSolution {
        let pos = self.basic_positions();
        let x: Vec<f64> = (0..self.n_struct).map(|j| self.value_at(&pos, j)).collect();
        let row_activity: Vec<f64> = (self.n_struct..self.n_total)
            .map(|j| self.value_at(&pos, j))
            .collect();
        let objective =
            self.obj_offset + (0..self.n_struct).map(|j| self.obj[j] * x[j]).sum::<f64>();
        LpSolution {
            status,
            objective,
            x,
            row_activity,
            iterations: self.iterations,
        }
    }
}

/// The pivot row `α_j = ρ'A_j` over the columns `include` admits, formed
/// from `rows` (`A` stored by rows) by scattering each nonzero `ρ_r` of the
/// ascending `support` along row `r`. Column `j` then sums its terms in
/// ascending row order, starting from zero — exactly the order of
/// [`CscMatrix::column_dot`], so `alpha[j]` is bit-equal to it. `alpha`
/// must be zero on entry at every admitted column; `cols` receives the
/// admitted columns the row touched, ascending (`touched` is scratch, left
/// empty).
fn scatter_pivot_row(
    rows: &CscMatrix,
    rho: &[f64],
    support: &[usize],
    include: impl Fn(usize) -> bool,
    alpha: &mut [f64],
    touched: &mut BitSet,
    cols: &mut Vec<usize>,
) {
    for &r in support {
        let p = rho[r];
        if p == 0.0 {
            continue;
        }
        let (idx, vals) = rows.column(r);
        for (&j, &v) in idx.iter().zip(vals) {
            if include(j) {
                alpha[j] += p * v;
                touched.insert(j);
            }
        }
    }
    cols.clear();
    touched.drain(|j| cols.push(j));
}

// The parallel branch-and-bound driver moves `Simplex` instances and saved
// bases into worker threads; keep that property checked at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simplex>();
    assert_send::<Basis>();
    assert_send::<SolveStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::VarId;

    /// splitmix64, the repo-wide test RNG.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The pivot row scattered along the rows of `A` equals `column_dot` bit
    /// for bit. Dyadic values (±½, ±1, ±2, ±3) make partial sums cancel to
    /// exact zeros; the ±0.1 and ±10¹⁶ entries make sums round, so a
    /// different summation order would show in the bits.
    #[test]
    fn scattered_pivot_row_is_bit_equal_to_column_dots() {
        const VALS: [f64; 12] = [
            0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.1, -0.1, 1e16, -1e16,
        ];
        let mut rng = 5u64;
        let mut touched_total = 0usize;
        for case in 0..200 {
            let m = 1 + (splitmix(&mut rng) % 40) as usize;
            let n = 1 + (splitmix(&mut rng) % 80) as usize;
            let mut dense = vec![vec![0.0; n]; m];
            for _ in 0..(splitmix(&mut rng) % (3 * n as u64 + 1)) {
                let r = (splitmix(&mut rng) % m as u64) as usize;
                let c = (splitmix(&mut rng) % n as u64) as usize;
                dense[r][c] = VALS[(splitmix(&mut rng) % 12) as usize];
            }
            // `A` by columns and by rows, each list ascending.
            let (mut a, mut rows) = (CscMatrix::empty(m), CscMatrix::empty(n));
            for c in 0..n {
                let col: Vec<_> = dense.iter().map(|row| row[c]).enumerate().collect();
                a.push_column(&col);
            }
            for row in &dense {
                let row: Vec<_> = row.iter().copied().enumerate().collect();
                rows.push_column(&row);
            }
            // A sparse ρ with a few exact zeros inside its support.
            let mut rho = vec![0.0; m];
            let mut support = Vec::new();
            for (r, v) in rho.iter_mut().enumerate() {
                match splitmix(&mut rng) % 4 {
                    0 => {
                        *v = VALS[(splitmix(&mut rng) % 8) as usize];
                        support.push(r);
                    }
                    1 => support.push(r),
                    _ => {}
                }
            }
            let include = |j: usize| j % 5 != 3;
            let mut alpha = vec![0.0; n];
            let mut touched = BitSet::default();
            touched.resize(n);
            let mut cols = Vec::new();
            scatter_pivot_row(
                &rows,
                &rho,
                &support,
                include,
                &mut alpha,
                &mut touched,
                &mut cols,
            );
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "case {case}");
            for (j, &aj) in alpha.iter().enumerate() {
                if !include(j) {
                    assert_eq!(aj.to_bits(), 0, "case {case}: column {j}");
                    continue;
                }
                let dot = a.column_dot(j, &rho);
                assert_eq!(
                    aj.to_bits(),
                    dot.to_bits(),
                    "case {case}: column {j}: {aj} vs {dot}"
                );
                let reached = a.column(j).0.iter().any(|&r| rho[r] != 0.0);
                assert_eq!(cols.contains(&j), reached, "case {case}: column {j}");
            }
            touched_total += cols.len();
            // The scratch bitset is left empty for the next row.
            touched.drain(|j| panic!("case {case}: column {j} left marked"));
        }
        assert!(touched_total > 1000, "only {touched_total} touched columns");
    }

    /// `Simplex::new` lays out `[A −I]` by columns and by rows as a dense
    /// sum of the terms says, on random problems with duplicate terms,
    /// terms that cancel, empty rows and empty columns. Dyadic values keep
    /// every sum exact, whatever its order.
    #[test]
    fn engine_matrices_match_a_dense_reference() {
        const VALS: [f64; 8] = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0];
        let entries = |(idx, vals): (&[usize], &[f64])| -> Vec<(usize, f64)> {
            idx.iter().copied().zip(vals.iter().copied()).collect()
        };
        let mut rng = 17u64;
        let (mut empty_rows, mut empty_cols, mut cancelled) = (0, 0, 0);
        for case in 0..100 {
            let m = (splitmix(&mut rng) % 30) as usize;
            let n = 1 + (splitmix(&mut rng) % 40) as usize;
            let mut lp = LpProblem::new();
            for _ in 0..n {
                lp.add_var(0.0, 1.0, 0.0);
            }
            let mut dense = vec![vec![0.0; n]; m];
            for row in dense.iter_mut() {
                let mut terms = Vec::new();
                for _ in 0..(splitmix(&mut rng) % 6) {
                    let j = (splitmix(&mut rng) % n as u64) as usize;
                    let v = VALS[(splitmix(&mut rng) % 8) as usize];
                    terms.push((VarId(j), v));
                    // A duplicate, half of them cancelling.
                    match splitmix(&mut rng) % 8 {
                        0 => terms.push((VarId(j), v)),
                        1 => terms.push((VarId(j), -v)),
                        _ => {}
                    }
                }
                for &(VarId(j), v) in &terms {
                    row[j] += v;
                }
                cancelled += terms.iter().filter(|t| row[t.0 .0] == 0.0).count();
                lp.add_le(&terms, 1.0);
            }
            let s = Simplex::new(&lp);
            assert_eq!((s.cols.nrows(), s.cols.ncols()), (m, n + m), "case {case}");
            assert_eq!((s.rows.nrows(), s.rows.ncols()), (n + m, m), "case {case}");
            for j in 0..n {
                let expect: Vec<(usize, f64)> = dense
                    .iter()
                    .map(|row| row[j])
                    .enumerate()
                    .filter(|&(_, v)| v != 0.0)
                    .collect();
                assert_eq!(entries(s.cols.column(j)), expect, "case {case}: column {j}");
                empty_cols += usize::from(expect.is_empty());
            }
            for (i, row) in dense.iter().enumerate() {
                let slack = entries(s.cols.column(n + i));
                assert_eq!(slack, [(i, -1.0)], "case {case}: slack {i}");
                let mut expect: Vec<(usize, f64)> = row
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, v)| v != 0.0)
                    .collect();
                empty_rows += usize::from(expect.is_empty());
                expect.push((n + i, -1.0));
                assert_eq!(entries(s.rows.column(i)), expect, "case {case}: row {i}");
            }
        }
        assert!(
            empty_rows > 50 && empty_cols > 50 && cancelled > 20,
            "{empty_rows} empty rows, {empty_cols} empty columns, {cancelled} cancelled terms"
        );
    }
}
