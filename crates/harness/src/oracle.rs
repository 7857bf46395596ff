//! The differential oracles: every relational claim of the paper, executable.
//!
//! Per instance the harness checks (tolerances from [`tvnep_model::tol`]):
//!
//! * **Cross-model equality** (Theorems of §IV): Δ, Σ and cΣ solved to
//!   proven optimality must report the same optimal objective. Even when a
//!   formulation times out, its incumbent (feasible, hence ≤ the true
//!   optimum) and its best bound (proven, hence ≥ the true optimum) must be
//!   consistent with every other formulation's — one-sided checks that stay
//!   decidable under solver limits.
//! * **Relaxation ordering** (§III/§IV): every formulation's LP bound is
//!   ≥ the proven MIP optimum, and `Σ ≥ cΣ` (cuts and reductions only
//!   tighten). The paper's `Δ ≥ Σ` holds for its generic big-M; this repo's
//!   Δ builder sharpens big-Ms from the capacities, so a reversal there is
//!   recorded as informational rather than a violation (the paper-shaped
//!   regime is asserted by `crates/core/tests/formulations.rs`).
//! * **Discrete lower bound** (§III): the slotted model's optimal revenue
//!   never exceeds the continuous optimum, and the discretization gap is
//!   non-increasing along a slot-doubling chain (nested feasible sets).
//! * **Greedy dominated** (§V): cΣᴳ_A revenue never beats the joint optimum.
//! * **Thread equivalence** (PR-2 parallel solver): `threads=1` and
//!   `threads=N` prove the same optimal objective.
//! * **Convergence monotone**: the cΣ solve's replayed anytime progress
//!   stream has strictly improving incumbents, monotonically tightening
//!   dual bounds, and incumbent ≤ bound at every event.
//! * **Ground truth**: every produced [`TemporalSolution`] passes the
//!   independent Definition-2.1 verifier, and reported objectives match the
//!   recomputed revenue.
//!
//! Solves that hit a limit before proving optimality make the dependent
//! oracle *inconclusive* (recorded as skipped), never a violation.

use std::time::Duration;

use tvnep_core::{
    build_model, explain_solution, greedy_csigma, solve_discrete, solve_tvnep, util_points,
    BuildOptions, Fate, Formulation, GreedyOptions, Objective, Resource, ServiceCore,
    ServiceOptions, SubproblemHandles, TvnepOutcome,
};
use tvnep_graph::{EdgeId, NodeId};
use tvnep_lp::{LpStatus, Simplex};
use tvnep_mip::{MipOptions, MipStatus, ProgressEvent, ProgressKind, ProgressRecorder};
use tvnep_model::tol::{obj_eq, obj_le, OBJ_EQ_TOL, REL_GAP, VERIFY_TOL};
use tvnep_model::{
    verify_with_tol, Instance, NodeMapping, Request, ScheduledRequest, TemporalSolution,
};

/// The oracle families; each violation carries the one that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Optimal objectives of Δ/Σ/cΣ must agree; any incumbent must stay
    /// below any formulation's proven bound.
    CrossModelEquality,
    /// LP-relaxation bounds must satisfy Σ ≥ cΣ and each must be ≥ the
    /// proven MIP optimum.
    RelaxationOrdering,
    /// Discrete-time revenue lower-bounds the continuous optimum with a
    /// non-increasing gap along a slot-doubling chain.
    DiscreteLowerBound,
    /// Greedy cΣᴳ_A revenue must not exceed the joint optimum.
    GreedyDominated,
    /// `threads=1` and `threads=N` must prove the same optimum.
    ThreadEquivalence,
    /// Every produced solution passes Definition 2.1 and reports a
    /// consistent objective.
    GroundTruth,
    /// Every claim of the `explain` subsystem is recomputable from the
    /// solution alone: named binding constraints are tight within
    /// [`VERIFY_TOL`], and every rejection blocker identifies a node whose
    /// capacity genuinely runs out.
    ExplainConsistency,
    /// The replayed anytime convergence stream of the cΣ solve must have
    /// strictly improving incumbents, monotonically tightening dual bounds,
    /// incumbent ≤ bound at every event (user/maximize sense), and a final
    /// recorded incumbent that matches the reported objective.
    ConvergenceMonotone,
    /// Replaying the instance through the online admission service
    /// ([`tvnep_core::ServiceCore`], one request per epoch in earliest-start
    /// order) must produce a decision sequence whose accepted schedules
    /// jointly satisfy Definition 2.1, whose explain narratives recompute,
    /// and whose total revenue never exceeds the proven offline optimum
    /// (online decisions are a restriction of the joint problem). Every
    /// decision of the service's breakpoint scan must also match the
    /// reference cΣ MIP over the same reservations: same verdict, same
    /// start within `start_tol`.
    OnlineConsistency,
}

/// All oracles, in execution order.
pub const ORACLES: [Oracle; 9] = [
    Oracle::GroundTruth,
    Oracle::ExplainConsistency,
    Oracle::ConvergenceMonotone,
    Oracle::CrossModelEquality,
    Oracle::RelaxationOrdering,
    Oracle::DiscreteLowerBound,
    Oracle::GreedyDominated,
    Oracle::OnlineConsistency,
    Oracle::ThreadEquivalence,
];

impl Oracle {
    /// Stable lower-case name used in case files and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Oracle::CrossModelEquality => "cross_model_equality",
            Oracle::RelaxationOrdering => "relaxation_ordering",
            Oracle::DiscreteLowerBound => "discrete_lower_bound",
            Oracle::GreedyDominated => "greedy_dominated",
            Oracle::ThreadEquivalence => "thread_equivalence",
            Oracle::GroundTruth => "ground_truth",
            Oracle::ExplainConsistency => "explain_consistency",
            Oracle::ConvergenceMonotone => "convergence_monotone",
            Oracle::OnlineConsistency => "online_consistency",
        }
    }

    /// Parses [`as_str`](Self::as_str) output.
    pub fn parse(s: &str) -> Option<Self> {
        ORACLES.iter().copied().find(|o| o.as_str() == s)
    }
}

/// A deliberately injected defect, used to test the harness itself (the
/// violation → shrink → corpus pipeline) without corrupting the solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// No fault: the production configuration.
    None,
    /// Adds `skew` to the cΣ objective after solving — the observable effect
    /// of an event-mapping off-by-one that lets cΣ double-count revenue.
    CSigmaObjectiveSkew(f64),
    /// Shifts every accepted request's schedule in the extracted cΣ solution
    /// by `shift` — the observable effect of an off-by-one in the
    /// event-index → time mapping.
    CSigmaStartShift(f64),
    /// Makes the online service "forget" every k-th accepted reservation
    /// (the decision is still emitted as accepted, but no capacity is held)
    /// — the observable effect of a reservation-bookkeeping leak. Later
    /// admissions double-book the leaked capacity, which the
    /// online-consistency oracle must catch.
    ServiceReservationLeak(usize),
    /// Busy-spins for this many milliseconds after the cΣ solve without
    /// advancing any progress epoch, while holding the installed flight
    /// recorder's busy gauge — the observable shape of a solver hang. The
    /// stall watchdog must fire within its threshold; nothing else in the
    /// battery changes (the outcome is untouched), so every oracle still
    /// passes.
    SolverStall(u64),
}

/// Slot counts for the discrete baseline; a doubling chain, which the
/// gap-monotonicity oracle needs to be sound.
const DISCRETE_SLOTS: [usize; 3] = [4, 8, 16];

/// Options of one oracle pass.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Wall-clock limit per individual MIP solve.
    pub solve_time_limit: Duration,
    /// Thread count for the equivalence oracle (compared against 1).
    pub threads_alt: usize,
    /// Which oracles to run.
    pub oracles: Vec<Oracle>,
    /// Injected defect (testing the harness itself).
    pub fault: Fault,
    /// Flight-recorder handle threaded into every battery solve; progress
    /// pulses from real work keep the stall watchdog quiet, and the stall
    /// fault's silence is what makes it fire.
    pub blackbox: Option<tvnep_telemetry::FlightHandle>,
}

impl Default for OracleOptions {
    fn default() -> Self {
        Self {
            solve_time_limit: Duration::from_secs(10),
            threads_alt: 2,
            oracles: ORACLES.to_vec(),
            fault: Fault::None,
            blackbox: None,
        }
    }
}

impl OracleOptions {
    fn wants(&self, o: Oracle) -> bool {
        self.oracles.contains(&o)
    }

    fn mip_opts(&self, threads: usize) -> MipOptions {
        let mut o = MipOptions::with_time_limit(self.solve_time_limit);
        o.threads = threads;
        o.blackbox = self.blackbox.clone();
        o
    }
}

/// One oracle violation: which oracle fired and what it saw.
#[derive(Debug, Clone)]
pub struct OracleViolation {
    /// The oracle that fired.
    pub oracle: Oracle,
    /// Human-readable evidence (objective values, verifier output, …).
    pub detail: String,
}

/// Outcome of running the oracle battery on one instance.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Violations found (empty = all oracles passed or were inconclusive).
    pub violations: Vec<OracleViolation>,
    /// Oracles that could not be decided (solver hit a limit), with reasons.
    pub inconclusive: Vec<(Oracle, String)>,
    /// Total MIP solves performed.
    pub solves: usize,
}

impl CaseReport {
    /// True when at least one oracle fired.
    pub fn has_violation(&self) -> bool {
        !self.violations.is_empty()
    }

    /// True when `oracle` fired.
    pub fn violated(&self, oracle: Oracle) -> bool {
        self.violations.iter().any(|v| v.oracle == oracle)
    }

    fn violate(&mut self, oracle: Oracle, detail: String) {
        self.violations.push(OracleViolation { oracle, detail });
    }

    fn skip(&mut self, oracle: Oracle, why: String) {
        self.inconclusive.push((oracle, why));
    }
}

/// Applies the injected fault to the cΣ outcome.
fn apply_fault(fault: Fault, out: &mut TvnepOutcome) {
    match fault {
        Fault::None => {}
        Fault::CSigmaObjectiveSkew(skew) => {
            if let Some(obj) = out.mip.objective.as_mut() {
                *obj += skew;
            }
            if let Some(sol) = out.solution.as_mut() {
                if let Some(obj) = sol.reported_objective.as_mut() {
                    *obj += skew;
                }
            }
        }
        Fault::CSigmaStartShift(shift) => {
            if let Some(sol) = out.solution.as_mut() {
                for s in sol.scheduled.iter_mut().filter(|s| s.accepted) {
                    s.start += shift;
                    s.end += shift;
                }
            }
        }
        // Applied inside the online-consistency replay, not to cΣ outcomes.
        Fault::ServiceReservationLeak(_) => {}
        Fault::SolverStall(ms) => {
            // The stall is real work as far as the watchdog can tell: the
            // busy gauge is held high while no LP/node/epoch counter moves.
            let _busy = tvnep_telemetry::blackbox::current().map(|rec| rec.busy_guard());
            let t0 = std::time::Instant::now();
            while t0.elapsed() < Duration::from_millis(ms) {
                std::hint::spin_loop();
            }
        }
    }
}

/// Verifies one produced solution against Definition 2.1 and its reported
/// objective against the recomputed revenue (ground-truth oracle).
fn check_ground_truth(
    report: &mut CaseReport,
    instance: &Instance,
    producer: &str,
    solution: &TemporalSolution,
    optimal_access_objective: Option<f64>,
) {
    let violations = verify_with_tol(instance, solution, VERIFY_TOL);
    if !violations.is_empty() {
        let shown: Vec<String> = violations
            .iter()
            .take(4)
            .map(|v| format!("{v:?}"))
            .collect();
        report.violate(
            Oracle::GroundTruth,
            format!(
                "{producer}: solution fails Definition 2.1 ({} violation(s)): {}",
                violations.len(),
                shown.join("; ")
            ),
        );
    }
    if let Some(obj) = optimal_access_objective {
        let revenue = solution.revenue(instance);
        if !obj_eq(obj, revenue) {
            report.violate(
                Oracle::GroundTruth,
                format!(
                    "{producer}: reported optimal objective {obj} != recomputed revenue {revenue}"
                ),
            );
        }
    }
}

/// Independent recomputation of the load on one substrate resource at one
/// instant, straight from the solution (open-interval activity, the
/// verifier's sweep convention). Deliberately does not share code with
/// `tvnep_core::explain`.
fn load_at(instance: &Instance, solution: &TemporalSolution, res: Resource, t: f64) -> f64 {
    solution
        .scheduled
        .iter()
        .zip(&instance.requests)
        .filter(|(s, _)| s.accepted && s.start < t && t < s.end)
        .filter_map(|(s, r)| {
            s.embedding.as_ref().map(|e| match res {
                Resource::Node(n) => e.node_allocation(r, NodeId(n)),
                Resource::Edge(l) => e.edge_allocation(r, EdgeId(l)),
            })
        })
        .sum()
}

/// Cross-checks the service's utilization, computed from the core's
/// reservation snapshot as the `metrics` event reads it, against the
/// verifier-style recomputation: same probe times, same open-interval
/// activity test, bitwise-equal loads (online-consistency oracle).
fn util_mismatch(core: &ServiceCore) -> Option<String> {
    let (inst, sol) = core.reservation_snapshot();
    let times = sol.critical_times();
    let points = util_points(inst, sol);
    if points.len() != times.len() {
        return Some(format!(
            "util timeline has {} probe points, verifier recomputation has {}",
            points.len(),
            times.len()
        ));
    }
    for (p, &t) in points.iter().zip(&times) {
        if p.t != t {
            return Some(format!("util probe time {} != verifier time {t}", p.t));
        }
        for n in 0..inst.substrate.num_nodes() {
            let want = load_at(inst, sol, Resource::Node(n), t);
            if p.node_load[n] != want {
                return Some(format!(
                    "util node {n} load {} != verifier load {want} at t={t}",
                    p.node_load[n]
                ));
            }
        }
        for e in 0..inst.substrate.num_edges() {
            let want = load_at(inst, sol, Resource::Edge(e), t);
            if p.edge_load[e] != want {
                return Some(format!(
                    "util edge {e} load {} != verifier load {want} at t={t}",
                    p.edge_load[e]
                ));
            }
        }
    }
    None
}

/// The reference admission the service's breakpoint scan specializes: one
/// cΣ MIP over the live reservations, each pinned (`x_r = 1`, window
/// collapsed, every edge flow fixed to its reserved value), plus the free
/// candidate under objective (21), `max T·x_R + (T − t⁻_R)`. Returns the
/// candidate's `(accepted, start)` once the solve proves optimality.
fn reference_admission(
    core: &ServiceCore,
    request: &Request,
    mapping: &NodeMapping,
    mip_opts: &MipOptions,
) -> Result<(bool, f64), String> {
    let mut sub = core.reservation_snapshot().0.clone();
    let k = sub.num_requests();
    sub.requests.push(request.clone());
    if let Some(maps) = &mut sub.fixed_node_mappings {
        maps.push(mapping.clone());
    }
    let mut built = build_model(
        &sub,
        Formulation::CSigma,
        Objective::AccessControl,
        BuildOptions::default_for(Formulation::CSigma),
    );
    for (r, res) in core.reservations().enumerate() {
        built.mip.set_obj(built.emb.x_r[r], 0.0);
        built.mip.fix_var(built.emb.x_r[r], 1.0);
        // Free reservation flows would let the MIP re-route a live
        // reservation to make room: an overcommit against its real flows.
        for (l, vars) in built.emb.x_e[r].iter().enumerate() {
            let flows = &res.embedding.edge_flows[l];
            for (e, &v) in vars.iter().enumerate() {
                let f = flows
                    .iter()
                    .find(|(eid, _)| eid.0 == e)
                    .map_or(0.0, |&(_, f)| f);
                built.mip.fix_var(v, f);
            }
        }
    }
    built.mip.set_obj(built.emb.x_r[k], sub.horizon);
    built.mip.set_obj(built.events.t_minus[k], -1.0);
    built.mip.set_obj_offset(sub.horizon);
    let result = tvnep_mip::solve_with(&built.mip, mip_opts);
    match (result.status, &result.x) {
        (MipStatus::Optimal, Some(x)) => {
            let s = &built.extract_solution(&sub, x).scheduled[k];
            Ok((s.accepted, s.start))
        }
        (status, _) => Err(format!("reference MIP ended {status:?}")),
    }
}

/// How far an accepted start may sit from the reference MIP's: the MIP
/// proves objective (21), of magnitude at most `2T`, only to the relative
/// gap [`REL_GAP`], and its times carry solver noise below [`VERIFY_TOL`].
fn start_tol(horizon: f64) -> f64 {
    2.0 * horizon * REL_GAP + VERIFY_TOL
}

/// Compares one scan decision `(accepted, start)` with the reference
/// MIP's on the same reservation state (online-consistency oracle).
fn check_scan_against_reference(
    report: &mut CaseReport,
    name: &str,
    horizon: f64,
    scan: (bool, f64),
    reference: (bool, f64),
) {
    let detail = match (scan, reference) {
        ((true, s), (true, r)) if (s - r).abs() > start_tol(horizon) => {
            format!("scan admits '{name}' at {s}, the reference MIP at {r}")
        }
        ((false, _), (true, r)) => {
            format!("scan rejects '{name}', the reference MIP admits it at {r}")
        }
        ((true, s), (false, _)) => {
            format!("scan admits '{name}' at {s}, the reference MIP rejects it")
        }
        _ => return,
    };
    report.violate(Oracle::OnlineConsistency, detail);
}

/// Recomputes every claim of the explanation for `solution` and reports any
/// that cannot be reproduced (explain-consistency oracle).
fn check_explain_consistency(
    report: &mut CaseReport,
    instance: &Instance,
    producer: &str,
    solution: &TemporalSolution,
) {
    let ex = explain_solution(instance, solution);
    for e in &ex.requests {
        match &e.fate {
            Fate::Accepted {
                start,
                end,
                binding,
                ..
            } => {
                for b in binding {
                    if !(*start < b.at_time && b.at_time < *end) {
                        report.violate(
                            Oracle::ExplainConsistency,
                            format!(
                                "{producer}: request {} binding probe t={} outside \
                                 active interval ({start}, {end})",
                                e.request, b.at_time
                            ),
                        );
                        continue;
                    }
                    let load = load_at(instance, solution, b.resource, b.at_time);
                    if (load - b.load).abs() > VERIFY_TOL {
                        report.violate(
                            Oracle::ExplainConsistency,
                            format!(
                                "{producer}: request {} claims load {} on {} at t={}, \
                                 recomputed {load}",
                                e.request,
                                b.load,
                                b.resource.describe(),
                                b.at_time
                            ),
                        );
                    }
                    if b.capacity - load > VERIFY_TOL {
                        report.violate(
                            Oracle::ExplainConsistency,
                            format!(
                                "{producer}: request {} claims {} binding at t={} but \
                                 load {load} leaves slack {} > {VERIFY_TOL}",
                                e.request,
                                b.resource.describe(),
                                b.at_time,
                                b.capacity - load
                            ),
                        );
                    }
                }
            }
            Fate::Rejected { blockers, .. } => {
                let maps = instance.fixed_node_mappings.as_ref();
                for b in blockers {
                    if !(b.candidate_start < b.at_time
                        && b.at_time < b.candidate_start + instance.requests[e.request].duration)
                    {
                        report.violate(
                            Oracle::ExplainConsistency,
                            format!(
                                "{producer}: request {} blocker probe t={} outside the \
                                 candidate occupancy starting at {}",
                                e.request, b.at_time, b.candidate_start
                            ),
                        );
                        continue;
                    }
                    // Recompute the pinned demand on the blamed node.
                    let demand: f64 = maps
                        .map(|m| {
                            m[e.request]
                                .iter()
                                .enumerate()
                                .filter(|&(_, &host)| host == NodeId(b.node))
                                .map(|(v, _)| instance.requests[e.request].node_demand(NodeId(v)))
                                .sum()
                        })
                        .unwrap_or(0.0);
                    let load = load_at(instance, solution, Resource::Node(b.node), b.at_time);
                    if (load - b.existing_load).abs() > VERIFY_TOL
                        || (demand - b.demand).abs() > VERIFY_TOL
                    {
                        report.violate(
                            Oracle::ExplainConsistency,
                            format!(
                                "{producer}: request {} blocker figures not reproducible: \
                                 claimed load {} demand {}, recomputed {load} {demand}",
                                e.request, b.existing_load, b.demand
                            ),
                        );
                    }
                    if load + demand <= b.capacity - VERIFY_TOL {
                        report.violate(
                            Oracle::ExplainConsistency,
                            format!(
                                "{producer}: request {} blames node {} at t={} but \
                                 load {load} + demand {demand} fits capacity {}",
                                e.request, b.node, b.at_time, b.capacity
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Replays a recorded convergence stream (maximize sense: the access-control
/// objective is revenue) and asserts its invariants: strictly improving
/// incumbents, monotonically tightening dual bounds, incumbent ≤ bound at
/// every event, and a final incumbent matching the reported objective.
fn check_convergence_monotone(
    report: &mut CaseReport,
    events: &[ProgressEvent],
    final_obj: Option<f64>,
) {
    let mut last_inc: Option<f64> = None;
    let mut last_bound: Option<f64> = None;
    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 {
            report.violate(
                Oracle::ConvergenceMonotone,
                format!("event {i} carries seq {} (stream reordered?)", e.seq),
            );
        }
        match e.kind {
            ProgressKind::Incumbent => {
                let Some(inc) = e.incumbent else {
                    report.violate(
                        Oracle::ConvergenceMonotone,
                        format!("incumbent event {i} carries no incumbent value"),
                    );
                    continue;
                };
                if let Some(prev) = last_inc {
                    if inc <= prev {
                        report.violate(
                            Oracle::ConvergenceMonotone,
                            format!("incumbent did not improve at event {i}: {prev} -> {inc}"),
                        );
                    }
                }
                last_inc = Some(inc);
            }
            ProgressKind::Bound => {
                if !e.bound.is_finite() {
                    report.violate(
                        Oracle::ConvergenceMonotone,
                        format!("bound event {i} carries non-finite bound {}", e.bound),
                    );
                    continue;
                }
                if let Some(prev) = last_bound {
                    if e.bound >= prev {
                        report.violate(
                            Oracle::ConvergenceMonotone,
                            format!(
                                "dual bound did not tighten at event {i}: {prev} -> {}",
                                e.bound
                            ),
                        );
                    }
                }
                last_bound = Some(e.bound);
            }
        }
        // Incumbent-vs-bound ordering: any feasible value stays below any
        // proven bound (maximize sense), at every point of the stream.
        if let Some(inc) = e.incumbent {
            if e.bound.is_finite() && !obj_le(inc, e.bound) {
                report.violate(
                    Oracle::ConvergenceMonotone,
                    format!(
                        "event {i}: incumbent {inc} exceeds proven bound {}",
                        e.bound
                    ),
                );
            }
        }
    }
    // The stream's last incumbent is what the solver reported.
    if let (Some(stream_final), Some(obj)) = (last_inc, final_obj) {
        if !obj_eq(stream_final, obj) {
            report.violate(
                Oracle::ConvergenceMonotone,
                format!(
                    "final recorded incumbent {stream_final} != reported objective {obj} \
                     (tol {OBJ_EQ_TOL})"
                ),
            );
        }
    }
}

/// Runs the configured oracle battery on `instance`.
pub fn check_instance(instance: &Instance, opts: &OracleOptions) -> CaseReport {
    let mut report = CaseReport::default();
    let formulations = [Formulation::Delta, Formulation::Sigma, Formulation::CSigma];

    // --- Solve the three continuous formulations (shared by most oracles).
    // The cΣ solve additionally records its anytime convergence stream
    // (deterministic at threads=1) for the monotonicity oracle.
    let progress = opts
        .wants(Oracle::ConvergenceMonotone)
        .then(ProgressRecorder::new);
    let mut outcomes: Vec<TvnepOutcome> = Vec::new();
    for f in formulations {
        let mut mip_opts = opts.mip_opts(1);
        if f == Formulation::CSigma {
            mip_opts.progress_events = progress.clone();
        }
        let mut out = solve_tvnep(
            instance,
            f,
            Objective::AccessControl,
            BuildOptions::default_for(f),
            &mip_opts,
        );
        report.solves += 1;
        if f == Formulation::CSigma {
            apply_fault(opts.fault, &mut out);
        }
        outcomes.push(out);
    }

    // --- Anytime convergence stream is internally consistent.
    if let Some(rec) = &progress {
        let final_obj = matches!(
            outcomes[2].mip.status,
            MipStatus::Optimal | MipStatus::Feasible
        )
        .then_some(outcomes[2].mip.objective)
        .flatten();
        check_convergence_monotone(&mut report, &rec.events(), final_obj);
    }

    if opts.wants(Oracle::GroundTruth) {
        for (f, out) in formulations.iter().zip(&outcomes) {
            if let Some(sol) = &out.solution {
                let optimal_obj = (out.mip.status == MipStatus::Optimal)
                    .then_some(out.mip.objective)
                    .flatten();
                check_ground_truth(&mut report, instance, f.as_str(), sol, optimal_obj);
            }
        }
    }

    if opts.wants(Oracle::ExplainConsistency) {
        for (f, out) in formulations.iter().zip(&outcomes) {
            if let Some(sol) = &out.solution {
                check_explain_consistency(&mut report, instance, f.as_str(), sol);
            }
        }
    }

    // --- (a) Optimal-objective equality across formulations.
    if opts.wants(Oracle::CrossModelEquality) {
        let optimal: Vec<(Formulation, f64)> = formulations
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| o.mip.status == MipStatus::Optimal)
            .filter_map(|(f, o)| o.mip.objective.map(|obj| (*f, obj)))
            .collect();
        if optimal.len() < 2 {
            report.skip(
                Oracle::CrossModelEquality,
                format!(
                    "exact equality: only {}/3 formulations proved optimality within {:?}",
                    optimal.len(),
                    opts.solve_time_limit
                ),
            );
        } else {
            let (f0, base) = optimal[0];
            for &(f, obj) in &optimal[1..] {
                if !obj_eq(base, obj) {
                    report.violate(
                        Oracle::CrossModelEquality,
                        format!(
                            "{}={base} but {}={obj} (tol {OBJ_EQ_TOL})",
                            f0.as_str(),
                            f.as_str()
                        ),
                    );
                }
            }
        }

        // One-sided consistency, decidable even under timeouts: every
        // incumbent is feasible (≤ the true optimum) and every best bound is
        // proven (≥ the true optimum, user sense), so incumbentᵢ ≤ boundⱼ
        // must hold for every ordered pair of formulations.
        let incumbents: Vec<(Formulation, f64)> = formulations
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| matches!(o.mip.status, MipStatus::Optimal | MipStatus::Feasible))
            .filter_map(|(f, o)| o.mip.objective.map(|obj| (*f, obj)))
            .collect();
        let bounds: Vec<(Formulation, f64)> = formulations
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| {
                matches!(
                    o.mip.status,
                    MipStatus::Optimal | MipStatus::Feasible | MipStatus::NoSolution
                )
            })
            .map(|(f, o)| (*f, o.mip.best_bound))
            .filter(|(_, b)| b.is_finite())
            .collect();
        for &(fi, inc) in &incumbents {
            for &(fb, bound) in &bounds {
                if !obj_le(inc, bound) {
                    report.violate(
                        Oracle::CrossModelEquality,
                        format!(
                            "{} incumbent {inc} exceeds {} proven bound {bound}",
                            fi.as_str(),
                            fb.as_str()
                        ),
                    );
                }
            }
        }
    }

    let csigma_optimum: Option<f64> = (outcomes[2].mip.status == MipStatus::Optimal)
        .then_some(outcomes[2].mip.objective)
        .flatten();
    // A proven optimum from any formulation (preferring cΣ) for the
    // dominance oracles.
    let proven_optimum: Option<f64> = csigma_optimum.or_else(|| {
        formulations
            .iter()
            .zip(&outcomes)
            .find(|(_, o)| o.mip.status == MipStatus::Optimal)
            .and_then(|(_, o)| o.mip.objective)
    });

    // --- (b1) LP relaxation ordering Δ ≥ Σ ≥ cΣ ≥ optimum.
    if opts.wants(Oracle::RelaxationOrdering) {
        let mut bounds: Vec<(Formulation, f64)> = Vec::new();
        let mut failed = None;
        for f in formulations {
            let built = tvnep_core::build_model(
                instance,
                f,
                Objective::AccessControl,
                BuildOptions::default_for(f),
            );
            let lp = built.mip.relaxation_min();
            let mut simplex = Simplex::new(&lp);
            match simplex.solve() {
                LpStatus::Optimal => bounds.push((f, -simplex.objective_value())),
                other => {
                    failed = Some(format!("{} relaxation: {other:?}", f.as_str()));
                    break;
                }
            }
        }
        match failed {
            Some(why) => report.skip(Oracle::RelaxationOrdering, why),
            None => {
                // Σ ≥ cΣ is asserted unconditionally: cΣ is the Σ allocation
                // scheme plus presolve, symmetry reduction, and dependency
                // cuts — all valid for every integer point, so they can only
                // tighten the relaxation.
                let (_, sigma) = bounds[1];
                let (_, csigma) = bounds[2];
                if !obj_le(csigma, sigma) {
                    report.violate(
                        Oracle::RelaxationOrdering,
                        format!(
                            "LP bound of sigma ({sigma}) < LP bound of csigma ({csigma}); \
                             cuts and reductions must only tighten"
                        ),
                    );
                }
                // Δ ≥ Σ holds for the paper's generic big-M, but this repo's
                // Δ builder sharpens its big-Ms from the capacities, which
                // can legitimately tighten the Δ LP past Σ's on degenerate
                // instances (e.g. a pinned request that cannot fit even
                // alone). A reversal is therefore recorded as informational,
                // not a violation; the paper-shaped regime is asserted by
                // `crates/core/tests/formulations.rs`.
                let (_, delta) = bounds[0];
                if !obj_le(sigma, delta) {
                    report.skip(
                        Oracle::RelaxationOrdering,
                        format!(
                            "delta LP bound {delta} below sigma LP bound {sigma} \
                             (sharpened big-M; not a soundness bug)"
                        ),
                    );
                }
                // Every relaxation bounds the true optimum from above — the
                // invariant that holds for any exact formulation.
                if let Some(opt) = proven_optimum {
                    for &(f, lp) in &bounds {
                        if !obj_le(opt, lp) {
                            report.violate(
                                Oracle::RelaxationOrdering,
                                format!("MIP optimum {opt} exceeds {} LP bound {lp}", f.as_str()),
                            );
                        }
                    }
                }
            }
        }
    }

    // --- (b2) Discrete-time lower bound and gap convergence.
    if opts.wants(Oracle::DiscreteLowerBound) {
        match proven_optimum {
            None => report.skip(
                Oracle::DiscreteLowerBound,
                "no continuous optimum proven".into(),
            ),
            Some(cont) => {
                let mut gaps: Vec<(usize, f64)> = Vec::new();
                for slots in DISCRETE_SLOTS {
                    let (res, sol) = solve_discrete(instance, slots, &opts.mip_opts(1));
                    report.solves += 1;
                    if res.status != MipStatus::Optimal {
                        report.skip(
                            Oracle::DiscreteLowerBound,
                            format!(
                                "discrete({slots} slots) not proven optimal: {:?}",
                                res.status
                            ),
                        );
                        continue;
                    }
                    let disc = res.objective.unwrap_or(0.0);
                    if !obj_le(disc, cont) {
                        report.violate(
                            Oracle::DiscreteLowerBound,
                            format!(
                                "discrete({slots} slots) revenue {disc} exceeds \
                                 continuous optimum {cont}"
                            ),
                        );
                    }
                    gaps.push((slots, cont - disc));
                    if opts.wants(Oracle::GroundTruth) {
                        if let Some(sol) = &sol {
                            check_ground_truth(
                                &mut report,
                                instance,
                                &format!("discrete({slots})"),
                                sol,
                                None,
                            );
                        }
                    }
                }
                // Doubling the slot count refines the start grid and never
                // lengthens the rounded occupancy, so the feasible sets nest
                // and the gap must not grow.
                for w in gaps.windows(2) {
                    let ((sa, ga), (sb, gb)) = (w[0], w[1]);
                    if sb == 2 * sa && gb > ga + OBJ_EQ_TOL * ga.abs().max(1.0) {
                        report.violate(
                            Oracle::DiscreteLowerBound,
                            format!(
                                "discretization gap grew from {ga} ({sa} slots) \
                                 to {gb} ({sb} slots)"
                            ),
                        );
                    }
                }
            }
        }
    }

    // --- (c1) Greedy never beats the joint optimum.
    if opts.wants(Oracle::GreedyDominated) {
        if instance.fixed_node_mappings.is_none() {
            report.skip(
                Oracle::GreedyDominated,
                "greedy requires fixed node mappings".into(),
            );
        } else {
            let greedy = greedy_csigma(
                instance,
                &GreedyOptions {
                    subproblem: opts.mip_opts(1),
                },
            );
            report.solves += greedy.iterations;
            if opts.wants(Oracle::GroundTruth) {
                check_ground_truth(&mut report, instance, "greedy", &greedy.solution, None);
            }
            if opts.wants(Oracle::ExplainConsistency) {
                check_explain_consistency(&mut report, instance, "greedy", &greedy.solution);
            }
            match proven_optimum {
                None => report.skip(
                    Oracle::GreedyDominated,
                    "no continuous optimum proven".into(),
                ),
                Some(opt) => {
                    let rev = greedy.solution.revenue(instance);
                    if !obj_le(rev, opt) {
                        report.violate(
                            Oracle::GreedyDominated,
                            format!("greedy revenue {rev} exceeds joint optimum {opt}"),
                        );
                    }
                }
            }
        }
    }

    // --- (c1b) Online service replay is consistent with the offline view.
    if opts.wants(Oracle::OnlineConsistency) {
        match &instance.fixed_node_mappings {
            None => report.skip(
                Oracle::OnlineConsistency,
                "service replay requires a-priori node mappings".into(),
            ),
            Some(maps) => {
                let leak = match opts.fault {
                    Fault::ServiceReservationLeak(k) => Some(k),
                    _ => None,
                };
                let mut core = ServiceCore::new(
                    instance.substrate.clone(),
                    instance.horizon,
                    ServiceOptions {
                        subproblem: SubproblemHandles {
                            blackbox: opts.blackbox.clone(),
                            ..SubproblemHandles::default()
                        },
                        leak_every: leak,
                    },
                );
                // The service requires monotone arrivals; replay in
                // earliest-start order but assemble the solution back in the
                // instance's original request order.
                let mut order: Vec<usize> = (0..instance.num_requests()).collect();
                order.sort_by(|&a, &b| {
                    instance.requests[a]
                        .earliest_start
                        .partial_cmp(&instance.requests[b].earliest_start)
                        .expect("windows are finite")
                        .then(a.cmp(&b))
                });
                let mut scheduled: Vec<Option<ScheduledRequest>> =
                    vec![None; instance.num_requests()];
                let mut refused = None;
                let mut unreferenced: Vec<String> = Vec::new();
                for &ri in &order {
                    let (request, mapping) = (&instance.requests[ri], &maps[ri]);
                    // The reference decides the state the scan will see
                    // (admit advances the water mark the same way first).
                    core.advance(request.earliest_start);
                    let reference = reference_admission(&core, request, mapping, &opts.mip_opts(1));
                    report.solves += 1;
                    match core.admit(request.clone(), mapping.clone()) {
                        Ok(d) => {
                            report.solves += 1;
                            match reference {
                                Ok(r) => check_scan_against_reference(
                                    &mut report,
                                    &request.name,
                                    instance.horizon,
                                    (d.accepted, d.start),
                                    r,
                                ),
                                Err(why) => unreferenced.push(format!("request {ri}: {why}")),
                            }
                            scheduled[ri] = Some(ScheduledRequest {
                                accepted: d.accepted,
                                start: d.start,
                                end: d.end,
                                embedding: d.embedding,
                            });
                        }
                        Err(e) => {
                            refused = Some(format!("request {ri} refused pre-solve: {e}"));
                            break;
                        }
                    }
                }
                if let Some(first) = unreferenced.first() {
                    report.skip(
                        Oracle::OnlineConsistency,
                        format!(
                            "{} admission(s) without a proven reference, first {first}",
                            unreferenced.len()
                        ),
                    );
                }
                match refused {
                    Some(why) => report.skip(Oracle::OnlineConsistency, why),
                    None => {
                        // The utilization the service reports must equal,
                        // bitwise, the verifier-style recomputation over the
                        // core's own reservation snapshot (Definition 2.1
                        // loads at every event-interval midpoint).
                        if let Some(why) = util_mismatch(&core) {
                            report.violate(Oracle::OnlineConsistency, why);
                        }
                        let solution = TemporalSolution {
                            scheduled: scheduled
                                .into_iter()
                                .map(|s| s.expect("every request decided"))
                                .collect(),
                            reported_objective: None,
                        };
                        let violations = verify_with_tol(instance, &solution, VERIFY_TOL);
                        if !violations.is_empty() {
                            let shown: Vec<String> = violations
                                .iter()
                                .take(4)
                                .map(|v| format!("{v:?}"))
                                .collect();
                            report.violate(
                                Oracle::OnlineConsistency,
                                format!(
                                    "service replay fails Definition 2.1 ({} violation(s)): {}",
                                    violations.len(),
                                    shown.join("; ")
                                ),
                            );
                        }
                        if opts.wants(Oracle::ExplainConsistency) {
                            check_explain_consistency(&mut report, instance, "service", &solution);
                        }
                        // Online admission is a restriction of the joint
                        // problem: its revenue cannot beat the optimum.
                        if let Some(opt) = proven_optimum {
                            let rev = solution.revenue(instance);
                            if !obj_le(rev, opt) {
                                report.violate(
                                    Oracle::OnlineConsistency,
                                    format!(
                                        "online revenue {rev} exceeds proven offline optimum {opt}"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // --- (c2) threads=1 vs threads=N agree on the proven optimum.
    if opts.wants(Oracle::ThreadEquivalence) {
        let mut par = solve_tvnep(
            instance,
            Formulation::CSigma,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::CSigma),
            &opts.mip_opts(opts.threads_alt),
        );
        report.solves += 1;
        apply_fault(opts.fault, &mut par);
        match (csigma_optimum, par.mip.status, par.mip.objective) {
            (Some(seq), MipStatus::Optimal, Some(parobj)) => {
                if !obj_eq(seq, parobj) {
                    report.violate(
                        Oracle::ThreadEquivalence,
                        format!(
                            "csigma threads=1 optimum {seq} != threads={} optimum {parobj}",
                            opts.threads_alt
                        ),
                    );
                }
                if opts.wants(Oracle::GroundTruth) {
                    if let Some(sol) = &par.solution {
                        check_ground_truth(
                            &mut report,
                            instance,
                            &format!("csigma(threads={})", opts.threads_alt),
                            sol,
                            Some(parobj),
                        );
                    }
                }
                if opts.wants(Oracle::ExplainConsistency) {
                    if let Some(sol) = &par.solution {
                        check_explain_consistency(
                            &mut report,
                            instance,
                            &format!("csigma(threads={})", opts.threads_alt),
                            sol,
                        );
                    }
                }
            }
            _ => report.skip(
                Oracle::ThreadEquivalence,
                "sequential or parallel solve not proven optimal".into(),
            ),
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_roundtrip() {
        for o in ORACLES {
            assert_eq!(Oracle::parse(o.as_str()), Some(o));
        }
        assert_eq!(Oracle::parse("bogus"), None);
    }

    #[test]
    fn clean_instance_passes_all_oracles() {
        let case = crate::gen::generate_family(crate::gen::Family::TightWindows, 1, 0);
        let report = check_instance(&case.instance, &OracleOptions::default());
        assert!(!report.has_violation(), "{:?}", report.violations);
    }

    #[test]
    fn objective_skew_fault_fires_cross_model_oracle() {
        let case = crate::gen::generate_family(crate::gen::Family::TightWindows, 1, 0);
        let opts = OracleOptions {
            fault: Fault::CSigmaObjectiveSkew(0.5),
            ..OracleOptions::default()
        };
        let report = check_instance(&case.instance, &opts);
        assert!(
            report.violated(Oracle::CrossModelEquality),
            "{:?}",
            report.violations
        );
    }

    /// A 400ms injected hang (busy gauge held, no progress pulse) must trip
    /// a 60ms watchdog — and must not corrupt any oracle outcome.
    #[test]
    fn solver_stall_fault_trips_watchdog_within_threshold() {
        use tvnep_telemetry::{blackbox, FlightRecorder, Telemetry, Watchdog};
        let rec = FlightRecorder::new(64);
        blackbox::install_current(&rec);
        let wd = Watchdog::spawn(
            rec.clone(),
            Duration::from_millis(60),
            Telemetry::disabled(),
        );
        let case = crate::gen::generate_family(crate::gen::Family::TightWindows, 1, 0);
        let opts = OracleOptions {
            fault: Fault::SolverStall(400),
            oracles: vec![Oracle::CrossModelEquality],
            blackbox: Some(rec.handle(0)),
            ..OracleOptions::default()
        };
        let report = check_instance(&case.instance, &opts);
        drop(wd);
        blackbox::clear_current();
        assert!(
            rec.stall_reports() > 0,
            "watchdog missed a 400ms stall at a 60ms threshold"
        );
        assert!(
            !report.has_violation(),
            "the stall fault must not corrupt outcomes: {:?}",
            report.violations
        );
    }

    /// Quiet-run guarantee: a clean fixed-seed battery with the recorder
    /// attached never trips the watchdog — real solves keep the progress
    /// pulse moving, so `stall_reports` stays at zero.
    #[test]
    fn clean_battery_produces_zero_stall_reports() {
        use tvnep_telemetry::{FlightRecorder, Telemetry, Watchdog};
        let rec = FlightRecorder::new(256);
        let wd = Watchdog::spawn(rec.clone(), Duration::from_secs(30), Telemetry::disabled());
        for seed in [1u64, 7] {
            let case = crate::gen::generate_family(crate::gen::Family::TightWindows, seed, 0);
            let opts = OracleOptions {
                blackbox: Some(rec.handle(0)),
                ..OracleOptions::default()
            };
            let report = check_instance(&case.instance, &opts);
            assert!(
                !report.has_violation(),
                "seed {seed}: {:?}",
                report.violations
            );
        }
        drop(wd);
        assert_eq!(rec.stall_reports(), 0, "clean battery must never stall");
        let (lp_iters, nodes, _) = rec.pulse().ticks();
        assert!(
            lp_iters > 0 && nodes > 0,
            "battery solves must advance the pulse (lp_iters={lp_iters}, nodes={nodes})"
        );
    }

    /// Acceptance criterion: the explain-consistency oracle passes over
    /// three fixed fuzz seeds of the capacity-critical family.
    #[test]
    fn explain_consistency_passes_on_fixed_seeds() {
        for seed in [7u64, 42, 1337] {
            let case =
                crate::gen::generate_family(crate::gen::Family::CapacityCriticalGrid, seed, 0);
            let opts = OracleOptions {
                oracles: vec![Oracle::ExplainConsistency, Oracle::GreedyDominated],
                ..OracleOptions::default()
            };
            let report = check_instance(&case.instance, &opts);
            assert!(
                !report.violated(Oracle::ExplainConsistency),
                "seed {seed}: {:?}",
                report.violations
            );
        }
    }

    /// Acceptance criterion: on a capacity-critical instance, explain names
    /// the exhausted resource for at least one rejected request.
    #[test]
    fn explain_names_blocker_for_rejection_on_capacity_critical_instance() {
        for seed in [7u64, 42, 1337, 1, 2, 3] {
            let case =
                crate::gen::generate_family(crate::gen::Family::CapacityCriticalGrid, seed, 0);
            if case.instance.fixed_node_mappings.is_none() {
                continue;
            }
            let greedy = greedy_csigma(
                &case.instance,
                &GreedyOptions {
                    subproblem: OracleOptions::default().mip_opts(1),
                },
            );
            let ex = explain_solution(&case.instance, &greedy.solution);
            let named = ex.requests.iter().any(
                |e| matches!(&e.fate, Fate::Rejected { blockers, .. } if !blockers.is_empty()),
            );
            if named {
                return; // found a rejection with a named exhausted node
            }
        }
        panic!("no seed produced a rejection with a named blocking resource");
    }

    /// The convergence-monotone oracle stays quiet on clean instances over
    /// the same fixed seeds the CI fuzz job replays.
    #[test]
    fn convergence_monotone_passes_on_fixed_seeds() {
        for seed in [7u64, 42, 1337] {
            let case = crate::gen::generate_family(crate::gen::Family::TightWindows, seed, 0);
            let opts = OracleOptions {
                oracles: vec![Oracle::ConvergenceMonotone],
                ..OracleOptions::default()
            };
            let report = check_instance(&case.instance, &opts);
            assert!(
                !report.violated(Oracle::ConvergenceMonotone),
                "seed {seed}: {:?}",
                report.violations
            );
        }
    }

    /// An objective skew on the final result disagrees with the recorded
    /// stream: the convergence oracle must notice the mismatch.
    #[test]
    fn objective_skew_fault_fires_convergence_oracle_when_stream_nonempty() {
        let case = crate::gen::generate_family(crate::gen::Family::TightWindows, 1, 0);
        let opts = OracleOptions {
            fault: Fault::CSigmaObjectiveSkew(0.5),
            oracles: vec![Oracle::ConvergenceMonotone],
            ..OracleOptions::default()
        };
        let report = check_instance(&case.instance, &opts);
        // Fires iff the solve produced at least one incumbent event, which
        // TightWindows seed 1 does (it accepts at least one request).
        assert!(
            report.violated(Oracle::ConvergenceMonotone),
            "{:?}",
            report.violations
        );
    }

    /// The online-consistency oracle stays quiet on clean capacity-critical
    /// instances (the family with a-priori mappings and real contention).
    #[test]
    fn online_consistency_passes_on_fixed_seeds() {
        for seed in [7u64, 42, 1337] {
            let case =
                crate::gen::generate_family(crate::gen::Family::CapacityCriticalGrid, seed, 0);
            let opts = OracleOptions {
                oracles: vec![Oracle::OnlineConsistency],
                ..OracleOptions::default()
            };
            let report = check_instance(&case.instance, &opts);
            assert!(
                !report.violated(Oracle::OnlineConsistency),
                "seed {seed}: {:?}",
                report.violations
            );
        }
    }

    /// A seeded reservation-bookkeeping leak (every accepted reservation is
    /// forgotten) double-books capacity on contended instances; the
    /// online-consistency oracle must catch it on at least one fixed seed.
    #[test]
    fn reservation_leak_fault_fires_online_oracle() {
        for seed in [7u64, 42, 1337, 1, 2, 3] {
            let case =
                crate::gen::generate_family(crate::gen::Family::CapacityCriticalGrid, seed, 0);
            if case.instance.fixed_node_mappings.is_none() {
                continue;
            }
            let opts = OracleOptions {
                fault: Fault::ServiceReservationLeak(1),
                oracles: vec![Oracle::OnlineConsistency],
                ..OracleOptions::default()
            };
            let report = check_instance(&case.instance, &opts);
            if report.violated(Oracle::OnlineConsistency) {
                return; // the leak was observable and the oracle fired
            }
        }
        panic!("reservation leak went unnoticed on every seed");
    }

    /// Each way the scan can disagree with the reference MIP is one
    /// violation; a start inside the tolerance is agreement.
    #[test]
    fn scan_reference_disagreements_fire_online_oracle() {
        let horizon = 20.0;
        let tol = start_tol(horizon);
        let cases = [
            ((true, 2.0), (true, 2.0 + 2.0 * tol), 1),
            ((false, 0.0), (true, 2.0), 1),
            ((true, 2.0), (false, 0.0), 1),
            ((true, 2.0), (true, 2.0 + 0.5 * tol), 0),
            ((false, 0.0), (false, 0.0), 0),
        ];
        for (scan, reference, want) in cases {
            let mut report = CaseReport::default();
            check_scan_against_reference(&mut report, "r", horizon, scan, reference);
            assert_eq!(report.violations.len(), want, "{scan:?} vs {reference:?}");
            assert!(report
                .violations
                .iter()
                .all(|v| v.oracle == Oracle::OnlineConsistency));
        }
    }

    #[test]
    fn start_shift_fault_fires_ground_truth_oracle() {
        let case = crate::gen::generate_family(crate::gen::Family::ZeroFlexChains, 2, 1);
        let opts = OracleOptions {
            fault: Fault::CSigmaStartShift(0.5),
            ..OracleOptions::default()
        };
        let report = check_instance(&case.instance, &opts);
        assert!(
            report.violated(Oracle::GroundTruth),
            "{:?}",
            report.violations
        );
    }
}
