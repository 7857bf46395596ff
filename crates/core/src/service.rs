//! The online admission core: the greedy cΣᴳ_A per-iteration step
//! (Section V) lifted out of the batch loop into a long-lived service
//! component.
//!
//! A [`ServiceCore`] owns the substrate and the set of **reservations** —
//! previously admitted requests with pinned schedules and embeddings. Each
//! [`admit`](ServiceCore::admit) call decides one candidate under objective
//! (21), `max T·x_R + (T − t⁻_R)`: admit if at all possible, then as early
//! as possible. Reservations are fixed in time, node mapping and edge
//! flows, so the capacity left to the candidate is piecewise constant and
//! grows only where a reservation ends: the earliest feasible start is
//! `t^s_R` or the end of a live reservation. Admission scans those starts in
//! ascending order. At each start `s` the candidate alone — window pinned to
//! `[s, s + d_R]`, `x_R = 1` — is one cΣ LP on the residual substrate, every
//! capacity minus its peak reserved load on `(s, s + d_R)`. The first start
//! with a solution is accepted at exactly `s`; a candidate with none is
//! rejected. DESIGN §11.1 has the equivalence argument.
//!
//! Most starts need no LP. With the node mapping pinned and `x_R = 1`
//! fixed, a node's capacity row (9) holds only `x_R`, so it is the constant
//! check `demand_n ≤ residual_n(s)`: its slack stays basic at exactly the
//! demand whatever the engine pivots, and where the demand exceeds the
//! residual by more than the `100 · FEAS_TOL` of bound violation the engine
//! tolerates in an `Optimal` point, the LP cannot be optimal. Such a start
//! is skipped without an LP; a start within that margin still gets one.
//!
//! An admission builds its LP at the first start that passes this check,
//! with one engine over it, and a candidate none of whose starts pass
//! builds nothing. With one pinned request every Σ is statically one, so a
//! start enters the model only through the bounds of `t⁺` and `t⁻` and the
//! residual capacities only through the upper bounds of the capacity rows
//! (9): each start overwrites those bounds and restarts the engine from the
//! all-slack basis, which gives the LP, the pivots and the point of a fresh
//! build on the residual substrate, bit for bit. No branch and bound runs;
//! the harness's `online_consistency` oracle checks the scan against it.
//!
//! Reservations whose end lies at or before the admission **water mark** (a
//! monotone lower bound on every future candidate's earliest start, i.e. the
//! arrival clock) can never overlap a future candidate and are garbage
//! collected, keeping each admission bounded by the number of *live*
//! reservations rather than the total history — the property that turns the
//! batch algorithm into a service that can run indefinitely.
//!
//! Decisions are a pure function of the admission sequence: the scan has no
//! budget and no deadline, so the same candidates admitted in the same order
//! against the same starting reservations produce bit-identical schedules,
//! which is what makes write-ahead-log crash recovery (crates/serve) exactly
//! replayable.

use std::time::{Duration, Instant};

use crate::events::time_bounds;
use crate::explain::{
    edge_load_at, explain_request, node_load_at, pinned_demand, probe_times, RequestExplanation,
    Resource,
};
use crate::formulation::{build_model, BuildOptions, BuiltModel, Formulation, Objective};
use tvnep_graph::{EdgeId, NodeId};
use tvnep_lp::{LpStatus, Simplex};
use tvnep_mip::MipOptions;
use tvnep_model::tol::FEAS_TOL;
use tvnep_model::{
    check_mapping, check_window, Embedding, Instance, NodeMapping, Request, ScheduledRequest,
    Substrate, TemporalSolution,
};
use tvnep_telemetry::FlightHandle;

/// Options of the admission core.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// What each candidate start's LP reads of these: `telemetry`,
    /// `blackbox` and `time_limit`, a deadline for each start's LP from the
    /// moment it is solved, and nothing else (no branch and bound runs). An
    /// LP that fails leaves its start untaken.
    pub subproblem: MipOptions,
    /// **Fault injection for the harness only**: when `Some(k)`, every k-th
    /// accepted reservation is silently dropped instead of recorded — the
    /// observable effect of a reservation leak (capacity double-booking).
    /// The `online_consistency` oracle must catch this.
    pub leak_every: Option<usize>,
}

/// An admitted request holding substrate capacity: the pinned schedule and
/// embedding every later admission treats as immovable.
#[derive(Debug, Clone)]
pub struct Reservation {
    /// Service-assigned admission id (monotone in decision order).
    pub id: u64,
    /// The request, window collapsed to the reserved `[start, end]`.
    pub request: Request,
    /// Pinned virtual-node → substrate-node mapping.
    pub mapping: NodeMapping,
    /// Reserved start `t⁺`.
    pub start: f64,
    /// Reserved end `t⁻ = t⁺ + d`.
    pub end: f64,
    /// The link embedding chosen at admission time.
    pub embedding: Embedding,
}

/// One admission decision.
#[derive(Debug, Clone)]
pub struct AdmitDecision {
    /// Service-assigned admission id.
    pub id: u64,
    /// Request name (echoed for log readability).
    pub name: String,
    /// Whether the request was admitted.
    pub accepted: bool,
    /// Scheduled start (for rejected requests: the earliest start, per
    /// Definition 2.1's convention for rejected schedules).
    pub start: f64,
    /// Scheduled end.
    pub end: f64,
    /// The embedding; present iff accepted.
    pub embedding: Option<Embedding>,
    /// Explain narrative for this request, recomputable from the decision
    /// state (the `explain` subsystem run on the reservations plus the
    /// decided candidate).
    pub explain: Option<RequestExplanation>,
    /// LP solves spent on the decision: one per candidate start that the
    /// pinned node capacities do not rule out (see the module docs).
    pub nodes: u64,
    /// Wall-clock time of the admission (scan + extraction + explain).
    pub runtime: Duration,
}

/// Errors an admission can refuse with (no solver involved).
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The candidate's window escapes `[water_mark, horizon]`.
    WindowOutOfRange(String),
    /// The mapping has the wrong shape or references unknown nodes.
    BadMapping(String),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::WindowOutOfRange(m) | AdmitError::BadMapping(m) => write!(f, "{m}"),
        }
    }
}

/// The long-lived admission core (see the module docs).
#[derive(Debug)]
pub struct ServiceCore {
    substrate: Substrate,
    horizon: f64,
    opts: ServiceOptions,
    reservations: Vec<Reservation>,
    /// Monotone lower bound on every future candidate's earliest start.
    water_mark: f64,
    next_id: u64,
    accepted_total: u64,
    collected_total: u64,
}

impl ServiceCore {
    /// Creates an empty core over `substrate` with time horizon `horizon`.
    pub fn new(substrate: Substrate, horizon: f64, opts: ServiceOptions) -> Self {
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive"
        );
        Self {
            substrate,
            horizon,
            opts,
            reservations: Vec::new(),
            water_mark: 0.0,
            next_id: 0,
            accepted_total: 0,
            collected_total: 0,
        }
    }

    /// The substrate this core allocates on.
    pub fn substrate(&self) -> &Substrate {
        &self.substrate
    }

    /// The time horizon `T` of every admission.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Live reservations, in admission order.
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Total accepted over the core's lifetime (including collected ones).
    pub fn accepted_total(&self) -> u64 {
        self.accepted_total
    }

    /// Reservations garbage-collected so far.
    pub fn collected_total(&self) -> u64 {
        self.collected_total
    }

    /// Current admission water mark.
    pub fn water_mark(&self) -> f64 {
        self.water_mark
    }

    /// Advances the water mark (monotone; regressions are ignored) and drops
    /// the reservations that end at or before it. Soundness: the water mark
    /// never exceeds any future candidate's earliest start, so a collected
    /// reservation cannot overlap anything still to be decided.
    pub fn advance(&mut self, now: f64) -> usize {
        if now > self.water_mark {
            self.water_mark = now;
        }
        let before = self.reservations.len();
        let mark = self.water_mark;
        self.reservations.retain(|r| r.end > mark + 1e-12);
        let dropped = before - self.reservations.len();
        self.collected_total += dropped as u64;
        dropped
    }

    /// Re-installs a reservation recovered from a write-ahead log. The id
    /// counter is bumped past `res.id` so freshly admitted requests never
    /// collide with replayed ones.
    pub fn restore(&mut self, res: Reservation) {
        self.next_id = self.next_id.max(res.id + 1);
        self.accepted_total += 1;
        self.reservations.push(res);
    }

    /// Restores a rejected decision's id (WAL replay bookkeeping only).
    pub fn restore_rejected(&mut self, id: u64) {
        self.next_id = self.next_id.max(id + 1);
    }

    /// Validates a candidate against the core's static invariants (window
    /// inside the horizon, mapping shape and range: the model's
    /// [`check_window`] and [`check_mapping`]) without touching the solver.
    /// The water mark moves with every decision, so
    /// [`admit_with_id`](Self::admit_with_id) checks it when the candidate is
    /// decided.
    pub fn validate(&self, request: &Request, mapping: &NodeMapping) -> Result<(), AdmitError> {
        check_window(request, self.horizon).map_err(AdmitError::WindowOutOfRange)?;
        check_mapping(request, mapping, &self.substrate).map_err(AdmitError::BadMapping)
    }

    /// Decides one candidate against the current reservations (see the
    /// module docs). On acceptance the schedule is installed as a new
    /// reservation.
    pub fn admit(
        &mut self,
        request: Request,
        mapping: NodeMapping,
    ) -> Result<AdmitDecision, AdmitError> {
        self.admit_with_id(self.next_id, request, mapping)
    }

    /// Like [`admit`](Self::admit) but with a caller-chosen decision id, so
    /// a driver (the serve layer) can keep one id space across submissions,
    /// decisions, and write-ahead-log records.
    pub fn admit_with_id(
        &mut self,
        id: u64,
        request: Request,
        mapping: NodeMapping,
    ) -> Result<AdmitDecision, AdmitError> {
        self.validate(&request, &mapping)?;
        if request.earliest_start < self.water_mark - 1e-9 {
            return Err(AdmitError::WindowOutOfRange(format!(
                "request '{}' starts at {} before the admission water mark {} \
                 (arrivals must be monotone)",
                request.name, request.earliest_start, self.water_mark
            )));
        }
        let clock = Instant::now();
        self.advance(request.earliest_start);
        let telemetry = &self.opts.subproblem.telemetry;
        let _span = telemetry.span("serve.admit").arg("id", id as f64);

        let (inst, mut sol) = self.candidate_snapshot(&request, &mapping);
        let k = inst.num_requests() - 1;
        let demand = pinned_demand(&request, &mapping, self.substrate.num_nodes());
        let mut scan: Option<StartScan> = None;
        let mut lps = 0u64;
        for s in self.candidate_starts(&request) {
            let residuals = Residuals::at(&inst, &sol, s, s + request.duration);
            if residuals.rule_out(&demand) {
                continue;
            }
            let scan = scan.get_or_insert_with(|| {
                StartScan::new(
                    &self.substrate,
                    self.horizon,
                    &request,
                    &mapping,
                    &self.opts.subproblem,
                )
            });
            lps += 1;
            scan.rebound(&residuals, s);
            if let Some(embedding) = scan.solve(self.opts.subproblem.time_limit) {
                sol.scheduled[k] = ScheduledRequest {
                    accepted: true,
                    start: s,
                    end: s + request.duration,
                    embedding: Some(embedding),
                };
                break;
            }
        }
        if let Some(scan) = &scan {
            scan.engine.stats.flush_into(telemetry);
        }

        self.next_id = self.next_id.max(id + 1);
        let explain = explain_request(&inst, &sol, k);
        let decided = sol.scheduled.swap_remove(k);
        let accept = decided.accepted;
        if accept {
            self.accepted_total += 1;
            let leak = self
                .opts
                .leak_every
                .is_some_and(|k| k > 0 && self.accepted_total.is_multiple_of(k as u64));
            if !leak {
                let mut pinned = request.clone();
                pinned.earliest_start = decided.start;
                pinned.latest_end = decided.end;
                self.reservations.push(Reservation {
                    id,
                    request: pinned,
                    mapping,
                    start: decided.start,
                    end: decided.end,
                    embedding: decided
                        .embedding
                        .clone()
                        .expect("accepted implies embedding"),
                });
            }
        }

        // Black-box record of the decision (each LP already recorded its
        // events through the same handle).
        if let Some(bb) = &self.opts.subproblem.blackbox {
            bb.record(tvnep_telemetry::EventKind::Admit, id, u64::from(accept));
        }

        Ok(AdmitDecision {
            id,
            name: request.name,
            accepted: accept,
            start: decided.start,
            end: decided.end,
            embedding: decided.embedding,
            explain: Some(explain),
            nodes: lps,
            runtime: clock.elapsed(),
        })
    }

    /// The live reservations plus the candidate, last and rejected at its
    /// release until a start fits: the residual loads and the explain
    /// narrative both read this one snapshot.
    fn candidate_snapshot(
        &self,
        request: &Request,
        mapping: &NodeMapping,
    ) -> (Instance, TemporalSolution) {
        let (mut inst, mut sol) = self.reservation_snapshot();
        inst.requests.push(request.clone());
        if let Some(maps) = &mut inst.fixed_node_mappings {
            maps.push(mapping.clone());
        }
        sol.scheduled.push(ScheduledRequest {
            accepted: false,
            start: request.earliest_start,
            end: request.earliest_start + request.duration,
            embedding: None,
        });
        (inst, sol)
    }

    /// Candidate starts, ascending: the release, then every live
    /// reservation end inside the window.
    fn candidate_starts(&self, request: &Request) -> Vec<f64> {
        let mut starts: Vec<f64> = self
            .reservations
            .iter()
            .map(|r| r.end)
            .filter(|&t| t > request.earliest_start && t <= request.latest_start())
            .collect();
        starts.push(request.earliest_start);
        starts.sort_by(f64::total_cmp);
        starts.dedup();
        starts
    }

    /// The live reservation state as a standalone solution over a synthetic
    /// instance (one pinned request per reservation) — lets the independent
    /// Definition-2.1 verifier audit the core's books at any time.
    pub fn reservation_snapshot(&self) -> (Instance, TemporalSolution) {
        let requests: Vec<Request> = self
            .reservations
            .iter()
            .map(|r| r.request.clone())
            .collect();
        let maps: Vec<NodeMapping> = self
            .reservations
            .iter()
            .map(|r| r.mapping.clone())
            .collect();
        let scheduled: Vec<ScheduledRequest> = self
            .reservations
            .iter()
            .map(|r| ScheduledRequest {
                accepted: true,
                start: r.start,
                end: r.end,
                embedding: Some(r.embedding.clone()),
            })
            .collect();
        (
            Instance::new(self.substrate.clone(), requests, self.horizon, Some(maps)),
            TemporalSolution {
                scheduled,
                reported_objective: None,
            },
        )
    }
}

/// The residual capacities at one candidate start `s`: each capacity minus
/// its peak load on `(s, s + d_R)` under the reservations of a candidate
/// snapshot (the candidate, still rejected there, adds none), at least 0.
/// The node check and the LP's capacity rows both read them.
struct Residuals<'a> {
    inst: &'a Instance,
    sol: &'a TemporalSolution,
    times: Vec<f64>,
}

impl<'a> Residuals<'a> {
    fn at(inst: &'a Instance, sol: &'a TemporalSolution, s: f64, end: f64) -> Self {
        let times = probe_times(sol, s, end);
        Self { inst, sol, times }
    }

    fn of(&self, resource: Resource) -> f64 {
        let (inst, sol) = (self.inst, self.sol);
        let peak =
            |load: &dyn Fn(f64) -> f64| self.times.iter().map(|&t| load(t)).fold(0.0, f64::max);
        let sub = &inst.substrate;
        let residual = match resource {
            Resource::Node(n) => {
                let n = NodeId(n);
                sub.node_capacity(n) - peak(&|t| node_load_at(inst, sol, n, t))
            }
            Resource::Edge(e) => {
                let e = EdgeId(e);
                sub.edge_capacity(e) - peak(&|t| edge_load_at(inst, sol, e, t))
            }
        };
        residual.max(0.0)
    }

    /// Whether a pinned node capacity rules the start out: some node's
    /// `demand` (its row's coefficient of the fixed `x_R`) exceeds its
    /// residual by more than the `100 · FEAS_TOL` of violation that
    /// `solve_warm` and `solve` allow an `Optimal` point (module docs).
    fn rule_out(&self, demand: &[f64]) -> bool {
        demand
            .iter()
            .enumerate()
            .any(|(n, &d)| d > 0.0 && d - self.of(Resource::Node(n)) > FEAS_TOL * 100.0)
    }
}

/// One admission's LP: the candidate alone as a cΣ model, window pinned and
/// `x_R = 1`, built at the first start that passes the node check, and one
/// engine over its relaxation. Each start that passes re-bounds it
/// ([`rebound`](Self::rebound)) and solves it from a fresh engine's state
/// ([`solve`](Self::solve)); see the module docs.
struct StartScan {
    /// The instance of the build: the substrate at full capacity and the
    /// candidate, pinned to the start last re-bounded.
    one: Instance,
    built: BuiltModel,
    engine: Simplex,
    blackbox: Option<FlightHandle>,
}

impl StartScan {
    fn new(
        substrate: &Substrate,
        horizon: f64,
        request: &Request,
        mapping: &NodeMapping,
        opts: &MipOptions,
    ) -> Self {
        let mut pinned = request.clone();
        pinned.latest_end = pinned.earliest_end();
        let one = Instance::new(
            substrate.clone(),
            vec![pinned],
            horizon,
            Some(vec![mapping.clone()]),
        );
        let mut built = build_model(
            &one,
            Formulation::CSigma,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::CSigma),
        );
        debug_assert_eq!(built.stats.dynamic_states, 0, "a pinned Σ is static");
        built.mip.fix_var(built.emb.x_r[0], 1.0);
        let mut engine = Simplex::new(&built.mip.relaxation_min());
        engine.set_telemetry(opts.telemetry.clone());
        engine.set_blackbox(opts.blackbox.clone());
        Self {
            one,
            built,
            engine,
            blackbox: opts.blackbox.clone(),
        }
    }

    /// Re-bounds the LP for start `s`: `t⁺` and `t⁻` get the window
    /// `[s, s + d_R]`, and each capacity row its resource's residual.
    fn rebound(&mut self, residuals: &Residuals, s: f64) {
        let pinned = &mut self.one.requests[0];
        pinned.earliest_start = s;
        pinned.latest_end = s + pinned.duration;
        let events = &self.built.events;
        for (v, (lo, up)) in [events.t_plus[0], events.t_minus[0]]
            .into_iter()
            .zip(time_bounds(pinned))
        {
            self.engine.set_var_bounds(v.0, lo, up);
        }
        for &(row, resource) in &self.built.loads.capacity_rows {
            let (lo, _) = self.engine.row_bounds(row.0);
            self.engine
                .set_row_bounds(row.0, lo, residuals.of(resource));
        }
    }

    /// Solves the LP as last re-bounded, from the state a fresh engine starts
    /// in: the dual simplex, and on `Numerical` or `IterationLimit` one
    /// primal retry from the slack basis, as a branch-and-bound node does.
    /// Returns the candidate's embedding, or `None` when the LP is
    /// infeasible or fails (`time_limit` bounds the solve from now).
    fn solve(&mut self, time_limit: Option<Duration>) -> Option<Embedding> {
        // One progress tick per LP, the unit a decision's `nodes` counts:
        // the stall watchdog sees an LP that takes no pivot too. A start the
        // node check rules out runs no LP and ticks nothing.
        if let Some(bb) = &self.blackbox {
            bb.pulse().add_nodes(1);
        }
        let engine = &mut self.engine;
        engine.restart();
        engine.set_deadline(time_limit.map(|tl| Instant::now() + tl));
        let mut status = engine.solve_warm();
        if matches!(status, LpStatus::Numerical | LpStatus::IterationLimit) {
            engine.reset_basis();
            status = engine.solve();
        }
        if status != LpStatus::Optimal {
            return None;
        }
        // Any point the solve returns will do: with `x_R` and the window
        // fixed, (21) is settled, and it does not rank routings.
        let x = engine.extract(status).x;
        self.built
            .extract_solution(&self.one, &x)
            .scheduled
            .pop()?
            .embedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{util_points, util_summary};
    use tvnep_graph::{grid, star, NodeId, StarDirection};
    use tvnep_model::tol::VERIFY_TOL;
    use tvnep_model::verify_with_tol;

    /// Star requests whose center saturates a capacity-1 node: only one can
    /// run at a time.
    fn tight(name: &str, es: f64, le: f64, d: f64) -> (Request, NodeMapping) {
        let g = star(1, StarDirection::AwayFromCenter);
        (
            Request::new(name, g, vec![1.0, 0.0], vec![0.1], es, le, d),
            vec![NodeId(0), NodeId(1)],
        )
    }

    fn core() -> ServiceCore {
        let substrate = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        ServiceCore::new(substrate, 20.0, ServiceOptions::default())
    }

    #[test]
    fn admits_then_schedules_around_reservation() {
        let mut c = core();
        let (r1, m1) = tight("a", 0.0, 10.0, 2.0);
        let d1 = c.admit(r1, m1).unwrap();
        assert!(d1.accepted);
        assert_eq!(d1.start, 0.0, "objective (21): as early as possible");
        assert_eq!(c.reservations().len(), 1);

        // Same node, overlapping window with enough flexibility: must be
        // shifted behind the reservation, not rejected.
        let (r2, m2) = tight("b", 0.0, 10.0, 2.0);
        let d2 = c.admit(r2, m2).unwrap();
        assert!(d2.accepted);
        assert_eq!(d2.start, 2.0, "the end of 'a', bit for bit");
        assert_eq!(d2.nodes, 1, "node 0 rules out start 0 without an LP");

        // A rigid request colliding with both reservations is rejected, and
        // the explain narrative names the exhausted node.
        let (r3, m3) = tight("c", 1.0, 3.0, 2.0);
        let d3 = c.admit(r3, m3).unwrap();
        assert!(!d3.accepted);
        assert_eq!(d3.nodes, 0, "its one start is ruled out by node 0");
        let ex = d3.explain.expect("explanation attached");
        match ex.fate {
            crate::explain::Fate::Rejected { ref blockers, .. } => {
                assert!(blockers.iter().any(|b| b.node == 0), "{blockers:?}");
            }
            _ => panic!("expected rejection narrative"),
        }

        // The books verify under Definition 2.1.
        let (inst, sol) = c.reservation_snapshot();
        assert!(verify_with_tol(&inst, &sol, VERIFY_TOL).is_empty());
    }

    #[test]
    fn gc_drops_expired_reservations_only() {
        let mut c = core();
        let (r1, m1) = tight("a", 0.0, 4.0, 2.0);
        assert!(c.admit(r1, m1).unwrap().accepted);
        // Admitting 'b' advances the water mark to 2.0, which already
        // collects 'a' (ends exactly at 2.0) before the scan starts.
        let (r2, m2) = tight("b", 2.0, 8.0, 2.0);
        assert!(c.admit(r2, m2).unwrap().accepted);
        assert_eq!(c.reservations().len(), 1);
        assert_eq!(c.collected_total(), 1);
        assert_eq!(c.reservations()[0].request.name, "b");

        // 'b' runs [2, 4]; an explicit advance past its end collects it too.
        assert_eq!(c.advance(5.0), 1);
        assert!(c.reservations().is_empty());
        assert_eq!(c.collected_total(), 2);

        // The freed capacity is genuinely available again.
        let (r3, m3) = tight("c", 6.0, 10.0, 2.0);
        assert!(c.admit(r3, m3).unwrap().accepted);
    }

    #[test]
    fn monotone_arrivals_enforced() {
        let mut c = core();
        c.advance(5.0);
        let (r, m) = tight("late", 1.0, 4.0, 2.0);
        match c.admit(r, m) {
            Err(AdmitError::WindowOutOfRange(_)) => {}
            other => panic!("expected window error, got {other:?}"),
        }
    }

    #[test]
    fn bad_mapping_and_horizon_refused_without_solving() {
        let mut c = core();
        let (r, _) = tight("x", 0.0, 4.0, 2.0);
        assert!(matches!(
            c.admit(r.clone(), vec![NodeId(0)]),
            Err(AdmitError::BadMapping(_))
        ));
        assert!(matches!(
            c.admit(r.clone(), vec![NodeId(0), NodeId(99)]),
            Err(AdmitError::BadMapping(_))
        ));
        let g = star(1, StarDirection::AwayFromCenter);
        let beyond = Request::new("y", g, vec![1.0, 0.0], vec![0.1], 0.0, 100.0, 2.0);
        assert!(matches!(
            c.admit(beyond, vec![NodeId(0), NodeId(1)]),
            Err(AdmitError::WindowOutOfRange(_))
        ));
    }

    #[test]
    fn leak_fault_double_books_capacity() {
        let substrate = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let mut c = ServiceCore::new(
            substrate,
            20.0,
            ServiceOptions {
                leak_every: Some(1), // leak every accepted reservation
                ..ServiceOptions::default()
            },
        );
        let (r1, m1) = tight("a", 0.0, 2.5, 2.0);
        let d1 = c.admit(r1, m1).unwrap();
        assert!(d1.accepted);
        assert!(c.reservations().is_empty(), "reservation leaked by fault");
        // The rigid twin is admitted into the same slot: double booking.
        let (r2, m2) = tight("b", 0.0, 2.5, 2.0);
        let d2 = c.admit(r2, m2).unwrap();
        assert!(d2.accepted, "leak makes the core over-accept");
    }

    /// Recomputes the on-read utilization the verifier's way — same probe
    /// times, same open-interval activity test, same summation order — and
    /// demands bitwise equality.
    fn assert_util_matches_verifier(c: &ServiceCore) {
        let (inst, sol) = c.reservation_snapshot();
        let times = sol.critical_times();
        let points = util_points(&inst, &sol);
        assert_eq!(points.len(), times.len());
        for (p, &t) in points.iter().zip(&times) {
            assert_eq!(p.t, t, "probe times must match bitwise");
            for n in inst.substrate.graph().nodes() {
                let load: f64 = sol
                    .scheduled
                    .iter()
                    .zip(&inst.requests)
                    .filter(|(s, _)| s.accepted && s.start < t && t < s.end)
                    .filter_map(|(s, r)| s.embedding.as_ref().map(|e| e.node_allocation(r, n)))
                    .sum();
                assert_eq!(p.node_load[n.0], load, "node {} at t={t}", n.0);
            }
            for e in inst.substrate.graph().edge_ids() {
                let load: f64 = sol
                    .scheduled
                    .iter()
                    .zip(&inst.requests)
                    .filter(|(s, _)| s.accepted && s.start < t && t < s.end)
                    .filter_map(|(s, r)| s.embedding.as_ref().map(|em| em.edge_allocation(r, e)))
                    .sum();
                assert_eq!(p.edge_load[e.0], load, "edge {} at t={t}", e.0);
            }
        }
    }

    #[test]
    fn util_timeline_matches_verifier_bitwise() {
        let mut c = core();
        for (name, es, le, d) in [
            ("a", 0.0, 10.0, 2.0),
            ("b", 0.0, 10.0, 2.0),
            ("c", 1.0, 3.0, 2.0), // rejected: rigid collision
            ("d", 3.0, 12.0, 4.0),
        ] {
            let (r, m) = tight(name, es, le, d);
            c.admit(r, m).unwrap();
            assert_util_matches_verifier(&c);
        }
        // 'b' runs [2, 4] and 'd' [4, 8], each saturating node 0; the first
        // point past the water mark (3, d's release) is d's interval.
        let (inst, sol) = c.reservation_snapshot();
        let summary = util_summary(c.substrate(), &util_points(&inst, &sol), c.water_mark());
        assert_eq!((summary.points, summary.node_max), (2, 1.0));
        assert_eq!(summary.headroom_next, 0.0);
        c.advance(11.0);
        assert_util_matches_verifier(&c);
    }

    #[test]
    fn restore_rebuilds_identical_decisions() {
        // Decisions after a restore must match an uninterrupted sequence.
        let mut full = core();
        let (r1, m1) = tight("a", 0.0, 10.0, 2.0);
        let d1 = full.admit(r1.clone(), m1.clone()).unwrap();
        let (r2, m2) = tight("b", 0.0, 10.0, 2.0);
        let d2 = full.admit(r2.clone(), m2.clone()).unwrap();

        let mut recovered = core();
        recovered.restore(full.reservations()[0].clone());
        // Re-decide 'b' only: identical schedule.
        let d2r = recovered.admit(r2, m2).unwrap();
        assert_eq!(d2.accepted, d2r.accepted);
        assert_eq!(d2.start, d2r.start);
        assert_eq!(d2.end, d2r.end);
        assert_eq!(d1.id, 0);
        assert_eq!(d2r.id, d2.id, "id counter continues past restored ids");
    }

    /// The LP of start `s` as it was built before the scan re-bounded one
    /// model: the residual substrate, a one-request instance pinned to
    /// `[s, s + d_R]` and the whole cΣ model with `x_R = 1`, relaxed to
    /// minimize sense.
    fn per_start_relaxation(
        c: &ServiceCore,
        inst: &Instance,
        sol: &TemporalSolution,
        request: &Request,
        mapping: &NodeMapping,
        s: f64,
    ) -> tvnep_lp::LpProblem {
        let end = s + request.duration;
        let times = probe_times(sol, s, end);
        let peak = |load: &dyn Fn(f64) -> f64| times.iter().map(|&t| load(t)).fold(0.0, f64::max);
        let sub = c.substrate();
        let node_cap = sub
            .graph()
            .nodes()
            .map(|n| (sub.node_capacity(n) - peak(&|t| node_load_at(inst, sol, n, t))).max(0.0))
            .collect();
        let edge_cap = sub
            .graph()
            .edge_ids()
            .map(|e| (sub.edge_capacity(e) - peak(&|t| edge_load_at(inst, sol, e, t))).max(0.0))
            .collect();
        let mut pinned = request.clone();
        pinned.earliest_start = s;
        pinned.latest_end = end;
        let one = Instance::new(
            Substrate::new(sub.graph().clone(), node_cap, edge_cap),
            vec![pinned],
            c.horizon(),
            Some(vec![mapping.clone()]),
        );
        let mut built = build_model(
            &one,
            Formulation::CSigma,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::CSigma),
        );
        built.mip.fix_var(built.emb.x_r[0], 1.0);
        built.mip.relaxation_min()
    }

    /// The scan's re-bounded LP equals the per-start build bit for bit at
    /// every candidate start of the benchmark's two service streams (`tiny`,
    /// 100 requests, mean inter-arrival 0.125 h, +2 h, seeds 7 and 4): its
    /// objective and row store, and the engine's column and row bounds. The
    /// scan's solve then returns what a fresh engine's dual solve of the
    /// per-start LP returns, and the admission takes the first start where
    /// that LP is optimal, with its flows. At every start the node check
    /// rules out, that LP is not optimal, and a decision's `nodes` counts the
    /// starts the check lets through.
    #[test]
    fn rebound_lp_equals_the_per_start_build_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (seed, want_starts, want_ruled_out, want_accepted) in
            [(7, 396, 373, 23), (4, 374, 353, 21)]
        {
            let config = tvnep_workloads::WorkloadConfig {
                num_requests: 100,
                mean_interarrival: 0.125,
                ..tvnep_workloads::WorkloadConfig::tiny()
            };
            let stream = tvnep_workloads::generate(&config, seed).with_flexibility_after(2.0);
            let maps = stream
                .fixed_node_mappings
                .clone()
                .expect("mappings are fixed");
            let opts = ServiceOptions::default();
            let mut c = ServiceCore::new(stream.substrate.clone(), stream.horizon, opts.clone());
            let (mut starts, mut ruled_out, mut lps, mut accepted) = (0, 0, 0, 0);
            for (request, mapping) in stream.requests.iter().zip(&maps) {
                let what = format!("seed {seed}, request {}", request.name);
                c.advance(request.earliest_start);
                let (inst, sol) = c.candidate_snapshot(request, mapping);
                let mut scan = StartScan::new(
                    c.substrate(),
                    c.horizon(),
                    request,
                    mapping,
                    &opts.subproblem,
                );
                let lp = scan.built.mip.relaxation_min();
                let demand = pinned_demand(request, mapping, c.substrate().num_nodes());
                let (mut fit, mut passed) = (None, 0);
                for s in c.candidate_starts(request) {
                    let residuals = Residuals::at(&inst, &sol, s, s + request.duration);
                    let rule_out = residuals.rule_out(&demand);
                    scan.rebound(&residuals, s);
                    let reference = per_start_relaxation(&c, &inst, &sol, request, mapping, s);
                    let what = format!("{what}, start {s}");
                    assert_eq!(bits(lp.objective()), bits(reference.objective()), "{what}");
                    assert_eq!(lp.obj_offset().to_bits(), reference.obj_offset().to_bits());
                    assert_eq!(lp.num_rows(), reference.num_rows(), "{what}");
                    for i in 0..lp.num_rows() {
                        let row = |p: &tvnep_lp::LpProblem| {
                            let terms = p.row(tvnep_lp::RowId(i));
                            terms
                                .iter()
                                .map(|&(j, v)| (j, v.to_bits()))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(row(&lp), row(&reference), "{what}: row {i}");
                        let (lo, up) = scan.engine.row_bounds(i);
                        let want = (reference.row_lower()[i], reference.row_upper()[i]);
                        assert_eq!(bits(&[lo, up]), bits(&[want.0, want.1]), "{what}: row {i}");
                    }
                    assert_eq!(lp.num_vars(), reference.num_vars(), "{what}");
                    for j in 0..lp.num_vars() {
                        let (lo, up) = scan.engine.var_bounds(j);
                        let want = (reference.var_lower()[j], reference.var_upper()[j]);
                        assert_eq!(bits(&[lo, up]), bits(&[want.0, want.1]), "{what}: col {j}");
                    }
                    let mut fresh = Simplex::new(&reference);
                    let status = fresh.solve_warm();
                    let embedding = scan.solve(None);
                    let x = scan.engine.extract(status).x;
                    assert_eq!(bits(&x), bits(&fresh.extract(status).x), "{what}");
                    assert_eq!(embedding.is_some(), status == LpStatus::Optimal, "{what}");
                    starts += 1;
                    if rule_out {
                        ruled_out += 1;
                        assert_ne!(status, LpStatus::Optimal, "{what}: ruled out, yet optimal");
                    } else {
                        passed += 1;
                    }
                    if let Some(embedding) = embedding {
                        fit = Some((s, embedding));
                        break;
                    }
                }
                let d = c.admit(request.clone(), mapping.clone()).unwrap();
                assert_eq!(d.accepted, fit.is_some(), "{what}");
                assert_eq!(d.nodes, passed, "{what}: one LP per start the check passes");
                lps += d.nodes;
                if let Some((s, embedding)) = fit {
                    accepted += 1;
                    assert_eq!(d.start.to_bits(), s.to_bits(), "{what}");
                    let flows = |e: &Embedding| {
                        let f = e.edge_flows.iter().flatten();
                        f.map(|&(e, v)| (e, v.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(flows(&d.embedding.unwrap()), flows(&embedding), "{what}");
                }
            }
            assert_eq!(
                (starts, ruled_out, accepted),
                (want_starts, want_ruled_out, want_accepted),
                "seed {seed}"
            );
            assert_eq!(lps, starts - ruled_out, "seed {seed}");
        }
    }
}
