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
//! The core keeps its live reservations as the one instance and the one
//! solution every reader takes, entry for entry in admission order: the
//! substrate and the horizon with each reservation's pinned request and
//! mapping, and each one's schedule and embedding
//! ([`reservation_snapshot`](ServiceCore::reservation_snapshot) lends them
//! out). An admission moves its candidate into them as the last entry,
//! rejected at its release; the scan's residual loads and the explain
//! narrative read it there, and it is then pinned in place (accepted) or
//! removed (rejected). Reading them copies nothing: no admission clones a
//! reservation, and only the single-request LP below, built for a
//! candidate with a start that passes the node check, copies the
//! substrate.
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
use tvnep_model::tol::FEAS_TOL;
use tvnep_model::{
    check_mapping, check_window, Embedding, Instance, NodeMapping, Request, ScheduledRequest,
    Substrate, TemporalSolution,
};
use tvnep_telemetry::{FlightHandle, Telemetry};

/// Options of the admission core.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Where each candidate start's LP reports.
    pub subproblem: SubproblemHandles,
    /// **Fault injection for the harness only**: when `Some(k)`, every k-th
    /// accepted reservation is silently dropped instead of recorded — the
    /// observable effect of a reservation leak (capacity double-booking).
    /// The `online_consistency` oracle must catch this.
    pub leak_every: Option<usize>,
}

/// The observability handles each candidate start's LP reports to. They
/// watch the scan and steer nothing: no budget and no deadline reach a
/// decision.
#[derive(Debug, Clone, Default)]
pub struct SubproblemHandles {
    /// Solver metrics and spans (the `serve.admit` span, the LP counters).
    pub telemetry: Telemetry,
    /// Flight recorder: one progress tick per LP, and the LP's and the
    /// decision's events.
    pub blackbox: Option<FlightHandle>,
}

/// An admitted request holding substrate capacity: the pinned schedule and
/// embedding every later admission treats as immovable, as
/// [`restore`](ServiceCore::restore) installs it.
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

/// A live reservation borrowed from the core's books: the fields of a
/// [`Reservation`], read in place.
#[derive(Debug, Clone, Copy)]
pub struct ReservationRef<'a> {
    /// Service-assigned admission id.
    pub id: u64,
    /// The request, window collapsed to the reserved `[start, end]`.
    pub request: &'a Request,
    /// Pinned virtual-node → substrate-node mapping.
    pub mapping: &'a NodeMapping,
    /// Reserved start `t⁺`.
    pub start: f64,
    /// Reserved end `t⁻ = t⁺ + d`.
    pub end: f64,
    /// The link embedding chosen at admission time.
    pub embedding: &'a Embedding,
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
    pub explain: RequestExplanation,
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
    opts: ServiceOptions,
    /// The books: the substrate, the horizon and each live reservation's
    /// pinned request and mapping, in admission order (and, during an
    /// admission, the candidate last).
    books: Instance,
    /// Each entry's schedule and embedding, entry for entry.
    schedule: TemporalSolution,
    /// Each entry's admission id, entry for entry.
    ids: Vec<u64>,
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
            opts,
            books: Instance::new(substrate, Vec::new(), horizon, Some(Vec::new())),
            schedule: TemporalSolution {
                scheduled: Vec::new(),
                reported_objective: None,
            },
            ids: Vec::new(),
            water_mark: 0.0,
            next_id: 0,
            accepted_total: 0,
            collected_total: 0,
        }
    }

    /// The substrate this core allocates on.
    pub fn substrate(&self) -> &Substrate {
        &self.books.substrate
    }

    /// The time horizon `T` of every admission.
    pub fn horizon(&self) -> f64 {
        self.books.horizon
    }

    /// The live reservations in admission order, read in place from the
    /// books ([`len`](ExactSizeIterator::len) is O(1)).
    pub fn reservations(&self) -> impl ExactSizeIterator<Item = ReservationRef<'_>> + '_ {
        self.ids
            .iter()
            .zip(&self.books.requests)
            .zip(self.mappings())
            .zip(&self.schedule.scheduled)
            .map(|(((&id, request), mapping), s)| ReservationRef {
                id,
                request,
                mapping,
                start: s.start,
                end: s.end,
                embedding: s.embedding.as_ref().expect("a reservation is accepted"),
            })
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
        let before = self.ids.len();
        let mark = self.water_mark;
        // Compact the live entries to the front, in order, then cut the rest.
        let mut kept = 0;
        for i in 0..before {
            if self.schedule.scheduled[i].end > mark + 1e-12 {
                self.ids.swap(kept, i);
                self.books.requests.swap(kept, i);
                self.mappings_mut().swap(kept, i);
                self.schedule.scheduled.swap(kept, i);
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.books.requests.truncate(kept);
        self.mappings_mut().truncate(kept);
        self.schedule.scheduled.truncate(kept);
        let dropped = before - kept;
        self.collected_total += dropped as u64;
        dropped
    }

    /// Re-installs a reservation recovered from a write-ahead log. The id
    /// counter is bumped past `res.id` so freshly admitted requests never
    /// collide with replayed ones.
    pub fn restore(&mut self, res: Reservation) {
        self.next_id = self.next_id.max(res.id + 1);
        self.accepted_total += 1;
        self.push(
            res.id,
            res.request,
            res.mapping,
            ScheduledRequest {
                accepted: true,
                start: res.start,
                end: res.end,
                embedding: Some(res.embedding),
            },
        );
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
        check_window(request, self.books.horizon).map_err(AdmitError::WindowOutOfRange)?;
        check_mapping(request, mapping, &self.books.substrate).map_err(AdmitError::BadMapping)
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
        let _span = self
            .opts
            .subproblem
            .telemetry
            .span("serve.admit")
            .arg("id", id as f64);

        let starts = self.candidate_starts(&request);
        let demand = pinned_demand(&request, &mapping, self.books.substrate.num_nodes());
        let (release, duration) = (request.earliest_start, request.duration);
        // The candidate joins the books last, rejected at its release until
        // a start fits: the residual loads and the explain narrative read it
        // there.
        let k = self.ids.len();
        self.push(
            id,
            request,
            mapping,
            ScheduledRequest {
                accepted: false,
                start: release,
                end: release + duration,
                embedding: None,
            },
        );
        let mut scan: Option<StartScan> = None;
        let mut lps = 0u64;
        for s in starts {
            let residuals = Residuals::at(&self.books, &self.schedule, s, s + duration);
            if residuals.rule_out(&demand) {
                continue;
            }
            let scan = scan.get_or_insert_with(|| {
                StartScan::new(
                    &self.books.substrate,
                    self.books.horizon,
                    &self.books.requests[k],
                    &self.mappings()[k],
                    &self.opts.subproblem,
                )
            });
            lps += 1;
            scan.rebound(&residuals, s);
            if let Some(embedding) = scan.solve() {
                self.schedule.scheduled[k] = ScheduledRequest {
                    accepted: true,
                    start: s,
                    end: s + duration,
                    embedding: Some(embedding),
                };
                break;
            }
        }
        if let Some(scan) = &scan {
            scan.engine
                .stats
                .flush_into(&self.opts.subproblem.telemetry);
        }

        self.next_id = self.next_id.max(id + 1);
        let explain = explain_request(&self.books, &self.schedule, k);
        let ScheduledRequest {
            accepted: accept,
            start,
            end,
            ..
        } = self.schedule.scheduled[k];
        if accept {
            self.accepted_total += 1;
        }
        let leak = accept
            && self
                .opts
                .leak_every
                .is_some_and(|n| n > 0 && self.accepted_total.is_multiple_of(n as u64));
        let (name, embedding) = if accept && !leak {
            // Pinned in place: the window collapses to the reserved interval.
            let pinned = &mut self.books.requests[k];
            pinned.earliest_start = start;
            pinned.latest_end = end;
            (
                pinned.name.clone(),
                self.schedule.scheduled[k].embedding.clone(),
            )
        } else {
            let (request, decided) = self.pop();
            (request.name, decided.embedding)
        };

        // Black-box record of the decision (each LP already recorded its
        // events through the same handle).
        if let Some(bb) = &self.opts.subproblem.blackbox {
            bb.record(tvnep_telemetry::EventKind::Admit, id, u64::from(accept));
        }

        Ok(AdmitDecision {
            id,
            name,
            accepted: accept,
            start,
            end,
            embedding,
            explain,
            nodes: lps,
            runtime: clock.elapsed(),
        })
    }

    /// Each entry's pinned mapping, entry for entry.
    fn mappings(&self) -> &[NodeMapping] {
        self.books
            .fixed_node_mappings
            .as_deref()
            .unwrap_or_default()
    }

    fn mappings_mut(&mut self) -> &mut Vec<NodeMapping> {
        self.books.fixed_node_mappings.get_or_insert_with(Vec::new)
    }

    /// Appends an entry to the books.
    fn push(&mut self, id: u64, request: Request, mapping: NodeMapping, entry: ScheduledRequest) {
        self.ids.push(id);
        self.books.requests.push(request);
        self.mappings_mut().push(mapping);
        self.schedule.scheduled.push(entry);
    }

    /// Removes the last entry of the books (a candidate that does not stay)
    /// and returns its request and schedule.
    fn pop(&mut self) -> (Request, ScheduledRequest) {
        self.ids.pop();
        self.mappings_mut().pop();
        let request = self.books.requests.pop().expect("an entry to remove");
        let decided = self.schedule.scheduled.pop().expect("an entry to remove");
        (request, decided)
    }

    /// Candidate starts, ascending: the release, then every live
    /// reservation end inside the window.
    fn candidate_starts(&self, request: &Request) -> Vec<f64> {
        let mut starts: Vec<f64> = self
            .schedule
            .scheduled
            .iter()
            .map(|r| r.end)
            .filter(|&t| t > request.earliest_start && t <= request.latest_start())
            .collect();
        starts.push(request.earliest_start);
        starts.sort_by(f64::total_cmp);
        starts.dedup();
        starts
    }

    /// The live reservations as the books hold them: an instance (one
    /// pinned request per reservation, with its mapping) and its solution,
    /// in admission order. The independent Definition-2.1 verifier audits
    /// the core's books on them at any time; a caller that extends them
    /// clones them first.
    pub fn reservation_snapshot(&self) -> (&Instance, &TemporalSolution) {
        (&self.books, &self.schedule)
    }
}

/// The residual capacities at one candidate start `s`: each capacity minus
/// its peak load on `(s, s + d_R)` under the reservations of the books (the
/// candidate, still rejected there, adds none), at least 0.
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
        opts: &SubproblemHandles,
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
    /// infeasible or fails.
    fn solve(&mut self) -> Option<Embedding> {
        // One progress tick per LP, the unit a decision's `nodes` counts:
        // the stall watchdog sees an LP that takes no pivot too. A start the
        // node check rules out runs no LP and ticks nothing.
        if let Some(bb) = &self.blackbox {
            bb.pulse().add_nodes(1);
        }
        let engine = &mut self.engine;
        engine.restart();
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
        match d3.explain.fate {
            crate::explain::Fate::Rejected { ref blockers, .. } => {
                assert!(blockers.iter().any(|b| b.node == 0), "{blockers:?}");
            }
            _ => panic!("expected rejection narrative"),
        }

        // The books verify under Definition 2.1.
        let (inst, sol) = c.reservation_snapshot();
        assert!(verify_with_tol(inst, sol, VERIFY_TOL).is_empty());
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
        assert_eq!(c.reservations().next().unwrap().request.name, "b");

        // 'b' runs [2, 4]; an explicit advance past its end collects it too.
        assert_eq!(c.advance(5.0), 1);
        assert_eq!(c.reservations().len(), 0);
        assert_eq!(c.collected_total(), 2);

        // The freed capacity is genuinely available again.
        let (r3, m3) = tight("c", 6.0, 10.0, 2.0);
        assert!(c.admit(r3, m3).unwrap().accepted);
        assert_books_aligned(&c, &[(2, "c", 0, 6.0, 8.0)]);

        // Four reservations on four nodes, released together; a collection
        // out of admission order keeps the survivors' ids, requests,
        // mappings and schedules together, in admission order.
        let mut c = core();
        for (name, host, d) in [("p", 0, 2.0), ("q", 1, 6.0), ("r", 2, 3.0), ("s", 3, 8.0)] {
            let (r, _) = tight(name, 0.0, d, d);
            let m = vec![NodeId(host), NodeId((host + 1) % 4)];
            assert!(c.admit(r, m).unwrap().accepted, "{name}");
        }
        assert_eq!(c.advance(3.5), 2, "'p' and 'r' end by 3.5");
        assert_books_aligned(&c, &[(1, "q", 1, 0.0, 6.0), (3, "s", 3, 0.0, 8.0)]);
        let (r, m) = tight("t", 4.0, 9.0, 3.0);
        assert!(c.admit(r, m).unwrap().accepted);
        assert_eq!(c.advance(6.5), 1, "'q' ends at 6");
        assert_books_aligned(&c, &[(3, "s", 3, 0.0, 8.0), (4, "t", 0, 4.0, 7.0)]);
    }

    /// The books hold exactly `want`, `(id, name, host of virtual node 0,
    /// start, end)` per live reservation in admission order, every entry's
    /// request pinned to its schedule and its embedding on its mapping.
    fn assert_books_aligned(c: &ServiceCore, want: &[(u64, &str, usize, f64, f64)]) {
        let (inst, sol) = c.reservation_snapshot();
        let maps = inst
            .fixed_node_mappings
            .as_ref()
            .expect("mappings are pinned");
        assert_eq!(c.reservations().len(), want.len());
        assert_eq!(inst.requests.len(), want.len());
        assert_eq!(maps.len(), want.len());
        assert_eq!(sol.scheduled.len(), want.len());
        for (i, (r, &(id, name, host, start, end))) in c.reservations().zip(want).enumerate() {
            assert_eq!((r.id, r.request.name.as_str()), (id, name), "entry {i}");
            assert_eq!(r.mapping[0], NodeId(host), "entry {i}");
            assert_eq!((r.start, r.end), (start, end), "entry {i}");
            assert_eq!(
                (r.request.earliest_start, r.request.latest_end),
                (start, end)
            );
            assert_eq!(&r.embedding.node_map, r.mapping, "entry {i}");
            assert!(std::ptr::eq(r.request, &inst.requests[i]), "entry {i}");
            assert!(std::ptr::eq(r.mapping, &maps[i]), "entry {i}");
            assert!(sol.scheduled[i].accepted, "entry {i}");
        }
        assert!(verify_with_tol(inst, sol, VERIFY_TOL).is_empty());
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
        assert_eq!(c.reservations().len(), 0, "reservation leaked by fault");
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
        let points = util_points(inst, sol);
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
        let summary = util_summary(c.substrate(), &util_points(inst, sol), c.water_mark());
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
        let r = full.reservations().next().unwrap();
        recovered.restore(Reservation {
            id: r.id,
            request: r.request.clone(),
            mapping: r.mapping.clone(),
            start: r.start,
            end: r.end,
            embedding: r.embedding.clone(),
        });
        // Re-decide 'b' only: identical schedule.
        let d2r = recovered.admit(r2, m2).unwrap();
        assert_eq!(d2.accepted, d2r.accepted);
        assert_eq!(d2.start, d2r.start);
        assert_eq!(d2.end, d2r.end);
        assert_eq!(d1.id, 0);
        assert_eq!(d2r.id, d2.id, "id counter continues past restored ids");
    }

    /// The snapshot an admission read before the books were kept in place:
    /// a clone of the live reservations plus the candidate, last and
    /// rejected at its release.
    fn snapshot_with(
        c: &ServiceCore,
        request: &Request,
        mapping: &NodeMapping,
    ) -> (Instance, TemporalSolution) {
        let (inst, sol) = c.reservation_snapshot();
        let (mut inst, mut sol) = (inst.clone(), sol.clone());
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

    /// The admission of `request` as it was decided on a cloned snapshot
    /// ([`snapshot_with`]): the same start scan over that snapshot, then
    /// the explain narrative on it with the candidate's schedule in place.
    fn snapshot_decision(
        c: &ServiceCore,
        request: &Request,
        mapping: &NodeMapping,
    ) -> (ScheduledRequest, RequestExplanation) {
        let (inst, mut sol) = snapshot_with(c, request, mapping);
        let k = inst.num_requests() - 1;
        let demand = pinned_demand(request, mapping, c.substrate().num_nodes());
        let mut scan: Option<StartScan> = None;
        for s in c.candidate_starts(request) {
            let residuals = Residuals::at(&inst, &sol, s, s + request.duration);
            if residuals.rule_out(&demand) {
                continue;
            }
            let scan = scan.get_or_insert_with(|| {
                StartScan::new(
                    c.substrate(),
                    c.horizon(),
                    request,
                    mapping,
                    &c.opts.subproblem,
                )
            });
            scan.rebound(&residuals, s);
            if let Some(embedding) = scan.solve() {
                sol.scheduled[k] = ScheduledRequest {
                    accepted: true,
                    start: s,
                    end: s + request.duration,
                    embedding: Some(embedding),
                };
                break;
            }
        }
        let explain = explain_request(&inst, &sol, k);
        (sol.scheduled.swap_remove(k), explain)
    }

    /// Deciding in place decides what the cloned snapshot decided, bit for
    /// bit: on the benchmark's two service streams (`tiny`, 100 requests,
    /// mean inter-arrival 0.125 h, +2 h, seeds 7 and 4) and on a looser one
    /// (seed 13, 80 requests, +4 h), every decision's verdict, start, end,
    /// flows and explain narrative equal those of [`snapshot_decision`] on
    /// the reservations it was decided against.
    #[test]
    fn in_place_books_decide_as_the_cloned_snapshot() {
        let bits = |e: &Option<Embedding>| {
            e.iter()
                .flat_map(|e| e.edge_flows.iter().flatten())
                .map(|&(e, v)| (e, v.to_bits()))
                .collect::<Vec<_>>()
        };
        for (seed, requests, flex, want_accepted) in
            [(7, 100, 2.0, 23), (4, 100, 2.0, 21), (13, 80, 4.0, 19)]
        {
            let config = tvnep_workloads::WorkloadConfig {
                num_requests: requests,
                mean_interarrival: 0.125,
                ..tvnep_workloads::WorkloadConfig::tiny()
            };
            let stream = tvnep_workloads::generate(&config, seed).with_flexibility_after(flex);
            let maps = stream
                .fixed_node_mappings
                .clone()
                .expect("mappings are fixed");
            let opts = ServiceOptions::default();
            let mut c = ServiceCore::new(stream.substrate.clone(), stream.horizon, opts);
            let mut accepted = 0;
            for (request, mapping) in stream.requests.iter().zip(&maps) {
                let what = format!("seed {seed}, request {}", request.name);
                c.advance(request.earliest_start);
                let (want, explain) = snapshot_decision(&c, request, mapping);
                let d = c.admit(request.clone(), mapping.clone()).unwrap();
                assert_eq!(d.accepted, want.accepted, "{what}");
                assert_eq!(d.start.to_bits(), want.start.to_bits(), "{what}");
                assert_eq!(d.end.to_bits(), want.end.to_bits(), "{what}");
                assert_eq!(d.embedding.is_some(), want.embedding.is_some(), "{what}");
                assert_eq!(bits(&d.embedding), bits(&want.embedding), "{what}");
                assert_eq!(
                    d.explain.to_json().to_string(),
                    explain.to_json().to_string(),
                    "{what}"
                );
                accepted += u64::from(d.accepted);
            }
            assert_eq!(accepted, want_accepted, "seed {seed}");
        }
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
                let (inst, sol) = snapshot_with(&c, request, mapping);
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
                    let embedding = scan.solve();
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
