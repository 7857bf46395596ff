//! The abstract event-point machinery (Section III-A) shared by the Δ-, Σ-
//! and cΣ-Models: event-mapping variables χ±, event times, the temporal
//! constraints of Table XIII, and the running-sum macro Σ(R, e_i) of
//! Table VIII.
//!
//! Event indices are 1-based throughout, matching the paper (`e_1 … e_E`).

use std::collections::BTreeMap;

use tvnep_mip::{MipModel, VarId};
use tvnep_model::{DepNode, DependencyGraph, Instance, Request};

/// How requests map onto event points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventScheme {
    /// 2|R| events; the union of starts and ends maps bijectively onto the
    /// events (Δ- and Σ-Models).
    Full,
    /// |R|+1 events; starts map bijectively onto `e_1..e_|R|`, ends map
    /// surjectively onto `e_2..e_|R|+1` with the semantics "ended in
    /// `(t_{e_{i−1}}, t_{e_i}]`" (cΣ-Model, Section IV-A).
    Compact,
}

/// What is known statically about Σ(R, e_i) from the event ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaClass {
    /// Σ(R, e_i) = 0 in every feasible assignment: no allocation in state i.
    StaticZero,
    /// Σ(R, e_i) = 1 in every feasible assignment (the event-range presolve
    /// of Section IV-C): allocations can bypass the `a_R` variables.
    StaticOne,
    /// Depends on the χ assignment.
    Dynamic,
}

/// Event-mapping and temporal variables plus their feasible ranges.
#[derive(Debug)]
pub struct EventVars {
    /// Scheme used to build the model.
    pub scheme: EventScheme,
    /// Total number of event points.
    pub num_events: usize,
    /// `t_{e_i}` (index 0 = `e_1`).
    pub t_event: Vec<VarId>,
    /// `t⁺_R` per request.
    pub t_plus: Vec<VarId>,
    /// `t⁻_R` per request.
    pub t_minus: Vec<VarId>,
    /// χ⁺_R: per request, 1-based event index → variable. Only events inside
    /// the feasible range have variables (Constraint (19) by construction).
    pub chi_start: Vec<BTreeMap<usize, VarId>>,
    /// χ⁻_R likewise.
    pub chi_end: Vec<BTreeMap<usize, VarId>>,
    /// Inclusive 1-based start-event range per request.
    pub start_range: Vec<(usize, usize)>,
    /// Inclusive 1-based end-event range per request.
    pub end_range: Vec<(usize, usize)>,
}

/// The bounds of `t⁺_R` and `t⁻_R`, in that order: the request's window.
/// Rigid windows can produce `latest_start` a few ulps below
/// `earliest_start` (`t^e − d` in floating point); both are clamped.
pub fn time_bounds(r: &Request) -> [(f64, f64); 2] {
    [
        (r.earliest_start, r.latest_start().max(r.earliest_start)),
        (r.earliest_end().min(r.latest_end), r.latest_end),
    ]
}

/// Options controlling the strength of the event model.
#[derive(Debug, Clone, Copy)]
pub struct EventOptions {
    /// Restrict χ ranges using the dependency graph (Constraint (19) /
    /// event-range presolve). When false, only the structural ranges apply.
    pub dependency_ranges: bool,
    /// Add the pairwise cuts of Constraint (20).
    pub pairwise_cuts: bool,
    /// Add cumulative start-before-end ordering cuts
    /// `Σ_{j≤i} χ⁻(e_j) ≤ Σ_{j≤i−1} χ⁺(e_j)` (valid; implied integrally by
    /// the temporal constraints, but they tighten the relaxation).
    pub ordering_cuts: bool,
}

impl EventVars {
    /// Builds the event model for `instance` under `scheme`.
    pub fn build(
        m: &mut MipModel,
        instance: &Instance,
        scheme: EventScheme,
        dep: &DependencyGraph,
        opts: EventOptions,
    ) -> Self {
        let k = instance.num_requests();
        let horizon = instance.horizon;
        let num_events = match scheme {
            EventScheme::Full => 2 * k,
            EventScheme::Compact => k + 1,
        };

        // Event times with weak monotonic order (Constraint (13)).
        let t_event: Vec<VarId> = (0..num_events)
            .map(|_| m.add_continuous(0.0, horizon, 0.0))
            .collect();
        for w in t_event.windows(2) {
            m.add_le(&[(w[0], 1.0), (w[1], -1.0)], 0.0);
        }

        // Request start/end times, windows as variable bounds.
        let mut t_plus = Vec::with_capacity(k);
        let mut t_minus = Vec::with_capacity(k);
        for r in &instance.requests {
            let [(slo, sup), (elo, eup)] = time_bounds(r);
            t_plus.push(m.add_continuous(slo, sup, 0.0));
            t_minus.push(m.add_continuous(elo, eup, 0.0));
        }
        // Constraint (18): t⁻ − t⁺ = d.
        for (r, req) in instance.requests.iter().enumerate() {
            m.add_eq(&[(t_minus[r], 1.0), (t_plus[r], -1.0)], req.duration);
        }

        // Feasible event ranges.
        let structural = |is_start: bool| match scheme {
            EventScheme::Full => (1, num_events),
            EventScheme::Compact => {
                if is_start {
                    (1, k)
                } else {
                    (2, k + 1)
                }
            }
        };
        let mut start_range = Vec::with_capacity(k);
        let mut end_range = Vec::with_capacity(k);
        for r in 0..k {
            let (mut slo, mut shi) = structural(true);
            let (mut elo, mut ehi) = structural(false);
            if opts.dependency_ranges {
                let (dslo, dshi) = match scheme {
                    EventScheme::Compact => dep.event_range(DepNode::Start(r)),
                    EventScheme::Full => dep.event_range_full(DepNode::Start(r)),
                };
                let (delo, dehi) = match scheme {
                    EventScheme::Compact => dep.event_range(DepNode::End(r)),
                    EventScheme::Full => dep.event_range_full(DepNode::End(r)),
                };
                slo = slo.max(dslo);
                shi = shi.min(dshi);
                elo = elo.max(delo);
                ehi = ehi.min(dehi);
            }
            assert!(
                slo <= shi && elo <= ehi,
                "empty event range for request {r}"
            );
            start_range.push((slo, shi));
            end_range.push((elo, ehi));
        }

        // χ variables, only within ranges.
        let mut chi_start: Vec<BTreeMap<usize, VarId>> = Vec::with_capacity(k);
        let mut chi_end: Vec<BTreeMap<usize, VarId>> = Vec::with_capacity(k);
        for r in 0..k {
            let s: BTreeMap<usize, VarId> = (start_range[r].0..=start_range[r].1)
                .map(|i| (i, m.add_binary(0.0)))
                .collect();
            let e: BTreeMap<usize, VarId> = (end_range[r].0..=end_range[r].1)
                .map(|i| (i, m.add_binary(0.0)))
                .collect();
            chi_start.push(s);
            chi_end.push(e);
        }

        // Each request's start and end map exactly once (Constraints
        // (10)/(11); with dependency ranges this *is* Constraint (19)).
        for r in 0..k {
            let terms: Vec<_> = chi_start[r].values().map(|&v| (v, 1.0)).collect();
            m.add_eq(&terms, 1.0);
            let terms: Vec<_> = chi_end[r].values().map(|&v| (v, 1.0)).collect();
            m.add_eq(&terms, 1.0);
        }

        // Event occupancy.
        match scheme {
            EventScheme::Compact => {
                // Constraint (12): each of e_1..e_k hosts exactly one start.
                for i in 1..=k {
                    let terms: Vec<_> = (0..k)
                        .filter_map(|r| chi_start[r].get(&i).map(|&v| (v, 1.0)))
                        .collect();
                    assert!(!terms.is_empty(), "event {i} hosts no candidate start");
                    m.add_eq(&terms, 1.0);
                }
            }
            EventScheme::Full => {
                // Starts ∪ ends map bijectively: one point per event.
                for i in 1..=num_events {
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    for r in 0..k {
                        if let Some(&v) = chi_start[r].get(&i) {
                            terms.push((v, 1.0));
                        }
                        if let Some(&v) = chi_end[r].get(&i) {
                            terms.push((v, 1.0));
                        }
                    }
                    assert!(!terms.is_empty(), "event {i} hosts no candidate point");
                    m.add_eq(&terms, 1.0);
                }
            }
        }

        let ev = Self {
            scheme,
            num_events,
            t_event,
            t_plus,
            t_minus,
            chi_start,
            chi_end,
            start_range,
            end_range,
        };
        ev.add_time_constraints(m, instance);
        if opts.ordering_cuts {
            ev.add_ordering_cuts(m);
        }
        if opts.pairwise_cuts {
            ev.add_pairwise_cuts(m, dep);
        }
        ev
    }

    /// Temporal constraints of Table XIII, binding request times to event
    /// times through the big-M sums (14)–(17).
    fn add_time_constraints(&self, m: &mut MipModel, instance: &Instance) {
        let horizon = instance.horizon;
        for r in 0..instance.num_requests() {
            // Starts: t⁺ pinned to its event time from both sides.
            for i in self.start_range[r].0..=self.start_range[r].1 {
                // (14): t⁺ ≤ t_{e_i} + (1 − Σ_{j≤i} χ⁺(e_j))·T.
                let mut terms = vec![(self.t_plus[r], 1.0), (self.t_event[i - 1], -1.0)];
                for (&j, &v) in &self.chi_start[r] {
                    if j <= i {
                        terms.push((v, horizon));
                    }
                }
                m.add_le(&terms, horizon);
                // (15): t⁺ ≥ t_{e_i} − (1 − Σ_{j≥i} χ⁺(e_j))·T.
                let mut terms = vec![(self.t_plus[r], 1.0), (self.t_event[i - 1], -1.0)];
                for (&j, &v) in &self.chi_start[r] {
                    if j >= i {
                        terms.push((v, -horizon));
                    }
                }
                m.add_ge(&terms, -horizon);
            }
            // Ends.
            for i in self.end_range[r].0..=self.end_range[r].1 {
                // (16): t⁻ ≤ t_{e_i} + (1 − Σ_{j≤i} χ⁻(e_j))·T.
                let mut terms = vec![(self.t_minus[r], 1.0), (self.t_event[i - 1], -1.0)];
                for (&j, &v) in &self.chi_end[r] {
                    if j <= i {
                        terms.push((v, horizon));
                    }
                }
                m.add_le(&terms, horizon);
                match self.scheme {
                    EventScheme::Compact => {
                        // (17): t⁻ ≥ t_{e_{i−1}} − (1 − Σ_{j≥i} χ⁻(e_j))·T —
                        // ends lie in (t_{e_{i−1}}, t_{e_i}].
                        let mut terms = vec![(self.t_minus[r], 1.0), (self.t_event[i - 2], -1.0)];
                        for (&j, &v) in &self.chi_end[r] {
                            if j >= i {
                                terms.push((v, -horizon));
                            }
                        }
                        m.add_ge(&terms, -horizon);
                    }
                    EventScheme::Full => {
                        // Ends map exactly: t⁻ ≥ t_{e_i} − (1 − Σ_{j≥i} χ⁻)·T.
                        let mut terms = vec![(self.t_minus[r], 1.0), (self.t_event[i - 1], -1.0)];
                        for (&j, &v) in &self.chi_end[r] {
                            if j >= i {
                                terms.push((v, -horizon));
                            }
                        }
                        m.add_ge(&terms, -horizon);
                    }
                }
            }
        }
    }

    /// Cumulative ordering cuts: a request's end cannot be mapped at or
    /// before its start event.
    fn add_ordering_cuts(&self, m: &mut MipModel) {
        for r in 0..self.chi_start.len() {
            for i in 1..=self.num_events {
                let ends: Vec<_> = self.chi_end[r]
                    .iter()
                    .filter(|&(&j, _)| j <= i)
                    .map(|(_, &v)| (v, 1.0))
                    .collect();
                if ends.is_empty() {
                    continue;
                }
                let mut terms = ends;
                let mut nontrivial = false;
                for (&j, &v) in &self.chi_start[r] {
                    if j <= i.saturating_sub(1) {
                        terms.push((v, -1.0));
                    } else {
                        nontrivial = true;
                    }
                }
                // Skip rows where all starts are surely ≤ i−1 (0 ≤ 0 trivial).
                if nontrivial {
                    m.add_le(&terms, 0.0);
                }
            }
        }
    }

    /// Constraint (20): if `w` is mapped on `e_i`, then `v` must be mapped on
    /// `e_1..e_{i−dist(v,w)}`.
    fn add_pairwise_cuts(&self, m: &mut MipModel, dep: &DependencyGraph) {
        let _ = self.chi_start.len();
        let chi = |node: DepNode| match node {
            DepNode::Start(r) => &self.chi_start[r],
            DepNode::End(r) => &self.chi_end[r],
        };
        for v in dep.dep_nodes() {
            for w in dep.dep_nodes() {
                if v == w {
                    continue;
                }
                let d = match self.scheme {
                    EventScheme::Compact => dep.dist_max(v, w),
                    EventScheme::Full => dep.dist_max_full(v, w),
                };
                if d == 0 {
                    continue;
                }
                for i in d + 1..=self.num_events {
                    // Σ_{j≤i} χ(e_j, w) ≤ Σ_{j≤i−d} χ(e_j, v).
                    let lhs: Vec<_> = chi(w)
                        .iter()
                        .filter(|&(&j, _)| j <= i)
                        .map(|(_, &x)| (x, 1.0))
                        .collect();
                    if lhs.is_empty() {
                        continue;
                    }
                    let rhs: Vec<_> = chi(v)
                        .iter()
                        .filter(|&(&j, _)| j <= i - d)
                        .map(|(_, &x)| (x, -1.0))
                        .collect();
                    // Trivial when the rhs surely covers everything.
                    if rhs.len() == chi(v).len() && lhs.len() == chi(w).len() {
                        continue;
                    }
                    let mut terms = lhs;
                    terms.extend(rhs);
                    m.add_le(&terms, 0.0);
                }
            }
        }
    }

    /// Classifies Σ(R, e_i) for state `s_i` from the event ranges.
    pub fn sigma_class(&self, r: usize, i: usize) -> SigmaClass {
        let (slo, shi) = self.start_range[r];
        let (elo, ehi) = self.end_range[r];
        if i < slo || i >= ehi {
            SigmaClass::StaticZero
        } else if i >= shi && i < elo {
            SigmaClass::StaticOne
        } else {
            SigmaClass::Dynamic
        }
    }

    /// Linear terms of Σ(R, e_i) = Σ_{j≤i} χ⁺(e_j) − Σ_{j≤i} χ⁻(e_j).
    pub fn sigma_terms(&self, r: usize, i: usize) -> Vec<(VarId, f64)> {
        let mut terms = Vec::new();
        for (&j, &v) in &self.chi_start[r] {
            if j <= i {
                terms.push((v, 1.0));
            }
        }
        for (&j, &v) in &self.chi_end[r] {
            if j <= i {
                terms.push((v, -1.0));
            }
        }
        terms
    }

    /// Number of states (allocation-invariant intervals between events).
    pub fn num_states(&self) -> usize {
        self.num_events - 1
    }
}
