//! Per-request embedding explanations: for a solved instance, *why* the
//! solution looks the way it does.
//!
//! For every accepted request the explanation reports the chosen event
//! point, the start time relative to the temporal window
//! `[t^s_R, t^e_R − d_R]`, and every capacity constraint that is **binding**
//! (tight within [`tol::VERIFY_TOL`]) at some instant while the request is
//! active. For rejected requests with pinned node mappings (the greedy
//! cΣᴳ_A input, Section V) it probes every candidate start — the release
//! time, each accepted end inside the window, and the latest start — and
//! names the substrate node whose capacity runs out, with the exact load
//! figures an independent checker can recompute. Every claim is
//! oracle-verifiable: the fuzzing harness re-derives the loads from the
//! solution alone and asserts they match.

use tvnep_graph::{EdgeId, NodeId};
use tvnep_model::{tol, Instance, TemporalSolution};
use tvnep_telemetry::Json;

/// A substrate resource: one an explanation names, or the one a capacity
/// row bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Substrate node index.
    Node(usize),
    /// Substrate link index.
    Edge(usize),
}

impl Resource {
    pub fn describe(self) -> String {
        match self {
            Resource::Node(n) => format!("substrate node {n}"),
            Resource::Edge(e) => format!("substrate link {e}"),
        }
    }
}

/// A capacity constraint that is tight while the request is active: the
/// total load of all concurrently-active requests reaches the capacity
/// within [`tol::VERIFY_TOL`].
#[derive(Debug, Clone)]
pub struct BindingConstraint {
    pub resource: Resource,
    /// Probe instant (a critical-interval midpoint of the solution) at which
    /// the load below was measured.
    pub at_time: f64,
    /// Total load of all active requests on the resource at `at_time`.
    pub load: f64,
    pub capacity: f64,
}

/// Why one candidate start of a rejected request does not fit: a pinned
/// node's capacity is exceeded by the already-accepted load plus this
/// request's demand.
#[derive(Debug, Clone)]
pub struct Blocker {
    pub candidate_start: f64,
    /// Substrate node that runs out.
    pub node: usize,
    /// Probe instant inside `(candidate_start, candidate_start + d_R)`.
    pub at_time: f64,
    /// Load of the accepted requests at `at_time`, excluding this request.
    pub existing_load: f64,
    /// This request's pinned demand on the node.
    pub demand: f64,
    pub capacity: f64,
}

/// How the request was handled, with the supporting evidence.
#[derive(Debug, Clone)]
pub enum Fate {
    Accepted {
        start: f64,
        end: f64,
        /// The event point the start coincides with, in paper terms: its own
        /// release `t^s_R`, the end of another request, or its latest start.
        event_point: String,
        /// Slack to the latest feasible start, `t^e_R − d_R − t⁺_R`.
        start_slack: f64,
        /// Constraints tight at some instant of the active interval.
        binding: Vec<BindingConstraint>,
    },
    Rejected {
        /// One entry per candidate start that is provably blocked by a
        /// pinned node resource.
        blockers: Vec<Blocker>,
        /// Set when per-resource attribution is not possible: no pinned
        /// mapping, or some candidate start fits all pinned node capacities
        /// (the rejection then follows from link capacity or the solver's
        /// joint optimization, which a node-level probe cannot see).
        note: Option<String>,
    },
}

/// Explanation for one request.
#[derive(Debug, Clone)]
pub struct RequestExplanation {
    /// Original request index.
    pub request: usize,
    pub name: String,
    /// Temporal window `[t^s_R, t^e_R − d_R]` of feasible starts.
    pub window: (f64, f64),
    pub fate: Fate,
}

/// Explanations for every request of a solved instance.
#[derive(Debug, Clone)]
pub struct Explanation {
    pub requests: Vec<RequestExplanation>,
}

/// Total load of accepted requests on substrate node `n` at instant `t`
/// (open-interval activity, matching the verifier's sweep). Folds from
/// `+0.0`: an empty `f64` sum is `-0.0`, which would render as "-0.000000".
pub(crate) fn node_load_at(inst: &Instance, sol: &TemporalSolution, n: NodeId, t: f64) -> f64 {
    sol.scheduled
        .iter()
        .zip(&inst.requests)
        .filter(|(s, _)| s.accepted && s.start < t && t < s.end)
        .filter_map(|(s, r)| s.embedding.as_ref().map(|e| e.node_allocation(r, n)))
        .fold(0.0, |acc, x| acc + x)
}

/// Total load of accepted requests on substrate link `e` at instant `t`.
pub(crate) fn edge_load_at(inst: &Instance, sol: &TemporalSolution, e: EdgeId, t: f64) -> f64 {
    sol.scheduled
        .iter()
        .zip(&inst.requests)
        .filter(|(s, _)| s.accepted && s.start < t && t < s.end)
        .filter_map(|(s, r)| s.embedding.as_ref().map(|emb| emb.edge_allocation(r, e)))
        .fold(0.0, |acc, x| acc + x)
}

/// Probe instants covering the open interval `(lo, hi)`: midpoints of the
/// maximal sub-intervals on which the set of active requests is constant
/// (the event-point argument of Section III-A, restricted to the interval).
pub(crate) fn probe_times(solution: &TemporalSolution, lo: f64, hi: f64) -> Vec<f64> {
    let mut pts = vec![lo, hi];
    for s in solution.scheduled.iter().filter(|s| s.accepted) {
        for t in [s.start, s.end] {
            if lo < t && t < hi {
                pts.push(t);
            }
        }
    }
    pts.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    pts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    pts.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
}

fn explain_accepted(
    instance: &Instance,
    solution: &TemporalSolution,
    i: usize,
) -> (f64, f64, String, f64, Vec<BindingConstraint>) {
    let s = &solution.scheduled[i];
    let r = &instance.requests[i];
    let emb = s.embedding.as_ref().expect("accepted implies embedding");
    let times = probe_times(solution, s.start, s.end);

    let mut binding = Vec::new();
    for n in instance.substrate.graph().nodes() {
        if emb.node_allocation(r, n) <= 1e-12 {
            continue;
        }
        let cap = instance.substrate.node_capacity(n);
        let (at_time, load) = times
            .iter()
            .map(|&t| (t, node_load_at(instance, solution, n, t)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite loads"))
            .expect("nonempty probe set");
        if cap - load <= tol::VERIFY_TOL {
            binding.push(BindingConstraint {
                resource: Resource::Node(n.0),
                at_time,
                load,
                capacity: cap,
            });
        }
    }
    for ei in 0..instance.substrate.num_edges() {
        let e = EdgeId(ei);
        if emb.edge_allocation(r, e) <= 1e-12 {
            continue;
        }
        let cap = instance.substrate.edge_capacity(e);
        let (at_time, load) = times
            .iter()
            .map(|&t| (t, edge_load_at(instance, solution, e, t)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite loads"))
            .expect("nonempty probe set");
        if cap - load <= tol::VERIFY_TOL {
            binding.push(BindingConstraint {
                resource: Resource::Edge(ei),
                at_time,
                load,
                capacity: cap,
            });
        }
    }

    // Which event point did the start land on? (cΣ starts are restricted to
    // {t^s_R} ∪ {ends of other requests}; Δ/Σ optima align the same way.)
    let event_point = if (s.start - r.earliest_start).abs() <= tol::VERIFY_TOL {
        format!("its release t^s = {:.6}", r.earliest_start)
    } else if let Some((j, other)) = solution
        .scheduled
        .iter()
        .enumerate()
        .find(|&(j, o)| j != i && o.accepted && (o.end - s.start).abs() <= tol::VERIFY_TOL)
        .map(|(j, o)| (j, o.end))
    {
        format!(
            "the end of request '{}' at t = {:.6}",
            instance.requests[j].name, other
        )
    } else if (s.start - r.latest_start()).abs() <= tol::VERIFY_TOL {
        format!("its latest start t^e − d = {:.6}", r.latest_start())
    } else {
        format!("an interior point t = {:.6}", s.start)
    };

    let slack = (r.latest_start() - s.start).max(0.0);
    (s.start, s.end, event_point, slack, binding)
}

fn explain_rejected(instance: &Instance, solution: &TemporalSolution, i: usize) -> Fate {
    let r = &instance.requests[i];
    let Some(map) = instance.fixed_node_mappings.as_ref().map(|maps| &maps[i]) else {
        return Fate::Rejected {
            blockers: Vec::new(),
            note: Some(
                "no pinned node mapping: per-resource attribution unavailable \
                 (the rejection follows from the joint optimization)"
                    .into(),
            ),
        };
    };

    // The request's pinned demand aggregated by substrate node.
    let mut demand = vec![0.0f64; instance.substrate.num_nodes()];
    for (v, &host) in map.iter().enumerate() {
        demand[host.0] += r.node_demand(NodeId(v));
    }

    // Candidate starts: release, every accepted end inside the window, and
    // the latest start (the event points of Section III-A).
    let mut candidates = vec![r.earliest_start];
    for s in solution.scheduled.iter().filter(|s| s.accepted) {
        if s.end > r.earliest_start && s.end <= r.latest_start() {
            candidates.push(s.end);
        }
    }
    candidates.push(r.latest_start());
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let mut blockers = Vec::new();
    let mut unblocked: Option<f64> = None;
    for &cand in &candidates {
        let times = probe_times(solution, cand, cand + r.duration);
        // The node that runs out hardest over the whole probe interval.
        let mut worst: Option<Blocker> = None;
        for (n, &dem) in demand.iter().enumerate() {
            if dem <= 1e-12 {
                continue;
            }
            let cap = instance.substrate.node_capacity(NodeId(n));
            for &t in &times {
                let load = node_load_at(instance, solution, NodeId(n), t);
                if load + dem > cap + tol::VERIFY_TOL {
                    let over = load + dem - cap;
                    let worse = worst
                        .as_ref()
                        .map(|w| over > w.existing_load + w.demand - w.capacity)
                        .unwrap_or(true);
                    if worse {
                        worst = Some(Blocker {
                            candidate_start: cand,
                            node: n,
                            at_time: t,
                            existing_load: load,
                            demand: dem,
                            capacity: cap,
                        });
                    }
                }
            }
        }
        match worst {
            Some(b) => blockers.push(b),
            None => {
                unblocked.get_or_insert(cand);
            }
        }
    }

    let note = unblocked.map(|cand| {
        format!(
            "candidate start t = {cand:.6} fits all pinned node capacities; \
             the rejection stems from link capacity or the solver's joint \
             optimization"
        )
    });
    Fate::Rejected { blockers, note }
}

/// Explains request `i` of `solution` on `instance`: what
/// [`explain_solution`] reports for it, without explaining the others.
pub fn explain_request(
    instance: &Instance,
    solution: &TemporalSolution,
    i: usize,
) -> RequestExplanation {
    let r = &instance.requests[i];
    let fate = if solution.scheduled[i].accepted {
        let (start, end, event_point, start_slack, binding) =
            explain_accepted(instance, solution, i);
        Fate::Accepted {
            start,
            end,
            event_point,
            start_slack,
            binding,
        }
    } else {
        explain_rejected(instance, solution, i)
    };
    RequestExplanation {
        request: i,
        name: r.name.clone(),
        window: (r.earliest_start, r.latest_start()),
        fate,
    }
}

/// Builds the full explanation for `solution` on `instance`.
pub fn explain_solution(instance: &Instance, solution: &TemporalSolution) -> Explanation {
    assert_eq!(
        solution.scheduled.len(),
        instance.num_requests(),
        "solution must cover every request"
    );
    let requests = (0..instance.num_requests())
        .map(|i| explain_request(instance, solution, i))
        .collect();
    Explanation { requests }
}

impl Explanation {
    /// Human-readable narrative, one block per request.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.requests {
            out.push_str(&format!(
                "request {} '{}', window [{:.6}, {:.6}]\n",
                e.request, e.name, e.window.0, e.window.1
            ));
            match &e.fate {
                Fate::Accepted {
                    start,
                    end,
                    event_point,
                    start_slack,
                    binding,
                } => {
                    out.push_str(&format!(
                        "  ACCEPTED: runs [{start:.6}, {end:.6}], start at {event_point} \
                         (slack to latest start: {start_slack:.6})\n"
                    ));
                    if binding.is_empty() {
                        out.push_str("  no capacity constraint is binding while it runs\n");
                    }
                    for b in binding {
                        out.push_str(&format!(
                            "  binding: {} at t = {:.6} — load {:.6} of capacity {:.6}\n",
                            b.resource.describe(),
                            b.at_time,
                            b.load,
                            b.capacity
                        ));
                    }
                }
                Fate::Rejected { blockers, note } => {
                    out.push_str("  REJECTED\n");
                    for b in blockers {
                        out.push_str(&format!(
                            "  start {:.6} blocked: substrate node {} at t = {:.6} — \
                             existing load {:.6} + demand {:.6} > capacity {:.6}\n",
                            b.candidate_start,
                            b.node,
                            b.at_time,
                            b.existing_load,
                            b.demand,
                            b.capacity
                        ));
                    }
                    if let Some(n) = note {
                        out.push_str(&format!("  note: {n}\n"));
                    }
                }
            }
        }
        out
    }

    /// JSON rendering, embedded into `--metrics-out` documents and parseable
    /// by the in-repo [`Json`] parser.
    pub fn to_json(&self) -> Json {
        let requests = self.requests.iter().map(RequestExplanation::to_json);
        Json::Obj(vec![(
            "requests".to_string(),
            Json::Arr(requests.collect()),
        )])
    }
}

impl RequestExplanation {
    /// One entry of [`Explanation::to_json`]'s `requests` array (the
    /// `explain` field of a service `decision` event).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("request".to_string(), Json::from(self.request)),
            ("name".to_string(), Json::from(self.name.as_str())),
            (
                "window".to_string(),
                Json::Arr(vec![Json::from(self.window.0), Json::from(self.window.1)]),
            ),
        ];
        match &self.fate {
            Fate::Accepted {
                start,
                end,
                event_point,
                start_slack,
                binding,
            } => {
                fields.push(("accepted".into(), Json::from(true)));
                fields.push(("start".into(), Json::from(*start)));
                fields.push(("end".into(), Json::from(*end)));
                fields.push(("event_point".into(), Json::from(event_point.as_str())));
                fields.push(("start_slack".into(), Json::from(*start_slack)));
                let b: Vec<Json> = binding
                    .iter()
                    .map(|b| {
                        let (kind, id) = match b.resource {
                            Resource::Node(n) => ("node", n),
                            Resource::Edge(e) => ("edge", e),
                        };
                        Json::Obj(vec![
                            ("resource".into(), Json::from(kind)),
                            ("id".into(), Json::from(id)),
                            ("time".into(), Json::from(b.at_time)),
                            ("load".into(), Json::from(b.load)),
                            ("capacity".into(), Json::from(b.capacity)),
                        ])
                    })
                    .collect();
                fields.push(("binding".into(), Json::Arr(b)));
            }
            Fate::Rejected { blockers, note } => {
                fields.push(("accepted".into(), Json::from(false)));
                let b: Vec<Json> = blockers
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("candidate_start".into(), Json::from(b.candidate_start)),
                            ("node".into(), Json::from(b.node)),
                            ("time".into(), Json::from(b.at_time)),
                            ("existing_load".into(), Json::from(b.existing_load)),
                            ("demand".into(), Json::from(b.demand)),
                            ("capacity".into(), Json::from(b.capacity)),
                        ])
                    })
                    .collect();
                fields.push(("blockers".into(), Json::Arr(b)));
                if let Some(n) = note {
                    fields.push(("note".into(), Json::from(n.as_str())));
                }
            }
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_graph::{grid, star, StarDirection};
    use tvnep_model::{Embedding, Request, ScheduledRequest, Substrate};

    /// Two identical star requests on a 2×2 grid whose center node (capacity
    /// 1.0) fits exactly one of them at a time.
    fn tight_instance() -> Instance {
        let s = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let g = star(1, StarDirection::AwayFromCenter);
        let mk =
            |name: &str| Request::new(name, g.clone(), vec![1.0, 0.0], vec![0.1], 0.0, 4.0, 2.0);
        let maps = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(0), NodeId(1)]];
        Instance::new(s, vec![mk("a"), mk("b")], 10.0, Some(maps))
    }

    fn emb() -> Embedding {
        Embedding {
            node_map: vec![NodeId(0), NodeId(1)],
            edge_flows: vec![vec![(EdgeId(0), 1.0)]],
        }
    }

    #[test]
    fn binding_constraint_named_for_saturated_node() {
        let inst = tight_instance();
        // 'a' runs [0,2] and saturates node 0; 'b' runs [2,4] back to back.
        let sol = TemporalSolution {
            scheduled: vec![
                ScheduledRequest {
                    accepted: true,
                    start: 0.0,
                    end: 2.0,
                    embedding: Some(emb()),
                },
                ScheduledRequest {
                    accepted: true,
                    start: 2.0,
                    end: 4.0,
                    embedding: Some(emb()),
                },
            ],
            reported_objective: None,
        };
        let ex = explain_solution(&inst, &sol);
        for e in &ex.requests {
            let Fate::Accepted { binding, .. } = &e.fate else {
                panic!("both accepted");
            };
            assert!(
                binding
                    .iter()
                    .any(|b| b.resource == Resource::Node(0) && (b.load - 1.0).abs() < 1e-9),
                "node 0 is saturated while request {} runs",
                e.request
            );
        }
        // Request 'b' starts exactly when 'a' ends: the narrative names it.
        let Fate::Accepted { event_point, .. } = &ex.requests[1].fate else {
            panic!()
        };
        assert!(event_point.contains("'a'"), "got: {event_point}");
        let text = ex.render();
        assert!(text.contains("binding: substrate node 0"));
    }

    #[test]
    fn rejection_blames_the_exhausted_node() {
        let inst = tight_instance();
        // 'a' occupies node 0 for the whole horizon-window; 'b' (window
        // [0,4], d=2) cannot fit anywhere.
        let sol = TemporalSolution {
            scheduled: vec![
                ScheduledRequest {
                    accepted: true,
                    start: 0.0,
                    end: 4.0,
                    embedding: Some(emb()),
                },
                ScheduledRequest {
                    accepted: false,
                    start: 0.0,
                    end: 2.0,
                    embedding: None,
                },
            ],
            reported_objective: None,
        };
        let ex = explain_solution(&inst, &sol);
        let Fate::Rejected { blockers, note } = &ex.requests[1].fate else {
            panic!("b is rejected");
        };
        assert!(note.is_none(), "every candidate start must be blocked");
        assert!(!blockers.is_empty());
        for b in blockers {
            assert_eq!(b.node, 0);
            assert!(b.existing_load + b.demand > b.capacity + tol::VERIFY_TOL);
        }
        // JSON round-trips through the in-repo parser.
        let parsed = Json::parse(&ex.to_json().pretty()).unwrap();
        let reqs = parsed.get("requests").unwrap().as_array().unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].get("accepted").unwrap().as_bool(), Some(false));
        assert!(!reqs[1]
            .get("blockers")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn explain_request_matches_the_whole_solution() {
        // 'a' and 'b' back to back on node 0, 'c' rejected: its release is
        // blocked and its latest start fits, so it gets blockers and a note.
        let s = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let g = star(1, StarDirection::AwayFromCenter);
        let mk = |name: &str, le: f64| {
            Request::new(name, g.clone(), vec![1.0, 0.0], vec![0.1], 0.0, le, 2.0)
        };
        let maps = vec![vec![NodeId(0), NodeId(1)]; 3];
        let inst = Instance::new(
            s,
            vec![mk("a", 4.0), mk("b", 4.0), mk("c", 6.0)],
            10.0,
            Some(maps),
        );
        let run = |accepted: bool, start: f64| ScheduledRequest {
            accepted,
            start,
            end: start + 2.0,
            embedding: accepted.then(emb),
        };
        let sol = TemporalSolution {
            scheduled: vec![run(true, 0.0), run(true, 2.0), run(false, 0.0)],
            reported_objective: None,
        };
        let whole = explain_solution(&inst, &sol);
        assert!(matches!(whole.requests[1].fate, Fate::Accepted { .. }));
        assert!(matches!(whole.requests[2].fate, Fate::Rejected { .. }));
        for (i, want) in whole.requests.iter().enumerate() {
            let got = explain_request(&inst, &sol, i);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "request {i}");
        }
    }

    #[test]
    fn blocker_at_an_idle_instant_reports_positive_zero_load() {
        // 'big' alone needs 1.5 of node 0's capacity 1.0 and nothing else is
        // accepted, so every blocker falls at an instant with no active
        // request: the existing load is an empty sum.
        let s = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let g = star(1, StarDirection::AwayFromCenter);
        let big = Request::new("big", g, vec![1.5, 0.0], vec![0.1], 0.0, 4.0, 2.0);
        let maps = vec![vec![NodeId(0), NodeId(1)]];
        let inst = Instance::new(s, vec![big], 10.0, Some(maps));
        let sol = TemporalSolution {
            scheduled: vec![ScheduledRequest {
                accepted: false,
                start: 0.0,
                end: 2.0,
                embedding: None,
            }],
            reported_objective: None,
        };
        let ex = explain_solution(&inst, &sol);
        let Fate::Rejected { blockers, .. } = &ex.requests[0].fate else {
            panic!("big is rejected");
        };
        assert!(!blockers.is_empty());
        for b in blockers {
            assert_eq!(b.existing_load.to_bits(), 0.0f64.to_bits());
        }
        let text = ex.render();
        assert!(
            text.contains("existing load 0.000000 + demand 1.500000"),
            "{text}"
        );
        assert!(!text.contains("-0.000000"), "{text}");
        let parsed = Json::parse(&ex.to_json().pretty()).unwrap();
        let reqs = parsed.get("requests").unwrap().as_array().unwrap();
        for b in reqs[0].get("blockers").unwrap().as_array().unwrap() {
            let load = b.get("existing_load").unwrap().as_f64().unwrap();
            assert!(load == 0.0 && load.is_sign_positive(), "load {load}");
        }
    }

    #[test]
    fn unblocked_candidate_yields_honest_note() {
        let inst = tight_instance();
        // Nothing else accepted: 'b' would fit at its release, so the
        // explanation must not invent a blocking node.
        let sol = TemporalSolution {
            scheduled: vec![
                ScheduledRequest {
                    accepted: false,
                    start: 0.0,
                    end: 2.0,
                    embedding: None,
                },
                ScheduledRequest {
                    accepted: false,
                    start: 0.0,
                    end: 2.0,
                    embedding: None,
                },
            ],
            reported_objective: None,
        };
        let ex = explain_solution(&inst, &sol);
        let Fate::Rejected { blockers, note } = &ex.requests[0].fate else {
            panic!()
        };
        assert!(blockers.is_empty());
        assert!(note
            .as_ref()
            .unwrap()
            .contains("fits all pinned node capacities"));
    }
}
