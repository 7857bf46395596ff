//! Independent feasibility verifier for Definition 2.1.
//!
//! This module deliberately implements the definition *directly* — interval
//! sweep over the schedule, explicit flow-conservation checks — rather than
//! reusing any event-point machinery from the formulations. Every solution
//! produced by the Δ/Σ/cΣ models or the greedy must pass it; the test suites
//! use it as the ground-truth oracle.

use crate::instance::Instance;
use crate::solution::{Embedding, TemporalSolution};
use tvnep_graph::{EdgeId, NodeId};

/// Default numerical tolerance of the verifier (re-exported from the shared
/// [`crate::tol`] ladder so it stays ordered against the solver tolerances).
pub use crate::tol::VERIFY_TOL;

/// A reason why a solution is infeasible.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Wrong number of scheduled entries.
    ShapeMismatch,
    /// `end − start ≠ d_R` for request `r`.
    WrongDuration { request: usize },
    /// Schedule escapes `[t^s, t^e]` for request `r`.
    OutsideWindow { request: usize },
    /// An accepted request is missing its embedding (or shape is wrong).
    MissingEmbedding { request: usize },
    /// Flow conservation broken for virtual link `link` of request `r` at a
    /// substrate node.
    FlowConservation {
        request: usize,
        link: usize,
        at: NodeId,
        imbalance: f64,
    },
    /// A flow fraction is negative or exceeds 1.
    FlowRange { request: usize, link: usize },
    /// Node capacity exceeded at some time.
    NodeCapacity {
        node: NodeId,
        time: f64,
        load: f64,
        capacity: f64,
    },
    /// Link capacity exceeded at some time.
    EdgeCapacity {
        edge: EdgeId,
        time: f64,
        load: f64,
        capacity: f64,
    },
}

/// Checks a solution against Definition 2.1; returns all violations found
/// (empty = feasible).
pub fn verify(instance: &Instance, solution: &TemporalSolution) -> Vec<Violation> {
    verify_with_tol(instance, solution, VERIFY_TOL)
}

/// [`verify`] with an explicit tolerance.
pub fn verify_with_tol(
    instance: &Instance,
    solution: &TemporalSolution,
    tol: f64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if solution.scheduled.len() != instance.num_requests() {
        out.push(Violation::ShapeMismatch);
        return out;
    }

    // Per-request checks: schedule arithmetic and embedding validity. Only
    // embeddings of the right shape (one existing host per virtual node, one
    // flow list over existing links per virtual link) load the substrate.
    let sg = instance.substrate.graph();
    let mut shaped: Vec<Option<&Embedding>> = vec![None; solution.scheduled.len()];
    for (ri, (s, r)) in solution
        .scheduled
        .iter()
        .zip(&instance.requests)
        .enumerate()
    {
        if (s.end - s.start - r.duration).abs() > tol {
            out.push(Violation::WrongDuration { request: ri });
        }
        if s.start < r.earliest_start - tol || s.end > r.latest_end + tol {
            out.push(Violation::OutsideWindow { request: ri });
        }
        if !s.accepted {
            continue;
        }
        let Some(emb) = &s.embedding else {
            out.push(Violation::MissingEmbedding { request: ri });
            continue;
        };
        if emb.node_map.len() != r.num_nodes()
            || emb.edge_flows.len() != r.num_edges()
            || emb.node_map.iter().any(|n| n.0 >= sg.num_nodes())
            || emb
                .edge_flows
                .iter()
                .flatten()
                .any(|(e, _)| e.0 >= sg.num_edges())
        {
            out.push(Violation::MissingEmbedding { request: ri });
            continue;
        }
        shaped[ri] = Some(emb);
        // Fixed node mappings (when the instance pins them) must be honored.
        if let Some(maps) = &instance.fixed_node_mappings {
            if emb.node_map != maps[ri] {
                out.push(Violation::MissingEmbedding { request: ri });
                continue;
            }
        }
        // Flow conservation per virtual link (Constraint (2)): a unit flow
        // from the mapped source to the mapped target of the link.
        for l in r.graph().edge_ids() {
            let (vs, vt) = r.graph().endpoints(l);
            let src = emb.node_map[vs.0];
            let dst = emb.node_map[vt.0];
            let flows = &emb.edge_flows[l.0];
            for &(_, f) in flows {
                if !(-tol..=1.0 + tol).contains(&f) {
                    out.push(Violation::FlowRange {
                        request: ri,
                        link: l.0,
                    });
                }
            }
            // Net outflow per substrate node.
            let mut net = vec![0.0f64; sg.num_nodes()];
            for &(e, f) in flows {
                let (u, v) = sg.endpoints(e);
                net[u.0] += f;
                net[v.0] -= f;
            }
            // A link whose endpoints share a host needs no flow.
            let mut expected = vec![0.0f64; sg.num_nodes()];
            if src != dst {
                expected[src.0] = 1.0;
                expected[dst.0] = -1.0;
            }
            for n in sg.nodes() {
                let imbalance = net[n.0] - expected[n.0];
                if imbalance.abs() > tol {
                    out.push(Violation::FlowConservation {
                        request: ri,
                        link: l.0,
                        at: n,
                        imbalance,
                    });
                }
            }
        }
    }

    // Capacity checks at every allocation-invariant interval: allocations of
    // accepted requests whose *open* execution interval contains the probe
    // time (condition 3 of Definition 2.1 uses open intervals).
    for t in solution.critical_times() {
        let active: Vec<usize> = solution
            .scheduled
            .iter()
            .enumerate()
            .filter(|(_, s)| s.accepted && s.start < t && t < s.end)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            continue;
        }
        for n in sg.nodes() {
            // Requests with a missing/malformed embedding were already
            // reported above; skip them here instead of panicking.
            let load: f64 = active
                .iter()
                .filter_map(|&ri| {
                    shaped[ri].map(|emb| emb.node_allocation(&instance.requests[ri], n))
                })
                .sum();
            let cap = instance.substrate.node_capacity(n);
            if load > cap + tol {
                out.push(Violation::NodeCapacity {
                    node: n,
                    time: t,
                    load,
                    capacity: cap,
                });
            }
        }
        for e in sg.edge_ids() {
            let load: f64 = active
                .iter()
                .filter_map(|&ri| {
                    shaped[ri].map(|emb| emb.edge_allocation(&instance.requests[ri], e))
                })
                .sum();
            let cap = instance.substrate.edge_capacity(e);
            if load > cap + tol {
                out.push(Violation::EdgeCapacity {
                    edge: e,
                    time: t,
                    load,
                    capacity: cap,
                });
            }
        }
    }
    out
}

/// Convenience predicate: true iff [`verify`] returns no violations.
pub fn is_feasible(instance: &Instance, solution: &TemporalSolution) -> bool {
    verify(instance, solution).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::solution::{Embedding, ScheduledRequest};
    use crate::substrate::Substrate;
    use tvnep_graph::grid;

    /// Two identical single-node requests on a one-node-substrate-like setup:
    /// they fit sequentially but not concurrently.
    fn contention_instance() -> Instance {
        let s = Substrate::uniform(grid(1, 2), 1.0, 1.0);
        let g = || {
            let mut g = tvnep_graph::DiGraph::with_nodes(1);
            let _ = &mut g;
            g
        };
        let r0 = Request::new("a", g(), vec![1.0], vec![], 0.0, 10.0, 3.0);
        let r1 = Request::new("b", g(), vec![1.0], vec![], 0.0, 10.0, 3.0);
        Instance::new(s, vec![r0, r1], 10.0, None)
    }

    fn sched(accepted: bool, start: f64, end: f64, host: usize) -> ScheduledRequest {
        ScheduledRequest {
            accepted,
            start,
            end,
            embedding: accepted.then(|| Embedding {
                node_map: vec![NodeId(host)],
                edge_flows: vec![],
            }),
        }
    }

    #[test]
    fn sequential_on_same_node_ok() {
        let inst = contention_instance();
        let sol = TemporalSolution {
            scheduled: vec![sched(true, 0.0, 3.0, 0), sched(true, 3.0, 6.0, 0)],
            reported_objective: None,
        };
        assert!(is_feasible(&inst, &sol), "{:?}", verify(&inst, &sol));
    }

    #[test]
    fn overlapping_on_same_node_caught() {
        let inst = contention_instance();
        let sol = TemporalSolution {
            scheduled: vec![sched(true, 0.0, 3.0, 0), sched(true, 2.0, 5.0, 0)],
            reported_objective: None,
        };
        let v = verify(&inst, &sol);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::NodeCapacity { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn overlapping_on_different_nodes_ok() {
        let inst = contention_instance();
        let sol = TemporalSolution {
            scheduled: vec![sched(true, 0.0, 3.0, 0), sched(true, 2.0, 5.0, 1)],
            reported_objective: None,
        };
        assert!(is_feasible(&inst, &sol));
    }

    #[test]
    fn wrong_duration_caught() {
        let inst = contention_instance();
        let sol = TemporalSolution {
            scheduled: vec![sched(true, 0.0, 4.0, 0), sched(false, 0.0, 3.0, 0)],
            reported_objective: None,
        };
        let v = verify(&inst, &sol);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::WrongDuration { request: 0 })));
    }

    #[test]
    fn outside_window_caught() {
        let inst = contention_instance();
        let sol = TemporalSolution {
            scheduled: vec![sched(true, 8.0, 11.0, 0), sched(false, 0.0, 3.0, 0)],
            reported_objective: None,
        };
        let v = verify(&inst, &sol);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::OutsideWindow { request: 0 })));
    }

    #[test]
    fn flow_conservation_checked() {
        // 2x1 substrate; request = 2 nodes with one link, mapped apart but no flow.
        let s = Substrate::uniform(grid(1, 2), 2.0, 2.0);
        let mut vg = tvnep_graph::DiGraph::with_nodes(2);
        vg.add_edge(NodeId(0), NodeId(1));
        let r = Request::new("r", vg, vec![1.0, 1.0], vec![1.0], 0.0, 5.0, 2.0);
        let inst = Instance::new(s, vec![r], 5.0, None);
        let bad = TemporalSolution {
            scheduled: vec![ScheduledRequest {
                accepted: true,
                start: 0.0,
                end: 2.0,
                embedding: Some(Embedding {
                    node_map: vec![NodeId(0), NodeId(1)],
                    edge_flows: vec![vec![]], // no flow at all
                }),
            }],
            reported_objective: None,
        };
        let v = verify(&inst, &bad);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::FlowConservation { .. })),
            "{v:?}"
        );
        // Correct flow on edge 0->1 (edge id 0 in the 1x2 grid).
        let good = TemporalSolution {
            scheduled: vec![ScheduledRequest {
                accepted: true,
                start: 0.0,
                end: 2.0,
                embedding: Some(Embedding {
                    node_map: vec![NodeId(0), NodeId(1)],
                    edge_flows: vec![vec![(EdgeId(0), 1.0)]],
                }),
            }],
            reported_objective: None,
        };
        assert!(is_feasible(&inst, &good), "{:?}", verify(&inst, &good));
    }

    #[test]
    fn colocated_link_endpoints_need_no_flow() {
        let s = Substrate::uniform(grid(1, 2), 3.0, 1.0);
        let mut vg = tvnep_graph::DiGraph::with_nodes(2);
        vg.add_edge(NodeId(0), NodeId(1));
        let r = Request::new("r", vg, vec![1.0, 1.0], vec![1.0], 0.0, 5.0, 2.0);
        let inst = Instance::new(s, vec![r], 5.0, None);
        let sol = TemporalSolution {
            scheduled: vec![ScheduledRequest {
                accepted: true,
                start: 0.0,
                end: 2.0,
                embedding: Some(Embedding {
                    node_map: vec![NodeId(0), NodeId(0)],
                    edge_flows: vec![vec![]],
                }),
            }],
            reported_objective: None,
        };
        assert!(is_feasible(&inst, &sol), "{:?}", verify(&inst, &sol));
    }

    #[test]
    fn split_flow_accepted() {
        // 2x2 grid: route half the flow 0->1 directly, half 0->2->3->1.
        let s = Substrate::uniform(grid(2, 2), 2.0, 2.0);
        let sg = s.graph().clone();
        let mut vg = tvnep_graph::DiGraph::with_nodes(2);
        vg.add_edge(NodeId(0), NodeId(1));
        let r = Request::new("r", vg, vec![1.0, 1.0], vec![1.0], 0.0, 5.0, 2.0);
        let inst = Instance::new(s, vec![r], 5.0, None);
        // Find edge ids.
        let eid = |u: usize, v: usize| {
            sg.out_edges(NodeId(u))
                .iter()
                .copied()
                .find(|&e| sg.target(e) == NodeId(v))
                .unwrap()
        };
        let sol = TemporalSolution {
            scheduled: vec![ScheduledRequest {
                accepted: true,
                start: 0.0,
                end: 2.0,
                embedding: Some(Embedding {
                    node_map: vec![NodeId(0), NodeId(1)],
                    edge_flows: vec![vec![
                        (eid(0, 1), 0.5),
                        (eid(0, 2), 0.5),
                        (eid(2, 3), 0.5),
                        (eid(3, 1), 0.5),
                    ]],
                }),
            }],
            reported_objective: None,
        };
        assert!(is_feasible(&inst, &sol), "{:?}", verify(&inst, &sol));
    }

    #[test]
    fn fixed_mapping_enforced() {
        let s = Substrate::uniform(grid(1, 2), 1.0, 1.0);
        let g = tvnep_graph::DiGraph::with_nodes(1);
        let r = Request::new("a", g, vec![1.0], vec![], 0.0, 10.0, 3.0);
        let inst = Instance::new(s, vec![r], 10.0, Some(vec![vec![NodeId(1)]]));
        let sol = TemporalSolution {
            scheduled: vec![sched(true, 0.0, 3.0, 0)], // maps to node 0, pinned to 1
            reported_objective: None,
        };
        let v = verify(&inst, &sol);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MissingEmbedding { .. })));
    }
}
