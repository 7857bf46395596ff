//! One targeted test per [`Violation`] variant: each constructs a solution
//! that is infeasible in exactly one way and asserts the verifier reports
//! that precise variant (with its evidence fields), not merely "infeasible".

use tvnep_graph::{grid, DiGraph, EdgeId, NodeId};
use tvnep_model::{
    verify, verify_with_tol, Embedding, Instance, Request, ScheduledRequest, Substrate,
    TemporalSolution, Violation,
};

/// 1×2 grid substrate (node/edge capacity 1) with one single-node request:
/// duration 3, window [0, 10].
fn single_request_instance() -> Instance {
    let s = Substrate::uniform(grid(1, 2), 1.0, 1.0);
    let r = Request::new(
        "a",
        DiGraph::with_nodes(1),
        vec![1.0],
        vec![],
        0.0,
        10.0,
        3.0,
    );
    Instance::new(s, vec![r], 10.0, None)
}

/// Substrate as above with one 2-node/1-link request (unit demands).
fn linked_request_instance() -> Instance {
    let s = Substrate::uniform(grid(1, 2), 1.0, 1.0);
    let mut vg = DiGraph::with_nodes(2);
    vg.add_edge(NodeId(0), NodeId(1));
    let r = Request::new("r", vg, vec![1.0, 1.0], vec![1.0], 0.0, 10.0, 3.0);
    Instance::new(s, vec![r], 10.0, None)
}

fn pinned(host: usize, start: f64, end: f64) -> ScheduledRequest {
    ScheduledRequest {
        accepted: true,
        start,
        end,
        embedding: Some(Embedding {
            node_map: vec![NodeId(host)],
            edge_flows: vec![],
        }),
    }
}

fn solution(scheduled: Vec<ScheduledRequest>) -> TemporalSolution {
    TemporalSolution {
        scheduled,
        reported_objective: None,
    }
}

/// Looks up the directed substrate edge `u -> v` in the 1×2 grid.
fn edge(inst: &Instance, u: usize, v: usize) -> EdgeId {
    let sg = inst.substrate.graph();
    sg.out_edges(NodeId(u))
        .iter()
        .copied()
        .find(|&e| sg.target(e) == NodeId(v))
        .expect("grid edge exists")
}

#[test]
fn shape_mismatch_exact() {
    let inst = single_request_instance();
    let sol = solution(vec![]); // one request, zero scheduled entries
    assert_eq!(verify(&inst, &sol), vec![Violation::ShapeMismatch]);
}

#[test]
fn wrong_duration_exact() {
    let inst = single_request_instance();
    // Rejected entry (so no embedding checks interfere) with end − start = 4
    // against a duration of 3; still inside the window.
    let sol = solution(vec![ScheduledRequest {
        accepted: false,
        start: 0.0,
        end: 4.0,
        embedding: None,
    }]);
    assert_eq!(
        verify(&inst, &sol),
        vec![Violation::WrongDuration { request: 0 }]
    );
}

#[test]
fn outside_window_exact() {
    let inst = single_request_instance();
    // Correct duration, but the schedule escapes [0, 10] at the top.
    let sol = solution(vec![ScheduledRequest {
        accepted: false,
        start: 8.0,
        end: 11.0,
        embedding: None,
    }]);
    assert_eq!(
        verify(&inst, &sol),
        vec![Violation::OutsideWindow { request: 0 }]
    );
}

#[test]
fn missing_embedding_exact() {
    let inst = single_request_instance();
    let sol = solution(vec![ScheduledRequest {
        accepted: true,
        start: 0.0,
        end: 3.0,
        embedding: None,
    }]);
    assert_eq!(
        verify(&inst, &sol),
        vec![Violation::MissingEmbedding { request: 0 }]
    );
}

#[test]
fn missing_embedding_on_fixed_mapping_mismatch() {
    // A present embedding that contradicts the instance's pinned mapping is
    // reported as MissingEmbedding too (the pinned embedding is missing).
    let s = Substrate::uniform(grid(1, 2), 1.0, 1.0);
    let r = Request::new(
        "a",
        DiGraph::with_nodes(1),
        vec![1.0],
        vec![],
        0.0,
        10.0,
        3.0,
    );
    let inst = Instance::new(s, vec![r], 10.0, Some(vec![vec![NodeId(1)]]));
    let sol = solution(vec![pinned(0, 0.0, 3.0)]);
    assert_eq!(
        verify(&inst, &sol),
        vec![Violation::MissingEmbedding { request: 0 }]
    );
}

#[test]
fn missing_embedding_on_unknown_substrate_node() {
    // No pinned mappings, so the node map alone names the hosts; the
    // two-node substrate has no node 99.
    let inst = linked_request_instance();
    let sol = solution(vec![ScheduledRequest {
        accepted: true,
        start: 0.0,
        end: 3.0,
        embedding: Some(Embedding {
            node_map: vec![NodeId(0), NodeId(99)],
            edge_flows: vec![vec![]],
        }),
    }]);
    assert_eq!(
        verify(&inst, &sol),
        vec![Violation::MissingEmbedding { request: 0 }]
    );
}

#[test]
fn missing_embedding_on_unknown_substrate_edge() {
    let inst = linked_request_instance();
    let sol = solution(vec![ScheduledRequest {
        accepted: true,
        start: 0.0,
        end: 3.0,
        embedding: Some(Embedding {
            node_map: vec![NodeId(0), NodeId(1)],
            edge_flows: vec![vec![(EdgeId(99), 1.0)]],
        }),
    }]);
    assert_eq!(
        verify(&inst, &sol),
        vec![Violation::MissingEmbedding { request: 0 }]
    );
}

#[test]
fn flow_conservation_exact() {
    let inst = linked_request_instance();
    // Endpoints mapped apart but no flow routed: net outflow at the source
    // host misses the expected unit by exactly 1.
    let sol = solution(vec![ScheduledRequest {
        accepted: true,
        start: 0.0,
        end: 3.0,
        embedding: Some(Embedding {
            node_map: vec![NodeId(0), NodeId(1)],
            edge_flows: vec![vec![]],
        }),
    }]);
    let v = verify(&inst, &sol);
    let hit = v.iter().find_map(|x| match x {
        Violation::FlowConservation {
            request,
            link,
            at,
            imbalance,
        } => Some((*request, *link, *at, *imbalance)),
        _ => None,
    });
    let (request, link, at, imbalance) =
        hit.unwrap_or_else(|| panic!("no FlowConservation in {v:?}"));
    assert_eq!((request, link), (0, 0));
    assert!(at == NodeId(0) || at == NodeId(1));
    assert!(
        (imbalance.abs() - 1.0).abs() < 1e-9,
        "imbalance {imbalance}"
    );
    assert!(v
        .iter()
        .all(|x| matches!(x, Violation::FlowConservation { .. })));
}

#[test]
fn flow_range_exact() {
    // Edge capacity 2 so the oversized flow fraction stays within capacity
    // and only the range check fires.
    let s = Substrate::uniform(grid(1, 2), 1.0, 2.0);
    let mut vg = DiGraph::with_nodes(2);
    vg.add_edge(NodeId(0), NodeId(1));
    let r = Request::new("r", vg, vec![1.0, 1.0], vec![1.0], 0.0, 10.0, 3.0);
    let inst = Instance::new(s, vec![r], 10.0, None);
    // 1.5 units forward, 0.5 back: conservation holds (net 1.0 source → sink)
    // but the forward fraction leaves [0, 1].
    let fwd = edge(&inst, 0, 1);
    let back = edge(&inst, 1, 0);
    let sol = solution(vec![ScheduledRequest {
        accepted: true,
        start: 0.0,
        end: 3.0,
        embedding: Some(Embedding {
            node_map: vec![NodeId(0), NodeId(1)],
            edge_flows: vec![vec![(fwd, 1.5), (back, 0.5)]],
        }),
    }]);
    assert_eq!(
        verify(&inst, &sol),
        vec![Violation::FlowRange {
            request: 0,
            link: 0
        }]
    );
}

#[test]
fn node_capacity_exact() {
    // Two unit requests overlap on host 0 (capacity 1): load 2 at the probe
    // time inside the overlap.
    let s = Substrate::uniform(grid(1, 2), 1.0, 1.0);
    let g = || DiGraph::with_nodes(1);
    let r0 = Request::new("a", g(), vec![1.0], vec![], 0.0, 10.0, 3.0);
    let r1 = Request::new("b", g(), vec![1.0], vec![], 0.0, 10.0, 3.0);
    let inst = Instance::new(s, vec![r0, r1], 10.0, None);
    let sol = solution(vec![pinned(0, 0.0, 3.0), pinned(0, 2.0, 5.0)]);
    let v = verify(&inst, &sol);
    let hit = v.iter().find_map(|x| match x {
        Violation::NodeCapacity {
            node,
            time,
            load,
            capacity,
        } => Some((*node, *time, *load, *capacity)),
        _ => None,
    });
    let (node, time, load, capacity) = hit.unwrap_or_else(|| panic!("no NodeCapacity in {v:?}"));
    assert_eq!(node, NodeId(0));
    assert!(
        time > 2.0 && time < 3.0,
        "probe time {time} outside overlap"
    );
    assert!((load - 2.0).abs() < 1e-9);
    assert!((capacity - 1.0).abs() < 1e-9);
    assert!(v
        .iter()
        .all(|x| matches!(x, Violation::NodeCapacity { .. })));
}

#[test]
fn edge_capacity_exact() {
    // Two linked requests, each routing a unit demand over the same substrate
    // edge (capacity 1) at overlapping times. Node capacity 2 keeps hosts
    // uncontended so only the edge overflows.
    let s = Substrate::uniform(grid(1, 2), 2.0, 1.0);
    let mk = || {
        let mut vg = DiGraph::with_nodes(2);
        vg.add_edge(NodeId(0), NodeId(1));
        vg
    };
    let r0 = Request::new("a", mk(), vec![1.0, 1.0], vec![1.0], 0.0, 10.0, 3.0);
    let r1 = Request::new("b", mk(), vec![1.0, 1.0], vec![1.0], 0.0, 10.0, 3.0);
    let inst = Instance::new(s, vec![r0, r1], 10.0, None);
    let fwd = edge(&inst, 0, 1);
    let emb = || {
        Some(Embedding {
            node_map: vec![NodeId(0), NodeId(1)],
            edge_flows: vec![vec![(fwd, 1.0)]],
        })
    };
    let sol = solution(vec![
        ScheduledRequest {
            accepted: true,
            start: 0.0,
            end: 3.0,
            embedding: emb(),
        },
        ScheduledRequest {
            accepted: true,
            start: 2.0,
            end: 5.0,
            embedding: emb(),
        },
    ]);
    let v = verify(&inst, &sol);
    let hit = v.iter().find_map(|x| match x {
        Violation::EdgeCapacity {
            edge,
            time,
            load,
            capacity,
        } => Some((*edge, *time, *load, *capacity)),
        _ => None,
    });
    let (e, time, load, capacity) = hit.unwrap_or_else(|| panic!("no EdgeCapacity in {v:?}"));
    assert_eq!(e, fwd);
    assert!(time > 2.0 && time < 3.0);
    assert!((load - 2.0).abs() < 1e-9);
    assert!((capacity - 1.0).abs() < 1e-9);
    assert!(v
        .iter()
        .all(|x| matches!(x, Violation::EdgeCapacity { .. })));
}

#[test]
fn tolerance_is_explicit_and_honored() {
    let inst = single_request_instance();
    // Overshoot the window by 1e-6: inside a loose tolerance, outside a
    // tight one — the same solution flips feasibility with the tolerance.
    let sol = solution(vec![ScheduledRequest {
        accepted: false,
        start: 7.0 + 1e-6,
        end: 10.0 + 1e-6,
        embedding: None,
    }]);
    assert!(verify_with_tol(&inst, &sol, 1e-5).is_empty());
    assert_eq!(
        verify_with_tol(&inst, &sol, 1e-8),
        vec![Violation::OutsideWindow { request: 0 }]
    );
}
