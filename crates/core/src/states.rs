//! Explicit state representation of the Σ- and cΣ-Models (Tables VIII–IX):
//! per-request state-allocation variables `a_R(s_i, r)`, their lower-bounding
//! Constraint (7), and the capacity Constraint (9) — with the state-space
//! reduction of Section IV-C (statically-known Σ values bypass the `a_R`
//! variables entirely).

use crate::embedding::EmbeddingVars;
use crate::events::{EventVars, SigmaClass};
use crate::explain::Resource;
use tvnep_graph::EdgeId;
use tvnep_lp::RowId;
use tvnep_mip::{MipModel, VarId};
use tvnep_model::Instance;

/// Linear expressions of the total load per state and substrate node,
/// retained for the load-balancing objective (Section IV-E3).
#[derive(Debug, Clone)]
pub struct StateLoads {
    /// `node[s][n]` = linear terms of the total allocation on substrate node
    /// `n` during state `s_{s+1}` (0-based storage of 1-based states).
    pub node: Vec<Vec<Vec<(VarId, f64)>>>,
    /// The capacity rows (9) in the order they were emitted, each with the
    /// resource whose capacity is its upper bound. Where every Σ is static
    /// (no `a_R` variable, whose big-M reads the capacity), these bounds are
    /// the only place a capacity enters the model. The Δ-Model records none.
    pub capacity_rows: Vec<(RowId, Resource)>,
}

/// Builds Constraints (7) and (9) over all states, for either the Σ-Model
/// (2|R| events, 2|R|−1 states) or the cΣ-Model (|R|+1 events, |R| states) —
/// the event scheme is already encoded in `ev`.
pub fn build_state_allocations(
    m: &mut MipModel,
    instance: &Instance,
    emb: &EmbeddingVars,
    ev: &EventVars,
) -> StateLoads {
    let k = instance.num_requests();
    let sub = &instance.substrate;
    let num_states = ev.num_states();
    let mut node_loads: Vec<Vec<Vec<(VarId, f64)>>> =
        vec![vec![Vec::new(); sub.num_nodes()]; num_states];
    let mut capacity_rows = Vec::new();

    for i in 1..=num_states {
        // Node resources.
        for n in sub.graph().nodes() {
            let cap = sub.node_capacity(n);
            let mut row: Vec<(VarId, f64)> = Vec::new();
            for r in 0..k {
                let bound = emb.node_alloc_bound(instance, r, n);
                if bound <= 0.0 {
                    continue;
                }
                match ev.sigma_class(r, i) {
                    SigmaClass::StaticZero => {}
                    SigmaClass::StaticOne => {
                        // Presolve: factor alloc_V(R, n) directly into (9).
                        row.extend(emb.node_alloc_terms(instance, r, n));
                    }
                    SigmaClass::Dynamic => {
                        // Big-M = min(cap, max-possible alloc) tightens the
                        // relaxation whenever the request cannot saturate the
                        // resource on its own.
                        let big_m = cap.min(bound);
                        let a = m.add_continuous(0.0, big_m, 0.0);
                        // (7): a ≥ alloc − (1 − Σ)·M  ⇔  a − alloc − M·Σ ≥ −M.
                        let mut terms = vec![(a, 1.0)];
                        for (v, c) in emb.node_alloc_terms(instance, r, n) {
                            terms.push((v, -c));
                        }
                        for (v, c) in ev.sigma_terms(r, i) {
                            terms.push((v, -big_m * c));
                        }
                        m.add_ge(&terms, -big_m);
                        row.push((a, 1.0));
                    }
                }
            }
            if !row.is_empty() {
                // (9): total allocation within capacity.
                capacity_rows.push((m.add_le(&row, cap), Resource::Node(n.0)));
            }
            node_loads[i - 1][n.0] = row;
        }
        // Edge resources.
        for e in sub.graph().edge_ids() {
            let cap = sub.edge_capacity(e);
            let mut row: Vec<(VarId, f64)> = Vec::new();
            for r in 0..k {
                if instance.requests[r].num_edges() == 0 {
                    continue;
                }
                let bound: f64 = (0..instance.requests[r].num_edges())
                    .map(|l| instance.requests[r].edge_demand(EdgeId(l)))
                    .sum();
                if bound <= 0.0 {
                    continue;
                }
                match ev.sigma_class(r, i) {
                    SigmaClass::StaticZero => {}
                    SigmaClass::StaticOne => {
                        row.extend(emb.edge_alloc_terms(instance, r, e));
                    }
                    SigmaClass::Dynamic => {
                        let big_m = cap.min(bound);
                        let a = m.add_continuous(0.0, big_m, 0.0);
                        let mut terms = vec![(a, 1.0)];
                        for (v, c) in emb.edge_alloc_terms(instance, r, e) {
                            terms.push((v, -c));
                        }
                        for (v, c) in ev.sigma_terms(r, i) {
                            terms.push((v, -big_m * c));
                        }
                        m.add_ge(&terms, -big_m);
                        row.push((a, 1.0));
                    }
                }
            }
            if !row.is_empty() {
                capacity_rows.push((m.add_le(&row, cap), Resource::Edge(e.0)));
            }
        }
    }

    StateLoads {
        node: node_loads,
        capacity_rows,
    }
}
