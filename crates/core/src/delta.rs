//! The Δ-Model (Section III-B): state *changes* `Δ_{e_i}(r)` at each of the
//! 2|R| event points, pinned to ±alloc through the big-M Constraints
//! (3)–(6), with cumulative feasibility `0 ≤ Σ_{j≤i} Δ_{e_j}(r) ≤ c_S(r)`
//! per state.
//!
//! The paper introduces this model as the intuitive-but-weak baseline: its
//! LP relaxation can null out allocations entirely (the fractional-χ example
//! of Section III-B), which the evaluation reproduces.

use crate::embedding::EmbeddingVars;
use crate::events::EventVars;
use crate::states::StateLoads;
use tvnep_graph::EdgeId;
use tvnep_mip::{MipModel, VarId};
use tvnep_model::Instance;

/// Builds the Δ variables and Constraints (3)–(6) plus the cumulative state
/// feasibility rows. Returns the node-load expressions (cumulative Δ sums)
/// for objective reuse.
pub fn build_delta_states(
    m: &mut MipModel,
    instance: &Instance,
    emb: &EmbeddingVars,
    ev: &EventVars,
) -> StateLoads {
    let k = instance.num_requests();
    let sub = &instance.substrate;
    let num_events = ev.num_events;
    let num_states = ev.num_states();

    // Δ variables per event and resource (nodes then edges).
    let nn = sub.num_nodes();

    let caps: Vec<f64> = sub
        .node_capacities()
        .iter()
        .chain(sub.edge_capacities())
        .copied()
        .collect();
    let mut delta: Vec<Vec<VarId>> = Vec::with_capacity(num_events);
    for _i in 0..num_events {
        let row: Vec<VarId> = caps.iter().map(|&c| m.add_continuous(-c, c, 0.0)).collect();
        delta.push(row);
    }

    // Constraints (3)–(6): for every request and every event its start/end
    // may map to, conditionally pin Δ to ±alloc. Big-M is 2c: Δ ranges over
    // [−c, c] while alloc is within [0, c], so 2c always deactivates.
    for r in 0..k {
        for (res, cap) in caps.iter().enumerate() {
            let cap = *cap;
            if cap <= 0.0 {
                continue;
            }
            let alloc_terms: Vec<(VarId, f64)> = if res < nn {
                emb.node_alloc_terms(instance, r, tvnep_graph::NodeId(res))
            } else {
                emb.edge_alloc_terms(instance, r, EdgeId(res - nn))
            };
            // NB: `alloc_terms` may be empty (fixed mappings keep the request
            // off this resource). The pins must still be emitted: they then
            // force Δ = 0 at the hosting event, exactly as the paper's
            // Constraints (3)–(6) with a zero allocation. Skipping them
            // leaves Δ free, and a free negative Δ lets the cumulative rows
            // "absorb" another request's allocation — an unsound relaxation
            // that integral optima can and do exploit.
            let big_m = 2.0 * cap;
            for (&i, &chi) in &ev.chi_start[r] {
                let d = delta[i - 1][res];
                // (3): Δ ≤ alloc + M(1 − χ⁺)  ⇔  Δ − alloc + M·χ⁺ ≤ M.
                let mut terms = vec![(d, 1.0), (chi, big_m)];
                for &(v, c) in &alloc_terms {
                    terms.push((v, -c));
                }
                m.add_le(&terms, big_m);
                // (4): Δ ≥ alloc − M(1 − χ⁺)  ⇔  Δ − alloc − M·χ⁺ ≥ −M.
                let mut terms = vec![(d, 1.0), (chi, -big_m)];
                for &(v, c) in &alloc_terms {
                    terms.push((v, -c));
                }
                m.add_ge(&terms, -big_m);
            }
            for (&i, &chi) in &ev.chi_end[r] {
                let d = delta[i - 1][res];
                // (5): Δ ≤ −alloc + M(1 − χ⁻)  ⇔  Δ + alloc + M·χ⁻ ≤ M.
                let mut terms = vec![(d, 1.0), (chi, big_m)];
                for &(v, c) in &alloc_terms {
                    terms.push((v, c));
                }
                m.add_le(&terms, big_m);
                // (6): Δ ≥ −alloc − M(1 − χ⁻)  ⇔  Δ + alloc − M·χ⁻ ≥ −M.
                let mut terms = vec![(d, 1.0), (chi, -big_m)];
                for &(v, c) in &alloc_terms {
                    terms.push((v, c));
                }
                m.add_ge(&terms, -big_m);
            }
        }
    }

    // Cumulative state feasibility: 0 ≤ Σ_{j≤i} Δ_{e_j}(r) ≤ c_S(r).
    let mut node_loads: Vec<Vec<Vec<(VarId, f64)>>> = vec![vec![Vec::new(); nn]; num_states];
    for i in 1..=num_states {
        for (res, &cap) in caps.iter().enumerate() {
            let terms: Vec<(VarId, f64)> = (1..=i).map(|j| (delta[j - 1][res], 1.0)).collect();
            m.add_row(0.0, cap, &terms);
            if res < nn {
                node_loads[i - 1][res] = terms;
            }
        }
    }

    StateLoads {
        node: node_loads,
        capacity_rows: Vec::new(),
    }
}
