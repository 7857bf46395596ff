//! Solution types: static embeddings plus schedules (Definition 2.1's
//! "Task"), and derived metrics.

use crate::instance::Instance;
use tvnep_graph::{EdgeId, NodeId};

/// The static embedding of one request: node mapping `x_V` plus splittable
/// link flows `x_E`.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// `node_map[v]` = substrate node hosting virtual node `v`.
    pub node_map: Vec<NodeId>,
    /// `edge_flows[l]` = (substrate edge, flow fraction ∈ (0, 1]) pairs
    /// carrying virtual link `l`. Fractions on a path decomposition of a unit
    /// flow from the mapped source to the mapped target.
    pub edge_flows: Vec<Vec<(EdgeId, f64)>>,
}

impl Embedding {
    /// Allocation this embedding makes on substrate node `n`
    /// (macro `alloc_V` of Table V).
    pub fn node_allocation(&self, request: &crate::request::Request, n: NodeId) -> f64 {
        self.node_map
            .iter()
            .enumerate()
            .filter(|&(_, &host)| host == n)
            .map(|(v, _)| request.node_demand(NodeId(v)))
            .sum()
    }

    /// Allocation this embedding makes on substrate link `e`
    /// (macro `alloc_E` of Table V).
    pub fn edge_allocation(&self, request: &crate::request::Request, e: EdgeId) -> f64 {
        self.edge_flows
            .iter()
            .enumerate()
            .map(|(l, flows)| {
                let f: f64 = flows
                    .iter()
                    .filter(|&&(se, _)| se == e)
                    .map(|&(_, f)| f)
                    .sum();
                request.edge_demand(EdgeId(l)) * f
            })
            .sum()
    }
}

/// Schedule and embedding decision for one request.
#[derive(Debug, Clone)]
pub struct ScheduledRequest {
    /// `x_R(R)`: whether the request is embedded.
    pub accepted: bool,
    /// Start time `t⁺_R` (also set for rejected requests, per Definition 2.1).
    pub start: f64,
    /// End time `t⁻_R`.
    pub end: f64,
    /// The static embedding; present iff `accepted`.
    pub embedding: Option<Embedding>,
}

/// A full solution to a TVNEP instance.
#[derive(Debug, Clone)]
pub struct TemporalSolution {
    /// One entry per request, in instance order.
    pub scheduled: Vec<ScheduledRequest>,
    /// Objective value reported by the producing algorithm (in its own
    /// sense); kept for cross-checking against recomputed metrics.
    pub reported_objective: Option<f64>,
}

impl TemporalSolution {
    /// Number of accepted requests.
    pub fn accepted_count(&self) -> usize {
        self.scheduled.iter().filter(|s| s.accepted).count()
    }

    /// The paper's access-control revenue:
    /// `Σ_R x_R(R) · d_R · Σ_{N_v} c_R(N_v)` (Section IV-E1).
    pub fn revenue(&self, instance: &Instance) -> f64 {
        self.scheduled
            .iter()
            .zip(&instance.requests)
            .filter(|(s, _)| s.accepted)
            .map(|(_, r)| r.revenue())
            .sum()
    }

    /// The paper's earliness objective (Section IV-E2):
    /// `Σ_R d_R · (1 − (t⁺_R − t^s_R)/(t^e_R − d_R − t^s_R))`, with rigid
    /// requests (zero flexibility) contributing their full `d_R`.
    pub fn earliness(&self, instance: &Instance) -> f64 {
        self.scheduled
            .iter()
            .zip(&instance.requests)
            .filter(|(s, _)| s.accepted)
            .map(|(s, r)| {
                let denom = r.latest_start() - r.earliest_start;
                let frac = if denom > 1e-12 {
                    (s.start - r.earliest_start) / denom
                } else {
                    0.0
                };
                r.duration * (1.0 - frac.clamp(0.0, 1.0))
            })
            .sum()
    }

    /// Completion time of the last accepted request (the makespan mentioned
    /// in the paper's abstract).
    pub fn makespan(&self) -> f64 {
        self.scheduled
            .iter()
            .filter(|s| s.accepted)
            .map(|s| s.end)
            .fold(0.0, f64::max)
    }

    /// Peak allocation over all substrate nodes and all times, as a fraction
    /// of the node capacity (load-balancing metric).
    pub fn peak_node_load(&self, instance: &Instance) -> f64 {
        let mut peak = 0.0f64;
        for n in instance.substrate.graph().nodes() {
            let cap = instance.substrate.node_capacity(n);
            if cap <= 0.0 {
                continue;
            }
            for t in self.critical_times() {
                let load: f64 = self
                    .scheduled
                    .iter()
                    .zip(&instance.requests)
                    .filter(|(s, _)| s.accepted && s.start < t && t < s.end)
                    .filter_map(|(s, r)| s.embedding.as_ref().map(|e| e.node_allocation(r, n)))
                    .sum();
                peak = peak.max(load / cap);
            }
        }
        peak
    }

    /// Substrate links carrying no flow at any time (candidates for being
    /// disabled; Section IV-E4 counts these).
    pub fn unused_links(&self, instance: &Instance) -> usize {
        let ne = instance.substrate.num_edges();
        let mut used = vec![false; ne];
        for (s, _r) in self.scheduled.iter().zip(&instance.requests) {
            if !s.accepted {
                continue;
            }
            let Some(emb) = s.embedding.as_ref() else {
                continue;
            };
            for flows in &emb.edge_flows {
                for &(e, f) in flows {
                    if f > 1e-9 {
                        used[e.0] = true;
                    }
                }
            }
        }
        used.iter().filter(|&&u| !u).count()
    }

    /// The maximal allocation-invariant intervals `[lo, hi]`, in time order:
    /// consecutive event points (the accepted starts and ends, sorted, equal
    /// within 1e-12 merged).
    pub fn event_intervals(&self) -> Vec<(f64, f64)> {
        let mut times: Vec<f64> = self
            .scheduled
            .iter()
            .filter(|s| s.accepted)
            .flat_map(|s| [s.start, s.end])
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        times.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Midpoints of the [`event_intervals`](Self::event_intervals) —
    /// checking capacities at these instants is equivalent to checking all
    /// `t ∈ [0,T]` (the event-point argument of Section III-A).
    pub fn critical_times(&self) -> Vec<f64> {
        self.event_intervals()
            .into_iter()
            .map(|(lo, hi)| 0.5 * (lo + hi))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::substrate::Substrate;
    use tvnep_graph::{grid, star, StarDirection};

    fn one_request_instance() -> Instance {
        let s = Substrate::uniform(grid(2, 2), 3.5, 5.0);
        let g = star(2, StarDirection::AwayFromCenter);
        let r = Request::new("r0", g, vec![1.0; 3], vec![0.5; 2], 0.0, 8.0, 2.0);
        Instance::new(s, vec![r], 10.0, None)
    }

    fn trivial_embedding() -> Embedding {
        // center -> node 0, leaves -> nodes 1, 2; star edges routed on the
        // direct grid links 0->1 and 0->2.
        Embedding {
            node_map: vec![NodeId(0), NodeId(1), NodeId(2)],
            edge_flows: vec![vec![(EdgeId(0), 1.0)], vec![(EdgeId(2), 1.0)]],
        }
    }

    #[test]
    fn allocations() {
        let inst = one_request_instance();
        let emb = trivial_embedding();
        let r = &inst.requests[0];
        assert_eq!(emb.node_allocation(r, NodeId(0)), 1.0);
        assert_eq!(emb.node_allocation(r, NodeId(3)), 0.0);
        assert_eq!(emb.edge_allocation(r, EdgeId(0)), 0.5);
        assert_eq!(emb.edge_allocation(r, EdgeId(5)), 0.0);
    }

    #[test]
    fn metrics() {
        let inst = one_request_instance();
        let sol = TemporalSolution {
            scheduled: vec![ScheduledRequest {
                accepted: true,
                start: 3.0,
                end: 5.0,
                embedding: Some(trivial_embedding()),
            }],
            reported_objective: None,
        };
        assert_eq!(sol.accepted_count(), 1);
        assert!((sol.revenue(&inst) - 6.0).abs() < 1e-12);
        assert_eq!(sol.makespan(), 5.0);
        // start=3, window [0,8], d=2 -> latest start 6 -> frac 0.5 -> 2*(1-0.5)=1.
        assert!((sol.earliness(&inst) - 1.0).abs() < 1e-12);
        // Node 0 hosts demand 1.0 of capacity 3.5.
        assert!((sol.peak_node_load(&inst) - 1.0 / 3.5).abs() < 1e-12);
        // 8 grid edges, 2 used.
        assert_eq!(sol.unused_links(&inst), 6);
    }

    #[test]
    fn rejected_requests_do_not_count() {
        let inst = one_request_instance();
        let sol = TemporalSolution {
            scheduled: vec![ScheduledRequest {
                accepted: false,
                start: 0.0,
                end: 2.0,
                embedding: None,
            }],
            reported_objective: None,
        };
        assert_eq!(sol.accepted_count(), 0);
        assert_eq!(sol.revenue(&inst), 0.0);
        assert_eq!(sol.makespan(), 0.0);
        assert_eq!(sol.unused_links(&inst), 8);
    }
}
