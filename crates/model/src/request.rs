//! VNet requests: topology, resource demands (Table II) and temporal
//! parameters (Table VI).

use tvnep_graph::{DiGraph, EdgeId, NodeId};

/// A virtual network request `R` with static resource demands and the three
/// temporal attributes of the TVNEP: duration `d_R`, earliest start `t^s_R`
/// and latest end `t^e_R`.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen identifier (used in logs and solution reports).
    pub name: String,
    graph: DiGraph,
    node_demand: Vec<f64>,
    edge_demand: Vec<f64>,
    /// Earliest possible start `t^s_R ≥ 0`.
    pub earliest_start: f64,
    /// Latest possible end `t^e_R`.
    pub latest_end: f64,
    /// Execution duration `d_R > 0`.
    pub duration: f64,
}

impl Request {
    /// Creates a request, or says why its parameters are invalid: one
    /// finite, non-negative demand per virtual node and per virtual link, a
    /// finite positive duration `d_R`, a finite earliest start `t^s_R ≥ 0`,
    /// and a window `t^e_R − t^s_R ≥ d_R`.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        name: impl Into<String>,
        graph: DiGraph,
        node_demand: Vec<f64>,
        edge_demand: Vec<f64>,
        earliest_start: f64,
        latest_end: f64,
        duration: f64,
    ) -> Result<Self, String> {
        let name = name.into();
        let fail = |why: String| Err(format!("request '{name}': {why}"));
        if node_demand.len() != graph.num_nodes() || edge_demand.len() != graph.num_edges() {
            return fail(format!(
                "one demand per virtual node and link: {} node and {} link demands \
                 for {} nodes and {} links",
                node_demand.len(),
                edge_demand.len(),
                graph.num_nodes(),
                graph.num_edges()
            ));
        }
        if !node_demand
            .iter()
            .chain(&edge_demand)
            .all(|d| d.is_finite() && *d >= 0.0)
        {
            return fail("demands must be finite and non-negative".into());
        }
        if !(duration > 0.0 && duration.is_finite()) {
            return fail(format!("duration {duration} must be positive"));
        }
        if !(earliest_start >= 0.0 && earliest_start.is_finite()) {
            return fail(format!(
                "earliest start {earliest_start} must be finite and non-negative"
            ));
        }
        if !(latest_end.is_finite() && latest_end - earliest_start >= duration - 1e-12) {
            return fail(format!(
                "window [{earliest_start}, {latest_end}] shorter than duration {duration}"
            ));
        }
        Ok(Self {
            name,
            graph,
            node_demand,
            edge_demand,
            earliest_start,
            latest_end,
            duration,
        })
    }

    /// [`try_new`](Self::try_new) for parameters known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with the reason `try_new` gives.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        graph: DiGraph,
        node_demand: Vec<f64>,
        edge_demand: Vec<f64>,
        earliest_start: f64,
        latest_end: f64,
        duration: f64,
    ) -> Self {
        Self::try_new(
            name,
            graph,
            node_demand,
            edge_demand,
            earliest_start,
            latest_end,
            duration,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The virtual topology.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of virtual nodes `|V_R|`.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of virtual links `|E_R|`.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Demand of virtual node `v`.
    pub fn node_demand(&self, v: NodeId) -> f64 {
        self.node_demand[v.0]
    }

    /// Demand of virtual link `l`.
    pub fn edge_demand(&self, l: EdgeId) -> f64 {
        self.edge_demand[l.0]
    }

    /// Temporal slack `t^e − t^s − d ≥ 0`: how much the provider may shift
    /// the execution. Zero means the request is rigid.
    pub fn flexibility(&self) -> f64 {
        self.latest_end - self.earliest_start - self.duration
    }

    /// Latest feasible start `t^e − d`.
    pub fn latest_start(&self) -> f64 {
        self.latest_end - self.duration
    }

    /// Earliest feasible end `t^s + d`.
    pub fn earliest_end(&self) -> f64 {
        self.earliest_start + self.duration
    }

    /// Total requested node resources `Σ_{N_v ∈ V_R} c_R(N_v)` — the paper's
    /// revenue basis for the access-control objective.
    pub fn total_node_demand(&self) -> f64 {
        self.node_demand.iter().sum()
    }

    /// Revenue of embedding this request: `d_R · Σ c_R(N_v)` (Section IV-E1).
    pub fn revenue(&self) -> f64 {
        self.duration * self.total_node_demand()
    }

    /// Returns a copy with the temporal window widened by `extra` (half
    /// before, half after, clipped to `[0, horizon]`) — the evaluation's
    /// flexibility sweep increments windows this way.
    pub fn with_extra_flexibility(&self, extra: f64, horizon: f64) -> Self {
        let mut r = self.clone();
        r.earliest_start = (r.earliest_start - extra / 2.0).max(0.0);
        r.latest_end = (r.latest_end + extra / 2.0).min(horizon);
        r
    }

    /// Returns a copy with the window extended only *after* the earliest
    /// start (requests cannot start before they arrive): `t^e += extra`,
    /// clipped to the horizon. This is the widening the paper's workload
    /// sweep uses.
    pub fn with_flexibility_after(&self, extra: f64, horizon: f64) -> Self {
        let mut r = self.clone();
        r.latest_end = (r.latest_end + extra).min(horizon);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_graph::{star, StarDirection};

    fn star_request(ts: f64, te: f64, d: f64) -> Request {
        let g = star(4, StarDirection::TowardsCenter);
        Request::new("r", g, vec![1.5; 5], vec![1.0; 4], ts, te, d)
    }

    #[test]
    fn flexibility_math() {
        let r = star_request(2.0, 8.0, 4.0);
        assert!((r.flexibility() - 2.0).abs() < 1e-12);
        assert_eq!(r.latest_start(), 4.0);
        assert_eq!(r.earliest_end(), 6.0);
    }

    #[test]
    fn revenue_formula() {
        let r = star_request(0.0, 4.0, 4.0);
        assert!((r.revenue() - 4.0 * 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shorter than duration")]
    fn window_must_fit_duration() {
        star_request(0.0, 3.0, 4.0);
    }

    #[test]
    fn widening_clips_to_horizon() {
        let r = star_request(1.0, 9.0, 4.0).with_extra_flexibility(10.0, 12.0);
        assert_eq!(r.earliest_start, 0.0);
        assert_eq!(r.latest_end, 12.0);
    }
}
