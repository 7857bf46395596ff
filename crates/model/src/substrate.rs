//! The substrate (physical) network: topology plus node and link capacities
//! (Table I of the paper).

use tvnep_graph::{DiGraph, EdgeId, NodeId};

/// A capacitated substrate network `S = (V_S, E_S, c_S)`.
#[derive(Debug, Clone)]
pub struct Substrate {
    graph: DiGraph,
    node_capacity: Vec<f64>,
    edge_capacity: Vec<f64>,
}

impl Substrate {
    /// Wraps a topology with per-node and per-edge capacities, or says why
    /// they are invalid: one finite, non-negative capacity per node and per
    /// edge.
    pub fn try_new(
        graph: DiGraph,
        node_capacity: Vec<f64>,
        edge_capacity: Vec<f64>,
    ) -> Result<Self, String> {
        if node_capacity.len() != graph.num_nodes() {
            return Err(format!(
                "substrate: one capacity per node: {} capacities for {} nodes",
                node_capacity.len(),
                graph.num_nodes()
            ));
        }
        if edge_capacity.len() != graph.num_edges() {
            return Err(format!(
                "substrate: one capacity per edge: {} capacities for {} edges",
                edge_capacity.len(),
                graph.num_edges()
            ));
        }
        if !node_capacity
            .iter()
            .chain(&edge_capacity)
            .all(|c| c.is_finite() && *c >= 0.0)
        {
            return Err("substrate: capacities must be finite and non-negative".into());
        }
        Ok(Self {
            graph,
            node_capacity,
            edge_capacity,
        })
    }

    /// [`try_new`](Self::try_new) for capacities known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with the reason `try_new` gives.
    pub fn new(graph: DiGraph, node_capacity: Vec<f64>, edge_capacity: Vec<f64>) -> Self {
        Self::try_new(graph, node_capacity, edge_capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Uniform capacities on every node and every edge (the paper's setup:
    /// 3.5 per node, 5 per link).
    pub fn uniform(graph: DiGraph, node_cap: f64, edge_cap: f64) -> Self {
        let nc = vec![node_cap; graph.num_nodes()];
        let ec = vec![edge_cap; graph.num_edges()];
        Self::new(graph, nc, ec)
    }

    /// The substrate topology.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of substrate nodes `|V_S|`.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of substrate links `|E_S|`.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Capacity of node `n`.
    pub fn node_capacity(&self, n: NodeId) -> f64 {
        self.node_capacity[n.0]
    }

    /// Capacity of link `e`.
    pub fn edge_capacity(&self, e: EdgeId) -> f64 {
        self.edge_capacity[e.0]
    }

    /// All node capacities.
    pub fn node_capacities(&self) -> &[f64] {
        &self.node_capacity
    }

    /// All edge capacities.
    pub fn edge_capacities(&self) -> &[f64] {
        &self.edge_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_graph::grid;

    #[test]
    fn uniform_capacities() {
        let s = Substrate::uniform(grid(2, 2), 3.5, 5.0);
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.num_edges(), 8);
        assert_eq!(s.node_capacity(NodeId(0)), 3.5);
        assert_eq!(s.edge_capacity(EdgeId(7)), 5.0);
    }

    #[test]
    #[should_panic(expected = "one capacity per node")]
    fn capacity_length_checked() {
        Substrate::new(grid(2, 2), vec![1.0; 3], vec![1.0; 8]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        Substrate::new(grid(1, 2), vec![-1.0, 1.0], vec![1.0, 1.0]);
    }
}
