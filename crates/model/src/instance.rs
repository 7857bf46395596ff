//! A complete TVNEP instance (Definition 2.1's "Given").

use crate::request::Request;
use crate::substrate::Substrate;
use tvnep_graph::NodeId;

/// An a-priori node mapping for one request: virtual node index → substrate
/// node. The paper's evaluation fixes node mappings uniformly at random and
/// lets the models decide scheduling and link embedding (§VI-A).
pub type NodeMapping = Vec<NodeId>;

/// A TVNEP instance: substrate, requests, time horizon `T`, and optional
/// fixed node mappings.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The physical network.
    pub substrate: Substrate,
    /// The VNet requests.
    pub requests: Vec<Request>,
    /// The considered time horizon `T > 0`; all windows live in `[0, T]`.
    pub horizon: f64,
    /// When present, `fixed_node_mappings[r][v]` pins virtual node `v` of
    /// request `r` onto a substrate node (Constraint (23) of the greedy).
    pub fixed_node_mappings: Option<Vec<NodeMapping>>,
}

/// Checks that `request`'s window ends inside the horizon `[0, horizon]`
/// (its start is non-negative by construction).
pub fn check_window(request: &Request, horizon: f64) -> Result<(), String> {
    if request.latest_end <= horizon + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "request '{}' ends at {} beyond horizon {horizon}",
            request.name, request.latest_end
        ))
    }
}

/// Checks that `mapping` pins every virtual node of `request` onto a node
/// of `substrate`.
pub fn check_mapping(
    request: &Request,
    mapping: &[NodeId],
    substrate: &Substrate,
) -> Result<(), String> {
    if mapping.len() != request.num_nodes() {
        return Err(format!(
            "request '{}': one substrate node per virtual node: the mapping covers {} of {}",
            request.name,
            mapping.len(),
            request.num_nodes()
        ));
    }
    match mapping.iter().find(|n| n.0 >= substrate.num_nodes()) {
        Some(n) => Err(format!(
            "request '{}': mapping references unknown substrate node {}",
            request.name, n.0
        )),
        None => Ok(()),
    }
}

impl Instance {
    /// Creates an instance, or says why it is invalid: a finite positive
    /// horizon, every window inside it ([`check_window`]), and, when
    /// mappings are pinned, one valid mapping per request
    /// ([`check_mapping`]).
    pub fn try_new(
        substrate: Substrate,
        requests: Vec<Request>,
        horizon: f64,
        fixed_node_mappings: Option<Vec<NodeMapping>>,
    ) -> Result<Self, String> {
        if !(horizon > 0.0 && horizon.is_finite()) {
            return Err(format!("horizon {horizon} must be positive"));
        }
        for r in &requests {
            check_window(r, horizon)?;
        }
        if let Some(maps) = &fixed_node_mappings {
            if maps.len() != requests.len() {
                return Err(format!(
                    "one mapping per request: {} mappings for {} requests",
                    maps.len(),
                    requests.len()
                ));
            }
            for (r, map) in requests.iter().zip(maps) {
                check_mapping(r, map, &substrate)?;
            }
        }
        Ok(Self {
            substrate,
            requests,
            horizon,
            fixed_node_mappings,
        })
    }

    /// [`try_new`](Self::try_new) for an instance known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with the reason `try_new` gives.
    pub fn new(
        substrate: Substrate,
        requests: Vec<Request>,
        horizon: f64,
        fixed_node_mappings: Option<Vec<NodeMapping>>,
    ) -> Self {
        Self::try_new(substrate, requests, horizon, fixed_node_mappings)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of requests `|R|`.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Total revenue if every request were accepted (upper bound for the
    /// access-control objective).
    pub fn total_revenue(&self) -> f64 {
        self.requests.iter().map(Request::revenue).sum()
    }

    /// Returns a copy with every request's window widened by `extra`
    /// (the flexibility sweep of the evaluation).
    pub fn with_extra_flexibility(&self, extra: f64) -> Self {
        let requests = self
            .requests
            .iter()
            .map(|r| r.with_extra_flexibility(extra, self.horizon))
            .collect();
        Self {
            substrate: self.substrate.clone(),
            requests,
            horizon: self.horizon,
            fixed_node_mappings: self.fixed_node_mappings.clone(),
        }
    }

    /// Like [`with_extra_flexibility`](Self::with_extra_flexibility) but only
    /// extends windows after the arrival (`t^e += extra`), matching the
    /// paper's sweep where requests cannot start before they arrive.
    pub fn with_flexibility_after(&self, extra: f64) -> Self {
        let requests = self
            .requests
            .iter()
            .map(|r| r.with_flexibility_after(extra, self.horizon))
            .collect();
        Self {
            substrate: self.substrate.clone(),
            requests,
            horizon: self.horizon,
            fixed_node_mappings: self.fixed_node_mappings.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_graph::{grid, star, StarDirection};

    fn tiny() -> (Substrate, Request) {
        let s = Substrate::uniform(grid(2, 2), 3.5, 5.0);
        let g = star(2, StarDirection::AwayFromCenter);
        let r = Request::new("r0", g, vec![1.0; 3], vec![1.0; 2], 0.0, 5.0, 2.0);
        (s, r)
    }

    #[test]
    fn valid_instance() {
        let (s, r) = tiny();
        let inst = Instance::new(s, vec![r], 10.0, None);
        assert_eq!(inst.num_requests(), 1);
        assert!((inst.total_revenue() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn window_beyond_horizon_rejected() {
        let (s, r) = tiny();
        Instance::new(s, vec![r], 4.0, None);
    }

    #[test]
    #[should_panic(expected = "one substrate node per virtual node")]
    fn bad_mapping_shape_rejected() {
        let (s, r) = tiny();
        Instance::new(s, vec![r], 10.0, Some(vec![vec![NodeId(0)]]));
    }

    #[test]
    fn flexibility_sweep_widens_all() {
        let (s, r) = tiny();
        let inst = Instance::new(s, vec![r], 10.0, None);
        let wide = inst.with_extra_flexibility(4.0);
        assert_eq!(wide.requests[0].earliest_start, 0.0);
        assert_eq!(wide.requests[0].latest_end, 7.0);
    }
}
