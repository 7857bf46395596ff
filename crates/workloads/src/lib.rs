//! # tvnep-workloads — the paper's synthetic workload generator (§VI-A)
//!
//! Scenario: a day of work on a data-center grid substrate.
//!
//! * substrate: directed `rows × cols` grid, node capacity 3.5, link
//!   capacity 5;
//! * requests: 5-node stars (one center, links all towards or away from it),
//!   demands uniform in `[1, 2]` — so w.h.p. only two virtual nodes fit on
//!   one substrate node;
//! * arrivals: Poisson process with exponentially distributed inter-arrival
//!   times (mean 1 h);
//! * durations: Weibull with shape 2 and scale 4 (heavy-tailed, mean ≈ 3.5 h);
//! * node mappings fixed a priori, uniformly at random;
//! * initially zero temporal flexibility; the sweep widens each window by
//!   30-minute steps up to 6 h.
//!
//! All generation is seeded and deterministic. [`WorkloadConfig::paper`]
//! reproduces the exact §VI-A parameters; [`WorkloadConfig::small`] is the
//! scaled-down default this reproduction evaluates with (our simplex-based
//! solver is orders of magnitude slower than Gurobi — see DESIGN.md §2).

use tvnep_graph::{grid, star, DiGraph, NodeId, StarDirection};
use tvnep_model::{Instance, Request, Substrate};

pub mod patterns;
pub mod rng;

use rng::Rng;

/// Parameters of the §VI-A generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Substrate grid rows.
    pub grid_rows: usize,
    /// Substrate grid columns.
    pub grid_cols: usize,
    /// Capacity of every substrate node.
    pub node_capacity: f64,
    /// Capacity of every substrate link.
    pub edge_capacity: f64,
    /// Number of requests per scenario.
    pub num_requests: usize,
    /// Leaves per star request (the paper uses 4, i.e. 5-node stars).
    pub star_leaves: usize,
    /// Per-resource demand range (uniform).
    pub demand_range: (f64, f64),
    /// Mean of the exponential inter-arrival time (hours).
    pub mean_interarrival: f64,
    /// Weibull shape parameter of the duration distribution.
    pub weibull_shape: f64,
    /// Weibull scale parameter of the duration distribution (hours).
    pub weibull_scale: f64,
    /// Largest flexibility the sweep will add (hours); sizes the horizon so
    /// widening never clips.
    pub max_flexibility: f64,
}

impl WorkloadConfig {
    /// The exact configuration of the paper's evaluation: 4×5 grid,
    /// 20 requests, flexibility up to 6 h.
    pub fn paper() -> Self {
        Self {
            grid_rows: 4,
            grid_cols: 5,
            node_capacity: 3.5,
            edge_capacity: 5.0,
            num_requests: 20,
            star_leaves: 4,
            demand_range: (1.0, 2.0),
            mean_interarrival: 1.0,
            weibull_shape: 2.0,
            weibull_scale: 4.0,
            max_flexibility: 6.0,
        }
    }

    /// Scaled-down default for this reproduction (see DESIGN.md §5): 2×3
    /// grid, 5 requests, shorter durations, same distributional shapes. Our
    /// simplex-based MIP solver is orders of magnitude slower than the
    /// paper's Gurobi; this scale keeps exact cΣ solves in the seconds-to-
    /// minutes range while preserving every qualitative trend.
    pub fn small() -> Self {
        Self {
            grid_rows: 2,
            grid_cols: 3,
            num_requests: 5,
            weibull_scale: 2.0,
            mean_interarrival: 0.75,
            ..Self::paper()
        }
    }

    /// Mid-size configuration between [`small`](Self::small) and
    /// [`paper`](Self::paper): 3×3 grid, 8 requests.
    pub fn medium() -> Self {
        Self {
            grid_rows: 3,
            grid_cols: 3,
            num_requests: 8,
            weibull_scale: 2.5,
            ..Self::paper()
        }
    }

    /// An even smaller smoke-test configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            grid_rows: 2,
            grid_cols: 2,
            num_requests: 3,
            star_leaves: 2,
            weibull_scale: 1.5,
            mean_interarrival: 1.0,
            ..Self::paper()
        }
    }
}

/// One request as the arrival process draws it, before a window is set
/// around it: its arrival time, duration, star, demands and a-priori node
/// mapping.
#[derive(Debug, Clone)]
pub struct RequestDraw {
    /// Arrival time: the previous arrival plus an exponential gap (hours).
    pub arrival: f64,
    /// Weibull duration, floored at 0.25 h (hours).
    pub duration: f64,
    /// The star, its links all towards or all away from its center.
    pub graph: DiGraph,
    /// Demand of each virtual node.
    pub node_demand: Vec<f64>,
    /// Demand of each virtual link.
    pub edge_demand: Vec<f64>,
    /// Substrate node of each virtual node.
    pub mapping: Vec<NodeId>,
}

/// The §VI-A arrival process, one [`RequestDraw`] per item. Each item
/// draws, in this order, an exponential gap (mean `mean_interarrival`), a
/// Weibull duration, the star's direction, its node demands, its link
/// demands and its node mapping. [`generate`] takes the first
/// `num_requests` items; the service's load generator takes the items that
/// arrive within its run.
#[derive(Debug, Clone)]
pub struct Arrivals<'a> {
    config: &'a WorkloadConfig,
    rng: Rng,
    arrival: f64,
}

impl<'a> Arrivals<'a> {
    /// The arrivals of `config`'s workload, seeded from `seed`.
    pub fn new(config: &'a WorkloadConfig, seed: u64) -> Self {
        Self {
            config,
            rng: Rng::new(seed),
            arrival: 0.0,
        }
    }
}

impl Iterator for Arrivals<'_> {
    type Item = RequestDraw;

    fn next(&mut self) -> Option<RequestDraw> {
        let (config, rng) = (self.config, &mut self.rng);
        self.arrival += rng.exp(config.mean_interarrival);
        // Durations below a small floor make no sense operationally.
        let duration = rng
            .weibull(config.weibull_scale, config.weibull_shape)
            .max(0.25);
        let direction = if rng.chance(0.5) {
            StarDirection::TowardsCenter
        } else {
            StarDirection::AwayFromCenter
        };
        let graph = star(config.star_leaves, direction);
        let node_demand: Vec<f64> = (0..graph.num_nodes())
            .map(|_| rng.range_f64(config.demand_range.0, config.demand_range.1))
            .collect();
        let edge_demand: Vec<f64> = (0..graph.num_edges())
            .map(|_| rng.range_f64(config.demand_range.0, config.demand_range.1))
            .collect();
        let num_substrate_nodes = config.grid_rows * config.grid_cols;
        let mapping: Vec<NodeId> = (0..graph.num_nodes())
            .map(|_| NodeId(rng.below(num_substrate_nodes)))
            .collect();
        Some(RequestDraw {
            arrival: self.arrival,
            duration,
            graph,
            node_demand,
            edge_demand,
            mapping,
        })
    }
}

/// Generates one scenario deterministically from `seed`. Requests initially
/// have zero flexibility (`t^e = t^s + d`); widen with
/// [`Instance::with_flexibility_after`].
pub fn generate(config: &WorkloadConfig, seed: u64) -> Instance {
    let substrate = Substrate::uniform(
        grid(config.grid_rows, config.grid_cols),
        config.node_capacity,
        config.edge_capacity,
    );
    let mut requests = Vec::with_capacity(config.num_requests);
    let mut mappings = Vec::with_capacity(config.num_requests);
    let mut latest_end = 0.0f64;
    for (i, d) in Arrivals::new(config, seed)
        .take(config.num_requests)
        .enumerate()
    {
        latest_end = latest_end.max(d.arrival + d.duration);
        requests.push(Request::new(
            format!("R{i}"),
            d.graph,
            d.node_demand,
            d.edge_demand,
            d.arrival,
            d.arrival + d.duration,
            d.duration,
        ));
        mappings.push(d.mapping);
    }
    let horizon = latest_end + config.max_flexibility + 1.0;
    Instance::new(substrate, requests, horizon, Some(mappings))
}

/// Generates the flexibility sweep of the evaluation: one instance per value
/// in `flex_hours`, each widening every request's window by that amount.
pub fn sweep(config: &WorkloadConfig, seed: u64, flex_hours: &[f64]) -> Vec<Instance> {
    let base = generate(config, seed);
    flex_hours
        .iter()
        .map(|&f| base.with_flexibility_after(f))
        .collect()
}

/// The paper's sweep values: 0 to 6 hours in 30-minute steps.
pub fn paper_flexibilities() -> Vec<f64> {
    (0..=12).map(|i| i as f64 * 0.5).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let c = WorkloadConfig::small();
        let a = generate(&c, 7);
        let b = generate(&c, 7);
        assert_eq!(a.num_requests(), b.num_requests());
        for (ra, rb) in a.requests.iter().zip(&b.requests) {
            assert_eq!(ra.earliest_start, rb.earliest_start);
            assert_eq!(ra.duration, rb.duration);
            assert_eq!(ra.node_demand(NodeId(0)), rb.node_demand(NodeId(0)));
        }
        assert_eq!(a.fixed_node_mappings, b.fixed_node_mappings);
    }

    #[test]
    fn different_seeds_differ() {
        let c = WorkloadConfig::small();
        let a = generate(&c, 1);
        let b = generate(&c, 2);
        let same = a
            .requests
            .iter()
            .zip(&b.requests)
            .all(|(x, y)| x.earliest_start == y.earliest_start);
        assert!(!same);
    }

    #[test]
    fn paper_shape() {
        let inst = generate(&WorkloadConfig::paper(), 0);
        assert_eq!(inst.num_requests(), 20);
        assert_eq!(inst.substrate.num_nodes(), 20);
        assert_eq!(inst.substrate.num_edges(), 62);
        for r in &inst.requests {
            assert_eq!(r.num_nodes(), 5);
            assert_eq!(r.num_edges(), 4);
            assert!(r.flexibility().abs() < 1e-9, "initially rigid");
            for v in 0..5 {
                let d = r.node_demand(NodeId(v));
                assert!((1.0..=2.0).contains(&d));
            }
        }
    }

    #[test]
    fn durations_roughly_weibull_mean() {
        // Weibull(k=2, λ=4) has mean λ·Γ(1.5) ≈ 3.545. Sample many requests.
        let mut cfg = WorkloadConfig::paper();
        cfg.num_requests = 400;
        cfg.max_flexibility = 0.0;
        let inst = generate(&cfg, 42);
        let mean: f64 = inst.requests.iter().map(|r| r.duration).sum::<f64>() / 400.0;
        assert!((2.9..4.2).contains(&mean), "sample mean {mean}");
    }

    #[test]
    fn sweep_widens_only_after() {
        let c = WorkloadConfig::small();
        let sw = sweep(&c, 3, &[0.0, 1.0, 2.0]);
        assert_eq!(sw.len(), 3);
        for (i, inst) in sw.iter().enumerate() {
            for (r0, r) in sw[0].requests.iter().zip(&inst.requests) {
                assert_eq!(r0.earliest_start, r.earliest_start);
                let expect = (r0.latest_end + i as f64).min(inst.horizon);
                assert!((r.latest_end - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn paper_flexibilities_match_section_6() {
        let f = paper_flexibilities();
        assert_eq!(f.len(), 13); // 0, 0.5, ..., 6.0
        assert_eq!(f[0], 0.0);
        assert_eq!(*f.last().unwrap(), 6.0);
    }

    #[test]
    fn horizon_accommodates_max_flexibility() {
        let c = WorkloadConfig::small();
        let base = generate(&c, 11);
        let widest = base.with_flexibility_after(c.max_flexibility);
        for r in &widest.requests {
            assert!((r.flexibility() - c.max_flexibility).abs() < 1e-9);
        }
    }
}
