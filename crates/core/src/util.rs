//! # Substrate utilization, computed from a schedule when it is read
//!
//! Definition 2.1 makes substrate load a pure function of the schedule: the
//! load of a resource at instant `t` is the sum of the allocations of the
//! accepted requests whose open execution interval contains `t`, and by the
//! event-point argument of Section III-A it is constant between consecutive
//! event points. [`util_points`] evaluates it at the midpoint of every event
//! interval of a solution ([`TemporalSolution::event_intervals`], the
//! intervals behind `critical_times`) with the per-instant load functions
//! the admission scan and the explanations use — the verifier's sweep, so
//! its numbers equal a from-scratch recomputation bit for bit (the
//! `online_consistency` oracle enforces this).
//!
//! The service runs it over its live reservation snapshot when the
//! `metrics` event is read, and `tvnep-cli load --util-out` runs it once
//! over the whole run's decided schedule; no admission pays for it.

use crate::explain::{edge_load_at, node_load_at};
use tvnep_model::{Instance, Substrate, TemporalSolution};
use tvnep_telemetry::{exact_quantile, Json};

/// Loads at one allocation-invariant interval, probed at its midpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilPoint {
    /// Probe time (interval midpoint).
    pub t: f64,
    /// Interval bounds `[lo, hi]` the probe represents.
    pub lo: f64,
    pub hi: f64,
    /// Absolute load per substrate node (Definition 2.1 node allocation).
    pub node_load: Vec<f64>,
    /// Absolute load per substrate edge.
    pub edge_load: Vec<f64>,
}

/// Scalar roll-up of a set of [`UtilPoint`]s for gauges and `top`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSummary {
    /// Number of probe points.
    pub points: usize,
    /// Peak node utilization (load/capacity) over all points and nodes.
    pub node_max: f64,
    /// Peak edge utilization.
    pub edge_max: f64,
    /// 95th percentile of per-edge peak utilization.
    pub edge_p95: f64,
    /// `1 − max utilization` at the first probe point after the water mark
    /// (the capacity slack the next admission epoch will see); 1 when no
    /// interval lies ahead.
    pub headroom_next: f64,
}

/// The loads of every substrate resource at every event interval of `sol`.
pub fn util_points(inst: &Instance, sol: &TemporalSolution) -> Vec<UtilPoint> {
    let graph = inst.substrate.graph();
    sol.event_intervals()
        .into_iter()
        .map(|(lo, hi)| {
            let t = 0.5 * (lo + hi);
            UtilPoint {
                t,
                lo,
                hi,
                node_load: graph
                    .nodes()
                    .map(|n| node_load_at(inst, sol, n, t))
                    .collect(),
                edge_load: graph
                    .edge_ids()
                    .map(|e| edge_load_at(inst, sol, e, t))
                    .collect(),
            }
        })
        .collect()
}

fn util(load: f64, cap: f64) -> f64 {
    if cap > 0.0 {
        load / cap
    } else {
        0.0
    }
}

/// Gauge roll-up of `points` on `substrate`; `mark` is the admission water
/// mark (for headroom-at-next-epoch).
pub fn util_summary(substrate: &Substrate, points: &[UtilPoint], mark: f64) -> UtilSummary {
    let (node_caps, edge_caps) = (substrate.node_capacities(), substrate.edge_capacities());
    let mut node_max = 0.0f64;
    let mut edge_max = 0.0f64;
    let mut edge_peak = vec![0.0f64; edge_caps.len()];
    let mut headroom_next = 1.0f64;
    let mut next_found = false;
    for p in points {
        let mut point_max = 0.0f64;
        for (&load, &cap) in p.node_load.iter().zip(node_caps) {
            let u = util(load, cap);
            node_max = node_max.max(u);
            point_max = point_max.max(u);
        }
        for (e, (&load, &cap)) in p.edge_load.iter().zip(edge_caps).enumerate() {
            let u = util(load, cap);
            edge_max = edge_max.max(u);
            edge_peak[e] = edge_peak[e].max(u);
            point_max = point_max.max(u);
        }
        if !next_found && p.t > mark {
            headroom_next = 1.0 - point_max;
            next_found = true;
        }
    }
    edge_peak.sort_by(|a, b| a.partial_cmp(b).expect("finite utils"));
    UtilSummary {
        points: points.len(),
        node_max,
        edge_max,
        edge_p95: exact_quantile(&edge_peak, 0.95),
        headroom_next,
    }
}

/// Per-node peak utilization over `points` (the `top` heatline).
pub fn node_peaks(substrate: &Substrate, points: &[UtilPoint]) -> Vec<f64> {
    let caps = substrate.node_capacities();
    let mut peaks = vec![0.0f64; caps.len()];
    for p in points {
        for (n, (&load, &cap)) in p.node_load.iter().zip(caps).enumerate() {
            peaks[n] = peaks[n].max(util(load, cap));
        }
    }
    peaks
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::from(v)).collect())
}

/// Deterministic JSONL export: a header line with the capacities, then one
/// `{"t", "interval", "node_load", "edge_load"}` line per point.
pub fn util_jsonl(substrate: &Substrate, points: &[UtilPoint]) -> String {
    let header = Json::Obj(vec![
        ("kind".into(), Json::from("tvnep-util-timeline")),
        ("node_caps".into(), floats(substrate.node_capacities())),
        ("edge_caps".into(), floats(substrate.edge_capacities())),
    ]);
    let mut out = header.to_string();
    out.push('\n');
    for p in points {
        let line = Json::Obj(vec![
            ("t".into(), Json::from(p.t)),
            ("interval".into(), floats(&[p.lo, p.hi])),
            ("node_load".into(), floats(&p.node_load)),
            ("edge_load".into(), floats(&p.edge_load)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}
