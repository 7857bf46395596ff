//! Search-tree capture: record counts must equal the `mip.nodes` metric in
//! both drivers, parent/branch links must be structurally valid, and span
//! profiling must cover the node lifecycle.

use std::sync::Arc;

use tvnep_mip::{solve_with, MipModel, MipOptions, MipStatus, NodeOutcome, SearchTree, VarId};
use tvnep_telemetry::Telemetry;

/// Knapsack-ish instance with enough fractional LPs to force real branching.
fn branching_model() -> MipModel {
    let values = [41.0, 50.0, 49.0, 59.0, 45.0, 47.0, 42.0, 44.0, 52.0];
    let weights = [7.0, 8.0, 9.0, 10.0, 6.0, 7.0, 8.0, 5.0, 9.0];
    let mut m = MipModel::maximize();
    let vars: Vec<VarId> = values.iter().map(|&v| m.add_binary(v)).collect();
    let terms: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
    m.add_le(&terms, 25.0);
    m
}

fn check_structure(tree: &SearchTree, nodes_metric: u64) {
    let nodes = tree.nodes();
    assert_eq!(nodes.len() as u64, nodes_metric, "tree len vs mip.nodes");
    // Ids are exactly 1..=N (each counted node recorded once).
    for (i, n) in nodes.iter().enumerate() {
        assert_eq!(n.id, i as u64 + 1, "ids must be dense and 1-based");
        if let Some(p) = n.parent {
            assert!(p < n.id, "parent must be counted before the child");
            assert!(n.branch.is_some(), "non-root links carry a branch");
        } else {
            assert!(n.branch.is_none(), "root-style nodes carry no branch");
        }
    }
    // Every parent link points at a node that actually branched.
    for n in &nodes {
        if let Some(p) = n.parent {
            let parent = &nodes[(p - 1) as usize];
            assert_eq!(
                parent.outcome,
                NodeOutcome::Branched,
                "parent #{p} of #{} must have branched",
                n.id
            );
            assert_eq!(parent.depth + 1, n.depth);
        }
    }
    // DOT export has one vertex per record and one edge per parent link.
    let dot = tree.to_dot();
    assert_eq!(dot.matches("[label=\"#").count(), nodes.len());
    let edges = nodes.iter().filter(|n| n.parent.is_some()).count();
    assert_eq!(dot.matches(" -> ").count(), edges);
}

#[test]
fn sequential_tree_len_equals_nodes_metric() {
    let m = branching_model();
    let tree = Arc::new(SearchTree::new());
    let telemetry = Telemetry::metrics_only();
    let r = solve_with(
        &m,
        &MipOptions {
            tree: Some(tree.clone()),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    assert_eq!(r.status, MipStatus::Optimal);
    assert!(r.nodes > 1, "instance should branch");
    assert_eq!(telemetry.snapshot().counter("mip.nodes"), r.nodes);
    check_structure(&tree, r.nodes);
}

#[test]
fn parallel_tree_len_equals_nodes_metric() {
    for &threads in &[2usize, 4] {
        let m = branching_model();
        let tree = Arc::new(SearchTree::new());
        let telemetry = Telemetry::metrics_only();
        let r = solve_with(
            &m,
            &MipOptions {
                threads,
                tree: Some(tree.clone()),
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        );
        assert_eq!(r.status, MipStatus::Optimal, "threads {threads}");
        assert_eq!(telemetry.snapshot().counter("mip.nodes"), r.nodes);
        check_structure(&tree, r.nodes);
    }
}

#[test]
fn spans_cover_solve_and_every_node() {
    let m = branching_model();
    let telemetry = Telemetry::with_spans();
    let r = solve_with(
        &m,
        &MipOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    let spans = telemetry.spans();
    let solve_spans = spans.iter().filter(|s| s.name == "mip.solve").count();
    assert_eq!(solve_spans, 1);
    let node_spans: Vec<_> = spans.iter().filter(|s| s.name == "mip.node").collect();
    assert_eq!(node_spans.len() as u64, r.nodes);
    // Node spans nest inside the solve span.
    let solve = spans.iter().find(|s| s.name == "mip.solve").unwrap();
    for s in &node_spans {
        assert!(s.start >= solve.start);
        assert!(s.start + s.dur <= solve.start + solve.dur);
    }
    // LP kernel spans from the warm-started engine are present too.
    assert!(spans.iter().any(|s| s.name.starts_with("lp.")));
    // The one worker runs inline on the caller's handle: every span is on
    // tid 0, and there is no worker lane or parallel-efficiency report.
    assert!(spans.iter().all(|s| s.tid == 0));
    assert!(!spans.iter().any(|s| s.name == "mip.worker"));
    assert_eq!(telemetry.snapshot().gauge("par.workers"), None);
}

#[test]
fn parallel_spans_merge_with_worker_tids() {
    let m = branching_model();
    let telemetry = Telemetry::with_spans();
    let r = solve_with(
        &m,
        &MipOptions {
            threads: 2,
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    let spans = telemetry.spans();
    let node_spans: Vec<_> = spans.iter().filter(|s| s.name == "mip.node").collect();
    assert_eq!(node_spans.len() as u64, r.nodes);
    // Every node span came from a worker handle (tid >= 1), and the driver's
    // own solve span keeps tid 0.
    assert!(node_spans.iter().all(|s| s.tid >= 1));
    let solve = spans.iter().find(|s| s.name == "mip.solve").unwrap();
    assert_eq!(solve.tid, 0);
}
