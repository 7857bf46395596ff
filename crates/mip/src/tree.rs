//! Branch-and-bound search-tree capture: one record per *counted* node
//! (exactly the nodes behind the `mip.nodes` metric), with parent link,
//! branch decision, LP bound, depth, and how the node was resolved.
//!
//! The tree is attached via [`MipOptions::tree`](crate::MipOptions) as an
//! `Arc<SearchTree>`; every worker of the driver records into it at every
//! thread count (the store is internally locked, and node ids come from the
//! same atomic counter as the metric, so DOT node counts always equal
//! `mip.nodes`). Export as Graphviz DOT ([`SearchTree::to_dot`]) or JSON
//! ([`SearchTree::to_json`]).

use std::sync::Mutex;

use tvnep_telemetry::Json;

/// How a counted node was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutcome {
    /// Fractional LP optimum; two children were created.
    Branched,
    /// LP optimum was integral (incumbent candidate or dominated leaf).
    Integral,
    /// LP bound could not beat the incumbent/cutoff.
    PrunedBound,
    /// LP relaxation infeasible.
    Infeasible,
    /// LP relaxation unbounded (aborts the whole solve).
    Unbounded,
    /// LP trouble: the node was re-queued for a later retry (the retry is
    /// counted again and appears as a separate record with the same parent
    /// and branch), or the solve gave up on repeated failures.
    Numerical,
    /// Deadline hit while the node was being processed.
    TimeLimit,
}

impl NodeOutcome {
    /// Stable lower-case name used in DOT/JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeOutcome::Branched => "branched",
            NodeOutcome::Integral => "integral",
            NodeOutcome::PrunedBound => "pruned_bound",
            NodeOutcome::Infeasible => "infeasible",
            NodeOutcome::Unbounded => "unbounded",
            NodeOutcome::Numerical => "numerical",
            NodeOutcome::TimeLimit => "time_limit",
        }
    }

    /// Stable numeric code used as the `b` payload of black-box
    /// `node_close` events (see `tvnep_telemetry::blackbox::EventKind`).
    pub fn code(self) -> u64 {
        match self {
            NodeOutcome::Branched => 0,
            NodeOutcome::PrunedBound => 1,
            NodeOutcome::Infeasible => 2,
            NodeOutcome::Integral => 3,
            NodeOutcome::TimeLimit => 4,
            NodeOutcome::Numerical => 5,
            NodeOutcome::Unbounded => 6,
        }
    }
}

/// One counted branch-and-bound node.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// 1-based node id (the value of the node counter when it was counted).
    pub id: u64,
    /// Id of the node whose branching created this one; `None` for the root
    /// (and for numerical re-queues, which re-enter the heap parentless).
    pub parent: Option<u64>,
    /// Depth in the tree (root = 0).
    pub depth: u32,
    /// The branch that created this node: `(column, went_up)` — `false`
    /// means the down-child (`x_j ≤ ⌊v⌋`), `true` the up-child.
    pub branch: Option<(usize, bool)>,
    /// LP relaxation bound at the node (solver sense), when it was solved.
    pub bound: Option<f64>,
    /// How the node was resolved.
    pub outcome: NodeOutcome,
}

/// Thread-safe append-only store of counted nodes.
#[derive(Debug, Default)]
pub struct SearchTree {
    nodes: Mutex<Vec<TreeNode>>,
}

impl SearchTree {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one node record.
    pub fn record(&self, node: TreeNode) {
        self.nodes.lock().unwrap().push(node);
    }

    /// A copy of all records so far, sorted by node id (parallel workers
    /// append in completion order).
    pub fn nodes(&self) -> Vec<TreeNode> {
        let mut out = self.nodes.lock().unwrap().clone();
        out.sort_by_key(|n| n.id);
        out
    }

    /// Number of recorded nodes; equals the `mip.nodes` metric of the solve.
    pub fn len(&self) -> usize {
        self.nodes.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.lock().unwrap().is_empty()
    }

    /// Heap bytes held by the node store (capacity, not length). Exported as
    /// the `mem.mip.tree_bytes` gauge when a tree is attached to the solve.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.lock().unwrap().capacity() * std::mem::size_of::<TreeNode>()
    }

    /// Graphviz DOT rendering: one `nID` vertex per counted node (label:
    /// id, branch, bound, outcome) and one edge per parent link.
    pub fn to_dot(&self) -> String {
        let nodes = self.nodes();
        let mut out = String::from("digraph search_tree {\n");
        out.push_str("  node [shape=box, fontsize=10];\n");
        for n in &nodes {
            let branch = match n.branch {
                Some((col, up)) => {
                    format!("\\nx{col} {} {}", if up { "≥" } else { "≤" }, "branch")
                }
                None => String::new(),
            };
            let bound = match n.bound {
                Some(b) => format!("\\nbound {b:.6}"),
                None => String::new(),
            };
            let fill = match n.outcome {
                NodeOutcome::Integral => ", style=filled, fillcolor=palegreen",
                NodeOutcome::Infeasible | NodeOutcome::PrunedBound => {
                    ", style=filled, fillcolor=lightgray"
                }
                NodeOutcome::Numerical | NodeOutcome::TimeLimit | NodeOutcome::Unbounded => {
                    ", style=filled, fillcolor=lightsalmon"
                }
                NodeOutcome::Branched => "",
            };
            out.push_str(&format!(
                "  n{} [label=\"#{} d{}{}{}\\n{}\"{}];\n",
                n.id,
                n.id,
                n.depth,
                branch,
                bound,
                n.outcome.as_str(),
                fill
            ));
        }
        for n in &nodes {
            if let Some(p) = n.parent {
                let label = match n.branch {
                    Some((col, up)) => format!("x{col}{}", if up { "↑" } else { "↓" }),
                    None => String::new(),
                };
                out.push_str(&format!("  n{p} -> n{} [label=\"{label}\"];\n", n.id));
            }
        }
        out.push_str("}\n");
        out
    }

    /// JSON rendering: `{"nodes": [{id, parent?, depth, branch?, bound?,
    /// outcome}, ...]}`, parseable by the in-repo [`Json`] parser.
    pub fn to_json(&self) -> Json {
        let nodes: Vec<Json> = self
            .nodes()
            .iter()
            .map(|n| {
                let mut fields = vec![("id".to_string(), Json::from(n.id))];
                if let Some(p) = n.parent {
                    fields.push(("parent".into(), Json::from(p)));
                }
                fields.push(("depth".into(), Json::from(n.depth as u64)));
                if let Some((col, up)) = n.branch {
                    fields.push((
                        "branch".into(),
                        Json::Obj(vec![
                            ("var".into(), Json::from(col)),
                            ("up".into(), Json::from(up)),
                        ]),
                    ));
                }
                if let Some(b) = n.bound {
                    fields.push(("bound".into(), Json::from(b)));
                }
                fields.push(("outcome".into(), Json::from(n.outcome.as_str())));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![("nodes".to_string(), Json::Arr(nodes))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SearchTree {
        let t = SearchTree::new();
        t.record(TreeNode {
            id: 1,
            parent: None,
            depth: 0,
            branch: None,
            bound: Some(3.5),
            outcome: NodeOutcome::Branched,
        });
        // Recorded out of id order, as parallel workers would.
        t.record(TreeNode {
            id: 3,
            parent: Some(1),
            depth: 1,
            branch: Some((2, true)),
            bound: None,
            outcome: NodeOutcome::Infeasible,
        });
        t.record(TreeNode {
            id: 2,
            parent: Some(1),
            depth: 1,
            branch: Some((2, false)),
            bound: Some(3.0),
            outcome: NodeOutcome::Integral,
        });
        t
    }

    #[test]
    fn nodes_sorted_by_id() {
        let t = sample();
        let ids: Vec<u64> = t.nodes().iter().map(|n| n.id).collect();
        assert_eq!(ids, [1, 2, 3]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn dot_has_one_vertex_per_node_and_edges() {
        let dot = sample().to_dot();
        assert_eq!(dot.matches("[label=\"#").count(), 3);
        assert!(dot.contains("n1 -> n2"));
        assert!(dot.contains("n1 -> n3"));
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn json_round_trips() {
        let text = sample().to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let nodes = parsed.get("nodes").unwrap().as_array().unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].get("outcome").unwrap().as_str(), Some("branched"));
        assert_eq!(nodes[1].get("parent").unwrap().as_u64(), Some(1));
        let branch = nodes[2].get("branch").unwrap();
        assert_eq!(branch.get("var").unwrap().as_usize(), Some(2));
        assert_eq!(branch.get("up").unwrap().as_bool(), Some(true));
    }
}
