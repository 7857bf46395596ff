//! Branch-and-bound solver for [`MipModel`]s.
//!
//! Classic LP-based branch and bound: best-bound node selection with
//! depth-first plunging, most-fractional or pseudocost branching, a rounding
//! heuristic for quick incumbents, and warm-started LP re-solves. A dive
//! child re-solves from the basis its parent left in the [`Simplex`]; the
//! sibling that waits in the best-bound queue carries a copy of that basis
//! and re-solves from it when popped. Reports the same quantities the
//! paper's Gurobi runs report: incumbent objective, best bound, relative
//! *objective gap* and node count.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::model::{MipModel, Sense, VarKind};
use crate::progress::{IncumbentSource, ProgressRecorder};
use crate::tree::{NodeOutcome, SearchTree, TreeNode};
use tvnep_lp::{Basis, LpStatus, Params, Simplex, SolveStats};
use tvnep_telemetry::{Event, EventKind, FlightHandle, Telemetry};

/// Termination status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proven optimal (within the relative gap tolerance).
    Optimal,
    /// A limit was hit; an incumbent exists but is not proven optimal.
    Feasible,
    /// The problem has no feasible point.
    Infeasible,
    /// The relaxation is unbounded in the optimization direction.
    Unbounded,
    /// A limit was hit before any feasible point was found.
    NoSolution,
    /// The tree is exhausted and nothing beats the caller-provided cutoff:
    /// the cutoff solution is optimal (within the pruning tolerance).
    NoBetterThanCutoff,
    /// Repeated numerical failures in the LP engine.
    Numerical,
}

impl MipStatus {
    /// Stable lower-case name, used in telemetry events and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            MipStatus::Optimal => "optimal",
            MipStatus::Feasible => "feasible",
            MipStatus::Infeasible => "infeasible",
            MipStatus::Unbounded => "unbounded",
            MipStatus::NoSolution => "no_solution",
            MipStatus::NoBetterThanCutoff => "no_better_than_cutoff",
            MipStatus::Numerical => "numerical",
        }
    }
}

/// Branching-variable selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branching {
    /// Pick the integer variable whose fractional part is closest to 1/2.
    MostFractional,
    /// Pseudocost branching with most-fractional fallback until initialized.
    Pseudocost,
}

/// A progress report handed to the [`ProgressFn`] callback every
/// [`MipOptions::log_every`] nodes. All objective-like values are in the
/// user's sense.
#[derive(Debug, Clone)]
pub struct MipProgress {
    /// Nodes processed so far.
    pub nodes: u64,
    /// True open-node count: the best-bound queue plus every in-flight dive
    /// node (the sequential solver's current dive counts as one; with N
    /// worker threads all active dives are included).
    pub open: usize,
    /// Incumbent objective, if any.
    pub incumbent: Option<f64>,
    /// Current global dual bound.
    pub bound: f64,
    /// Wall-clock time since the solve started.
    pub elapsed: Duration,
    /// Total simplex iterations so far. With `threads > 1` this is the
    /// reporting worker's own LP engine (per-worker counters are merged into
    /// the final [`MipResult`] and telemetry, not into progress reports).
    pub lp_iterations: usize,
    /// Cumulative LP engine counters (same per-worker caveat as
    /// [`lp_iterations`](Self::lp_iterations)).
    pub lp_stats: SolveStats,
}

/// Pluggable progress sink; see [`MipOptions::progress`].
pub type ProgressFn = Arc<dyn Fn(&MipProgress) + Send + Sync>;

/// Solver options.
#[derive(Clone)]
pub struct MipOptions {
    /// Wall-clock limit for the whole solve.
    pub time_limit: Option<Duration>,
    /// Maximum number of branch-and-bound nodes.
    pub node_limit: Option<u64>,
    /// Terminate when the relative gap drops to this value.
    pub rel_gap: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Branching rule.
    pub branching: Branching,
    /// Report progress every N nodes (None = silent). Reports go to
    /// [`progress`](Self::progress) when set, else to a default sink that
    /// prints one line to stderr (the historical behavior).
    pub log_every: Option<u64>,
    /// Progress callback invoked every [`log_every`](Self::log_every) nodes.
    pub progress: Option<ProgressFn>,
    /// Observability sink shared with the LP engine; disabled by default.
    pub telemetry: Telemetry,
    /// LP engine parameters.
    pub lp_params: Option<Params>,
    /// Objective value (user sense) of a known feasible solution, e.g. from
    /// a heuristic. Activates bound pruning immediately: only strictly
    /// better solutions are searched for. When the tree is exhausted without
    /// finding one, the status is [`MipStatus::NoBetterThanCutoff`].
    pub cutoff: Option<f64>,
    /// Worker threads for the branch-and-bound search. `1` (the default)
    /// runs the exact sequential code path; `0` means "use all available
    /// parallelism". Each worker owns its own warm-started [`Simplex`];
    /// nodes are drawn from a shared best-bound pool and every worker prunes
    /// against the shared incumbent immediately.
    pub threads: usize,
    /// Search-tree capture sink: when set, every counted node is recorded
    /// with parent link, branch decision, LP bound, depth and prune reason
    /// (both drivers; the record count always equals the `mip.nodes`
    /// metric). Export via [`SearchTree::to_dot`]/[`SearchTree::to_json`].
    pub tree: Option<Arc<SearchTree>>,
    /// Anytime convergence recorder: when set, every incumbent improvement
    /// and global dual-bound tightening is appended with provenance (node
    /// id, depth, thread, source). The JSONL export is deterministic at
    /// `threads = 1`; see [`ProgressRecorder`]. Disabled (one pointer check
    /// per potential event) by default.
    pub progress_events: Option<ProgressRecorder>,
    /// Black-box flight-recorder handle: when set, both drivers record node
    /// open/close, incumbent, and global-bound events into per-thread rings
    /// (workers via `for_worker(w + 1)`), feed the stall watchdog's progress
    /// pulse, and keep the recorder's incumbent/bound registers current so a
    /// crash dump carries the final search state. `None` (one pointer check
    /// per site) by default.
    pub blackbox: Option<FlightHandle>,
}

impl std::fmt::Debug for MipOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MipOptions")
            .field("time_limit", &self.time_limit)
            .field("node_limit", &self.node_limit)
            .field("rel_gap", &self.rel_gap)
            .field("int_tol", &self.int_tol)
            .field("branching", &self.branching)
            .field("log_every", &self.log_every)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .field("telemetry", &self.telemetry)
            .field("lp_params", &self.lp_params)
            .field("cutoff", &self.cutoff)
            .field("threads", &self.threads)
            .field("tree", &self.tree.as_ref().map(|t| t.len()))
            .field("progress_events", &self.progress_events)
            .field("blackbox", &self.blackbox)
            .finish()
    }
}

impl Default for MipOptions {
    fn default() -> Self {
        Self {
            time_limit: None,
            node_limit: None,
            rel_gap: tvnep_model::tol::REL_GAP,
            int_tol: tvnep_model::tol::INT_TOL,
            branching: Branching::Pseudocost,
            log_every: None,
            progress: None,
            telemetry: Telemetry::disabled(),
            lp_params: None,
            cutoff: None,
            threads: 1,
            tree: None,
            progress_events: None,
            blackbox: None,
        }
    }
}

impl MipOptions {
    /// Options with only a time limit set.
    pub fn with_time_limit(limit: Duration) -> Self {
        Self {
            time_limit: Some(limit),
            ..Self::default()
        }
    }

    /// Resolves [`threads`](Self::threads): `0` maps to the machine's
    /// available parallelism, everything else is taken literally.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            t => t,
        }
    }
}

/// Result of a branch-and-bound run. Objective/bound are in the user's sense.
#[derive(Debug, Clone)]
pub struct MipResult {
    /// Termination status.
    pub status: MipStatus,
    /// Incumbent objective, if any feasible point was found.
    pub objective: Option<f64>,
    /// Best proven bound on the optimum (user sense: upper bound when
    /// maximizing, lower bound when minimizing).
    pub best_bound: f64,
    /// Incumbent point, if any.
    pub x: Option<Vec<f64>>,
    /// Relative objective gap `|obj − bound| / |obj|`; `None` when no
    /// incumbent exists (the paper plots this case as ∞).
    pub gap: Option<f64>,
    /// Nodes processed.
    pub nodes: u64,
    /// Total simplex iterations.
    pub lp_iterations: usize,
    /// Wall-clock time spent.
    pub runtime: Duration,
}

impl MipResult {
    /// Gap with `None` mapped to infinity (paper convention for "no solution
    /// found within the time limit").
    pub fn gap_or_inf(&self) -> f64 {
        self.gap.unwrap_or(f64::INFINITY)
    }

    /// True if an incumbent exists.
    pub fn has_solution(&self) -> bool {
        self.x.is_some()
    }
}

/// Solves with default options.
pub fn solve(model: &MipModel) -> MipResult {
    solve_with(model, &MipOptions::default())
}

pub(crate) struct Node {
    /// `(lo, up)` for each *integer* variable, in `int_vars` order.
    pub(crate) bounds: Box<[(f64, f64)]>,
    /// LP bound inherited from the parent (minimize sense).
    pub(crate) bound: f64,
    pub(crate) depth: u32,
    pub(crate) seq: u64,
    /// Pseudocost bookkeeping: `(int_var_idx, branched_up, parent_lp_obj,
    /// fractional_part)` of the branching that created this node. Recorded
    /// once the node's own LP solves.
    pub(crate) pending_pseudo: Option<(usize, bool, f64, f64)>,
    /// Search-tree capture: id of the node whose branching created this one
    /// (`None` for the root) and the `(model column, went_up)` decision.
    pub(crate) parent: Option<u64>,
    pub(crate) branch: Option<(usize, bool)>,
    /// The parent's final basis, attached when the node waits in the queue
    /// instead of being dived into; `None` for the root and dive children.
    pub(crate) basis: Option<Basis>,
}

impl Node {
    /// Bytes one open node takes in a pool for a model with `int_vars`
    /// integer variables and `columns` LP columns: the node, its bounds box
    /// and the packed basis a waiting node carries. In-flight dive nodes
    /// are counted at the same size.
    pub(crate) fn pool_bytes(int_vars: usize, columns: usize) -> usize {
        std::mem::size_of::<Node>()
            + int_vars * std::mem::size_of::<(f64, f64)>()
            + Basis::packed_len(columns)
    }
}

// Min-heap on (bound, seq): BinaryHeap is a max-heap, so invert.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

pub(crate) struct PseudoCosts {
    up_sum: Vec<f64>,
    up_count: Vec<u32>,
    down_sum: Vec<f64>,
    down_count: Vec<u32>,
}

impl PseudoCosts {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            up_sum: vec![0.0; n],
            up_count: vec![0; n],
            down_sum: vec![0.0; n],
            down_count: vec![0; n],
        }
    }

    pub(crate) fn record(&mut self, k: usize, up: bool, obj_gain_per_unit: f64) {
        let gain = obj_gain_per_unit.max(0.0);
        if up {
            self.up_sum[k] += gain;
            self.up_count[k] += 1;
        } else {
            self.down_sum[k] += gain;
            self.down_count[k] += 1;
        }
    }

    /// Estimated objective degradation product (standard score).
    pub(crate) fn score(&self, k: usize, frac: f64) -> Option<f64> {
        if self.up_count[k] == 0 || self.down_count[k] == 0 {
            return None;
        }
        let up = self.up_sum[k] / self.up_count[k] as f64;
        let down = self.down_sum[k] / self.down_count[k] as f64;
        let u = up * (1.0 - frac);
        let d = down * frac;
        Some(u.max(1e-6) * d.max(1e-6))
    }
}

/// Iterative rounding dive: from the current (fractional) LP, repeatedly fix
/// the most-integral fractional integer variable to its rounding and
/// re-solve, hoping to land on an integer-feasible point. Bounds mutated
/// here are overwritten by the next node's bound assignment, so no explicit
/// restore is needed.
pub(crate) fn dive_heuristic(
    simplex: &mut Simplex,
    int_vars: &[usize],
    int_tol: f64,
    max_solves: usize,
) -> Option<(f64, Vec<f64>)> {
    for _ in 0..max_solves {
        let sol = simplex.extract(LpStatus::Optimal);
        // Most-integral fractional variable.
        let mut pick: Option<(usize, f64, f64)> = None; // (var, value, dist)
        for &j in int_vars {
            let v = sol.x[j];
            let dist = (v - v.round()).abs();
            if dist > int_tol && pick.is_none_or(|(_, _, d)| dist < d) {
                pick = Some((j, v, dist));
            }
        }
        let Some((j, v, _)) = pick else {
            return Some((sol.objective, sol.x));
        };
        let r = v.round();
        let (lo, up) = simplex.var_bounds(j);
        if r < lo - 1e-9 || r > up + 1e-9 {
            return None;
        }
        simplex.set_var_bounds(j, r, r);
        if simplex.solve_warm() != LpStatus::Optimal {
            return None;
        }
    }
    None
}

/// Solves `model` with `opts`. With `threads > 1` (or `threads = 0` on a
/// multi-core machine) the search runs on the parallel driver; `threads = 1`
/// is the exact sequential code path, preserved bit-for-bit.
pub fn solve_with(model: &MipModel, opts: &MipOptions) -> MipResult {
    let threads = opts.effective_threads();
    if let Some(rec) = &opts.progress_events {
        let maximize = matches!(model.sense(), Sense::Maximize);
        rec.begin(maximize);
        // A caller-provided cutoff is the initial value to beat: record it
        // so the gap timeline starts from the heuristic solution the search
        // is trying to improve on.
        if let Some(c) = opts.cutoff {
            let no_bound = if maximize {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            rec.record_incumbent(c, no_bound, 0, 0, 0, 0, IncumbentSource::Cutoff);
        }
    }
    if opts.telemetry.is_enabled() {
        opts.telemetry.gauge_set("mip.threads", threads as f64);
        opts.telemetry
            .gauge_set("mem.mip.model_bytes", model.memory_bytes() as f64);
    }
    if threads > 1 {
        return crate::parallel::solve_parallel(model, opts, threads);
    }
    solve_sequential(model, opts)
}

fn solve_sequential(model: &MipModel, opts: &MipOptions) -> MipResult {
    let start = Instant::now();
    let sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let lp_min = model.relaxation_min();
    let mut simplex = Simplex::new(&lp_min);
    let telemetry = opts.telemetry.clone();
    simplex.set_telemetry(telemetry.clone());
    let blackbox = opts.blackbox.clone();
    simplex.set_blackbox(blackbox.clone());
    // Busy for the duration of the solve: the stall watchdog only reads a
    // flat progress pulse as a stall while at least one guard is open.
    let _busy = blackbox.as_ref().map(|bb| bb.recorder().busy_guard());
    telemetry.event_with(|| Event::SolveStart { what: "mip".into() });
    let _solve_span = telemetry.span("mip.solve");
    if let Some(p) = &opts.lp_params {
        simplex.set_params(p.clone());
    }
    // The LP engine honors the same wall-clock budget so a single long
    // relaxation cannot blow through the MIP time limit.
    if let Some(tl) = opts.time_limit {
        simplex.set_deadline(Some(start + tl));
    }
    let mut first_lp = true;
    let int_vars: Vec<usize> = model
        .kinds()
        .iter()
        .enumerate()
        .filter(|(_, k)| !matches!(k, VarKind::Continuous))
        .map(|(j, _)| j)
        .collect();
    let root_bounds: Box<[(f64, f64)]> = int_vars
        .iter()
        .map(|&j| (lp_min.var_lower()[j], lp_min.var_upper()[j]))
        .collect();

    let mut pseudo = PseudoCosts::new(int_vars.len());
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    // Node-pool accounting: every node carries a bounds box of
    // `int_vars.len()` pairs and a packed basis, so pool bytes are a pure
    // function of the peak open-node count (the `+ 1` in the tracker is the
    // in-flight dive node, which lives outside the heap).
    let node_bytes = Node::pool_bytes(int_vars.len(), lp_min.num_vars() + lp_min.num_rows());
    let pool_peak = std::cell::Cell::new(0usize);
    let note_pool = |heap: &BinaryHeap<Node>| {
        pool_peak.set(pool_peak.get().max(heap.len() + 1));
    };
    let mut seq: u64 = 0;
    let mut nodes: u64 = 0;
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // minimize sense
                                                       // Cutoff in minimize sense: prune anything not strictly better.
    let cutoff_min: Option<f64> = opts.cutoff.map(|c| sign * c);
    let mut numerical_failures: u32 = 0;

    heap.push(Node {
        bounds: root_bounds,
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq,
        pending_pseudo: None,
        parent: None,
        branch: None,
        basis: None,
    });
    note_pool(&heap);
    seq += 1;

    // Search-tree capture: one record per counted node, bound reported in
    // the user's sense, `None` when the relaxation never produced one.
    let record_node = |id: u64, node: &Node, bound_min: f64, outcome: NodeOutcome| {
        if let Some(bb) = &blackbox {
            bb.record(EventKind::NodeClose, id, outcome.code());
        }
        if let Some(t) = &opts.tree {
            t.record(TreeNode {
                id,
                parent: node.parent,
                depth: node.depth,
                branch: node.branch,
                bound: bound_min.is_finite().then_some(sign * bound_min),
                outcome,
            });
        }
    };

    let finish = |status: MipStatus,
                  incumbent: Option<(f64, Vec<f64>)>,
                  bound_min: f64,
                  nodes: u64,
                  simplex: &Simplex| {
        let (objective, x) = match incumbent {
            Some((obj, x)) => (Some(sign * obj), Some(x)),
            None => (None, None),
        };
        let gap = objective.map(|o| {
            let b = sign * bound_min;
            ((o - b).abs() / o.abs().max(1e-10)).max(0.0)
        });
        let result = MipResult {
            status,
            objective,
            best_bound: sign * bound_min,
            x,
            gap,
            nodes,
            lp_iterations: simplex.iterations(),
            runtime: start.elapsed(),
        };
        // Final-state registers for crash/stall dumps written after the
        // solve returns (or by a panic unwinding through the caller).
        if let Some(bb) = &blackbox {
            bb.recorder().set_bound(result.best_bound);
            if let Some(obj) = result.objective {
                bb.recorder().set_incumbent(obj);
            }
        }
        if telemetry.is_enabled() {
            telemetry.counter_add("mip.nodes", result.nodes);
            telemetry.counter_add("lp.iterations", result.lp_iterations as u64);
            simplex.stats.flush_into(&telemetry);
            simplex.health.flush_into(&telemetry);
            telemetry.gauge_set("mip.best_bound", result.best_bound);
            if let Some(obj) = result.objective {
                telemetry.gauge_set("mip.incumbent_objective", obj);
            }
            telemetry.gauge_set("mip.final_gap", result.gap_or_inf());
            telemetry.gauge_set("mip.runtime_s", result.runtime.as_secs_f64());
            // Structural memory gauges: LP engine scratch (basis inverse +
            // factorization workspaces), peak open-node pool, and — when a
            // search tree is attached — its record store.
            telemetry.gauge_set("mem.lp.simplex_bytes", simplex.memory_bytes() as f64);
            telemetry.gauge_set(
                "mem.mip.node_pool_peak_bytes",
                (pool_peak.get() * node_bytes) as f64,
            );
            if let Some(t) = &opts.tree {
                telemetry.gauge_set("mem.mip.tree_bytes", t.memory_bytes() as f64);
            }
            telemetry.event_with(|| Event::SolveEnd {
                what: "mip".into(),
                status: status.as_str().to_string(),
            });
        }
        result
    };

    // The global dual bound is the min over open-node bounds (lazy: heap
    // contents) and, during a dive, the dive node's own bound.
    let global_bound =
        |heap: &BinaryHeap<Node>, dive: Option<f64>, inc: &Option<(f64, Vec<f64>)>| {
            let mut b = f64::INFINITY;
            if let Some(top) = heap.peek() {
                b = b.min(top.bound);
            }
            if let Some(d) = dive {
                b = b.min(d);
            }
            if b == f64::INFINITY {
                // Tree exhausted: bound equals incumbent (or +inf if none).
                b = inc.as_ref().map_or(f64::INFINITY, |(o, _)| *o);
            }
            b
        };

    let mut unbounded_root = false;
    // The value any new solution must strictly beat (minimize sense).
    let must_beat = |incumbent: &Option<(f64, Vec<f64>)>| -> Option<f64> {
        match (incumbent.as_ref().map(|(o, _)| *o), cutoff_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    };
    // Exactly one BnbNode event per counted node, emitted as soon as the
    // node's relaxation outcome is known.
    let emit_node = |node: u64, depth: u32, bound_min: f64, frac_count: usize| {
        telemetry.event_with(|| Event::BnbNode {
            node,
            depth,
            bound: sign * bound_min,
            frac_count,
        });
    };
    let emit_incumbent = |obj_min: f64,
                          bound_min: f64,
                          nodes: u64,
                          node_id: u64,
                          depth: u32,
                          src: IncumbentSource| {
        if let Some(bb) = &blackbox {
            bb.recorder().set_incumbent(sign * obj_min);
            bb.record(EventKind::Incumbent, node_id, (sign * obj_min).to_bits());
        }
        telemetry.counter_add("mip.incumbents", 1);
        telemetry.event_with(|| {
            let obj = sign * obj_min;
            let b = sign * bound_min;
            Event::Incumbent {
                obj,
                gap: (obj - b).abs() / obj.abs().max(1e-10),
            }
        });
        if let Some(rec) = &opts.progress_events {
            rec.record_incumbent(
                sign * obj_min,
                sign * bound_min,
                nodes,
                node_id,
                depth,
                0,
                src,
            );
        }
    };

    'outer: while let Some(mut node) = heap.pop() {
        // Prune against incumbent/cutoff.
        if let Some(beat) = must_beat(&incumbent) {
            if node.bound >= beat - prune_eps(beat) {
                continue;
            }
        }
        // Re-solve from the parent's basis, not from wherever the last dive
        // left the LP.
        if let Some(basis) = node.basis.take() {
            simplex.load_basis(&basis);
        }

        // Dive from this node until pruned.
        let mut current = node;
        loop {
            // Limits.
            if let Some(tl) = opts.time_limit {
                if start.elapsed() >= tl {
                    let b = global_bound(&heap, Some(current.bound), &incumbent);
                    let status = if incumbent.is_some() {
                        MipStatus::Feasible
                    } else {
                        MipStatus::NoSolution
                    };
                    return finish(status, incumbent, b, nodes, &simplex);
                }
            }
            if let Some(nl) = opts.node_limit {
                if nodes >= nl {
                    let b = global_bound(&heap, Some(current.bound), &incumbent);
                    let status = if incumbent.is_some() {
                        MipStatus::Feasible
                    } else {
                        MipStatus::NoSolution
                    };
                    return finish(status, incumbent, b, nodes, &simplex);
                }
            }

            nodes += 1;
            let node_id = nodes;
            if let Some(bb) = &blackbox {
                bb.pulse().add_nodes(1);
                bb.record(
                    EventKind::NodeOpen,
                    node_id,
                    (sign * current.bound).to_bits(),
                );
            }
            let _node_span = telemetry
                .span("mip.node")
                .arg("node", node_id as f64)
                .arg("depth", current.depth as f64);
            if let Some(every) = opts.log_every {
                if nodes.is_multiple_of(every) {
                    let b = global_bound(&heap, Some(current.bound), &incumbent);
                    let report = MipProgress {
                        nodes,
                        // The current dive node is in flight, not on the
                        // heap: count it so `open` is the true open total.
                        open: heap.len() + 1,
                        incumbent: incumbent.as_ref().map(|(o, _)| sign * o),
                        bound: sign * b,
                        elapsed: start.elapsed(),
                        lp_iterations: simplex.iterations(),
                        lp_stats: simplex.stats,
                    };
                    match &opts.progress {
                        Some(callback) => callback(&report),
                        None => default_progress_sink(&report),
                    }
                }
            }

            // Apply this node's integer bounds and solve the LP.
            for (k, &j) in int_vars.iter().enumerate() {
                let (lo, up) = current.bounds[k];
                simplex.set_var_bounds(j, lo, up);
            }
            let mut status = if first_lp {
                simplex.solve()
            } else {
                simplex.solve_warm()
            };
            first_lp = false;
            if status == LpStatus::TimeLimit {
                emit_node(nodes, current.depth, current.bound, 0);
                record_node(node_id, &current, current.bound, NodeOutcome::TimeLimit);
                let b = global_bound(&heap, Some(current.bound), &incumbent);
                let st = if incumbent.is_some() {
                    MipStatus::Feasible
                } else {
                    MipStatus::NoSolution
                };
                return finish(st, incumbent, b, nodes, &simplex);
            }
            if matches!(status, LpStatus::Numerical | LpStatus::IterationLimit) {
                // Retry once from a fresh basis.
                simplex.reset_basis();
                status = simplex.solve();
                if status == LpStatus::TimeLimit {
                    emit_node(nodes, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::TimeLimit);
                    let b = global_bound(&heap, Some(current.bound), &incumbent);
                    let st = if incumbent.is_some() {
                        MipStatus::Feasible
                    } else {
                        MipStatus::NoSolution
                    };
                    return finish(st, incumbent, b, nodes, &simplex);
                }
                if matches!(status, LpStatus::Numerical | LpStatus::IterationLimit) {
                    numerical_failures += 1;
                    if numerical_failures > 5 {
                        emit_node(nodes, current.depth, current.bound, 0);
                        record_node(node_id, &current, current.bound, NodeOutcome::Numerical);
                        let b = global_bound(&heap, Some(current.bound), &incumbent);
                        return finish(MipStatus::Numerical, incumbent, b, nodes, &simplex);
                    }
                    // Treat the node as unresolved: requeue with its parent
                    // bound so it is revisited later (no pruning done).
                    emit_node(nodes, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::Numerical);
                    current.seq = seq;
                    seq += 1;
                    heap.push(current);
                    note_pool(&heap);
                    break;
                }
            }
            match status {
                LpStatus::Infeasible => {
                    emit_node(nodes, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::Infeasible);
                    break; // prune
                }
                LpStatus::Unbounded => {
                    emit_node(nodes, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::Unbounded);
                    if current.depth == 0 {
                        unbounded_root = true;
                        break 'outer;
                    }
                    // Bounded root cannot have unbounded children; be safe.
                    unbounded_root = true;
                    break 'outer;
                }
                _ => {}
            }
            let sol = simplex.extract(status);
            let lp_obj = sol.objective;
            current.bound = current.bound.max(lp_obj);
            // Global-bound tightening event: the bound is the min over the
            // heap and the in-flight dive, and only moves when a node's LP
            // resolves, so this is the one site where it can tighten.
            if let Some(rec) = &opts.progress_events {
                let b = global_bound(&heap, Some(current.bound), &incumbent);
                rec.offer_bound(sign * b, nodes, node_id, current.depth, 0);
            }
            if let Some(bb) = &blackbox {
                let b = sign * global_bound(&heap, Some(current.bound), &incumbent);
                bb.recorder().set_bound(b);
                bb.record(EventKind::Bound, node_id, b.to_bits());
            }

            // Settle the pseudocost observation for the branching that
            // created this node.
            if let Some((k, is_up, parent_obj, frac)) = current.pending_pseudo.take() {
                let delta = (lp_obj - parent_obj).max(0.0);
                let per_unit = if is_up {
                    delta / (1.0 - frac).max(1e-6)
                } else {
                    delta / frac.max(1e-6)
                };
                pseudo.record(k, is_up, per_unit);
            }

            // Find the branching candidates (also reported in the node's
            // timeline event, so computed before the bound-pruning check).
            let mut frac_vars: Vec<(usize, f64)> = Vec::new(); // (int idx, frac)
            for (k, &j) in int_vars.iter().enumerate() {
                let v = sol.x[j];
                let f = v - v.floor();
                let dist = f.min(1.0 - f);
                if dist > opts.int_tol {
                    frac_vars.push((k, f));
                }
            }
            emit_node(nodes, current.depth, current.bound, frac_vars.len());

            // Prune by bound.
            if let Some(beat) = must_beat(&incumbent) {
                if lp_obj >= beat - prune_eps(beat) {
                    record_node(node_id, &current, current.bound, NodeOutcome::PrunedBound);
                    break;
                }
            }

            if frac_vars.is_empty() {
                record_node(node_id, &current, current.bound, NodeOutcome::Integral);
                // Integer feasible: new incumbent?
                let better =
                    must_beat(&incumbent).is_none_or(|beat| lp_obj < beat - prune_eps(beat));
                if better {
                    incumbent = Some((lp_obj, sol.x.clone()));
                    // Gap-based early stop.
                    let b = global_bound(&heap, None, &incumbent);
                    emit_incumbent(
                        lp_obj,
                        b,
                        nodes,
                        node_id,
                        current.depth,
                        IncumbentSource::IntegralLp,
                    );
                    let gap = (lp_obj - b).abs() / lp_obj.abs().max(1e-10);
                    if gap <= opts.rel_gap {
                        return finish(MipStatus::Optimal, incumbent, b, nodes, &simplex);
                    }
                }
                break; // leaf
            }

            // Primal heuristics: a one-shot rounding test, and (on a
            // schedule) an iterative rounding dive. Any bound mutations the
            // dive makes are overwritten when the next node applies its own
            // bounds.
            if incumbent.is_none() {
                let mut rounded = sol.x.clone();
                for &j in &int_vars {
                    rounded[j] = rounded[j].round();
                }
                if lp_min.max_violation(&rounded) < 1e-7 {
                    let obj = lp_min.eval_objective(&rounded);
                    if must_beat(&incumbent).is_none_or(|b| obj < b - prune_eps(b)) {
                        incumbent = Some((obj, rounded));
                        emit_incumbent(
                            obj,
                            global_bound(&heap, Some(current.bound), &incumbent),
                            nodes,
                            node_id,
                            current.depth,
                            IncumbentSource::Rounding,
                        );
                    }
                }
            }
            let dive_period = if incumbent.is_none() { 10 } else { 200 };
            if nodes % dive_period == 1 {
                let budget = int_vars.len() + 10;
                if let Some((obj, x)) =
                    dive_heuristic(&mut simplex, &int_vars, opts.int_tol, budget)
                {
                    let better = must_beat(&incumbent).is_none_or(|b| obj < b - prune_eps(b));
                    if better && model.max_integrality_violation(&x) <= opts.int_tol * 10.0 {
                        incumbent = Some((obj, x));
                        let b = global_bound(&heap, Some(current.bound), &incumbent);
                        emit_incumbent(
                            obj,
                            b,
                            nodes,
                            node_id,
                            current.depth,
                            IncumbentSource::Dive,
                        );
                        let io = incumbent.as_ref().map(|(o, _)| *o).expect("just set");
                        let gap = (io - b).abs() / io.abs().max(1e-10);
                        if gap <= opts.rel_gap {
                            record_node(node_id, &current, current.bound, NodeOutcome::PrunedBound);
                            return finish(MipStatus::Optimal, incumbent, b, nodes, &simplex);
                        }
                    }
                }
                // Restore this node's bounds and re-solve so branching below
                // uses the node's own relaxation. The dive left the basis
                // near-optimal, so this is cheap.
                for (k2, &j2) in int_vars.iter().enumerate() {
                    let (lo2, up2) = current.bounds[k2];
                    simplex.set_var_bounds(j2, lo2, up2);
                }
                if simplex.solve_warm() != LpStatus::Optimal {
                    // Should not happen (this exact LP solved above); requeue
                    // conservatively.
                    record_node(node_id, &current, current.bound, NodeOutcome::Numerical);
                    current.seq = seq;
                    seq += 1;
                    heap.push(current);
                    note_pool(&heap);
                    break;
                }
            }

            // Select branching variable.
            let (bk, bfrac) = match opts.branching {
                Branching::MostFractional => most_fractional(&frac_vars),
                Branching::Pseudocost => {
                    let mut best: Option<(usize, f64, f64)> = None; // (k, frac, score)
                    let mut all_scored = true;
                    for &(k, f) in &frac_vars {
                        match pseudo.score(k, f) {
                            Some(s) => {
                                if best.is_none_or(|(_, _, bs)| s > bs) {
                                    best = Some((k, f, s));
                                }
                            }
                            None => {
                                all_scored = false;
                            }
                        }
                    }
                    if all_scored {
                        let (k, f, _) = best.expect("nonempty frac_vars");
                        (k, f)
                    } else {
                        // Not all initialized: fall back to most fractional to
                        // gather pseudocost observations broadly.
                        most_fractional(&frac_vars)
                    }
                }
            };
            let j = int_vars[bk];
            let xval = sol.x[j];
            let (lo, up) = current.bounds[bk];
            record_node(node_id, &current, current.bound, NodeOutcome::Branched);

            // Children: down (x <= floor) and up (x >= ceil).
            let mut down_bounds = current.bounds.clone();
            down_bounds[bk] = (lo, xval.floor());
            let mut up_bounds = current.bounds.clone();
            up_bounds[bk] = (xval.ceil(), up);
            let down = Node {
                bounds: down_bounds,
                bound: lp_obj,
                depth: current.depth + 1,
                seq: {
                    seq += 1;
                    seq
                },
                pending_pseudo: Some((bk, false, lp_obj, bfrac)),
                parent: Some(node_id),
                branch: Some((j, false)),
                basis: None,
            };
            let up_node = Node {
                bounds: up_bounds,
                bound: lp_obj,
                depth: current.depth + 1,
                seq: {
                    seq += 1;
                    seq
                },
                pending_pseudo: Some((bk, true, lp_obj, bfrac)),
                parent: Some(node_id),
                branch: Some((j, true)),
                basis: None,
            };

            // Dive into the child on the nearer side of the fraction; the
            // sibling joins the best-bound queue with this node's basis.
            let (dive_node, mut other) = if bfrac < 0.5 {
                (down, up_node)
            } else {
                (up_node, down)
            };
            other.basis = Some(simplex.save_basis());
            heap.push(other);
            note_pool(&heap);
            current = dive_node;
        }
        // nothing: continue outer loop
    }

    if unbounded_root {
        return finish(
            MipStatus::Unbounded,
            None,
            f64::NEG_INFINITY,
            nodes,
            &simplex,
        );
    }

    // Tree exhausted.
    match (&incumbent, cutoff_min) {
        (Some(_), _) => {
            let b = incumbent.as_ref().map(|(o, _)| *o).unwrap();
            finish(MipStatus::Optimal, incumbent, b, nodes, &simplex)
        }
        (None, Some(c)) => {
            // Nothing strictly better than the cutoff exists; the caller's
            // heuristic solution is optimal.
            finish(MipStatus::NoBetterThanCutoff, None, c, nodes, &simplex)
        }
        (None, None) => finish(MipStatus::Infeasible, None, f64::INFINITY, nodes, &simplex),
    }
}

/// The historical `log_every` behavior: one summary line per report on
/// stderr. Installed when no [`MipOptions::progress`] callback is set.
pub(crate) fn default_progress_sink(p: &MipProgress) {
    eprintln!(
        "[mip] node {} open {} inc {:?} bound {:.6} t {:?} lp_it {} {:?}",
        p.nodes, p.open, p.incumbent, p.bound, p.elapsed, p.lp_iterations, p.lp_stats,
    );
}

pub(crate) fn most_fractional(frac_vars: &[(usize, f64)]) -> (usize, f64) {
    let mut best = frac_vars[0];
    let mut best_dist = -1.0;
    for &(k, f) in frac_vars {
        let dist = f.min(1.0 - f);
        if dist > best_dist {
            best_dist = dist;
            best = (k, f);
        }
    }
    best
}

pub(crate) fn prune_eps(incumbent: f64) -> f64 {
    1e-9 * incumbent.abs().max(1.0)
}
