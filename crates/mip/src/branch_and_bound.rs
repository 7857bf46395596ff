//! Branch-and-bound solver for [`MipModel`]s: options, results, and the
//! search's building blocks.
//!
//! Classic LP-based branch and bound: best-bound node selection with
//! depth-first plunging, pseudocost branching (an unobserved direction takes
//! the mean of the observed ones), reduced-cost fixing against the value to
//! beat, and warm-started LP re-solves. A dive child re-solves from the
//! basis its parent left in the worker's [`Simplex`](tvnep_lp::Simplex);
//! the sibling that waits in the best-bound pool carries a copy of that
//! basis and re-solves from it when popped. The search has no primal
//! heuristic of its own: an incumbent is a node whose LP optimum is
//! integral, and a caller with a heuristic solution passes its objective as
//! [`MipOptions::cutoff`]. Every counted node therefore costs one LP solve,
//! plus one for a numerical retry. The one driver that runs the search, at
//! every thread count, is in `parallel.rs`. Reports the same quantities the
//! paper's Gurobi runs report: incumbent objective, best bound, relative
//! *objective gap* and node count.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::model::{MipModel, Sense};
use crate::progress::{IncumbentSource, ProgressRecorder};
use crate::tree::SearchTree;
use tvnep_lp::Basis;
use tvnep_telemetry::{FlightHandle, Telemetry};

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

/// A progress report handed to the [`ProgressFn`] callback every
/// [`MipOptions::log_every`] nodes. All objective-like values are in the
/// user's sense.
#[derive(Debug, Clone)]
pub struct MipProgress {
    /// Nodes processed so far.
    pub nodes: u64,
    /// True open-node count: the best-bound pool plus every worker's
    /// in-flight dive node (one per worker that is diving).
    pub open: usize,
    /// Incumbent objective, if any.
    pub incumbent: Option<f64>,
    /// Current global dual bound.
    pub bound: f64,
    /// Wall-clock time since the solve started.
    pub elapsed: Duration,
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
    /// Report progress every N nodes to the [`progress`](Self::progress)
    /// callback, which it needs: without one, nothing is reported.
    pub log_every: Option<u64>,
    /// Progress callback invoked every [`log_every`](Self::log_every) nodes.
    pub progress: Option<ProgressFn>,
    /// Observability sink shared with the LP engine; disabled by default.
    pub telemetry: Telemetry,
    /// Objective value (user sense) of a known feasible solution, e.g. from
    /// a heuristic. Activates bound pruning immediately: only strictly
    /// better solutions are searched for. When the tree is exhausted without
    /// finding one, the status is [`MipStatus::NoBetterThanCutoff`].
    pub cutoff: Option<f64>,
    /// Worker threads for the branch-and-bound search; `0` means "use all
    /// available parallelism". Each worker owns its own warm-started
    /// [`Simplex`](tvnep_lp::Simplex); nodes are drawn from a shared best-bound pool and every
    /// worker prunes against the shared incumbent immediately. `1` (the
    /// default) runs the one worker inline on the caller's thread, where the
    /// search has a total order and is bit-for-bit deterministic.
    pub threads: usize,
    /// Search-tree capture sink: when set, every counted node is recorded
    /// with parent link, branch decision, LP bound, depth and prune reason
    /// (the record count always equals the `mip.nodes` metric). Export via
    /// [`SearchTree::to_dot`]/[`SearchTree::to_json`].
    pub tree: Option<Arc<SearchTree>>,
    /// Anytime convergence recorder: when set, every incumbent improvement
    /// and global dual-bound tightening is appended with provenance (node
    /// id, depth, thread, source). The JSONL export is deterministic at
    /// `threads = 1`; see [`ProgressRecorder`]. Disabled (one pointer check
    /// per potential event) by default.
    pub progress_events: Option<ProgressRecorder>,
    /// Black-box flight-recorder handle: when set, the search records node
    /// open/close, incumbent, and global-bound events (the bound clamped to
    /// the incumbent or cutoff, as in the progress stream), feeds the stall
    /// watchdog's progress pulse, and keeps the recorder's incumbent/bound
    /// registers current so a crash dump carries the final search state. The
    /// events go to this handle's ring at `threads = 1` and to one ring per
    /// worker (`for_worker(w + 1)`) otherwise. `None` (one pointer check per
    /// site) by default.
    pub blackbox: Option<FlightHandle>,
}

impl std::fmt::Debug for MipOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MipOptions")
            .field("time_limit", &self.time_limit)
            .field("node_limit", &self.node_limit)
            .field("log_every", &self.log_every)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .field("telemetry", &self.telemetry)
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
            log_every: None,
            progress: None,
            telemetry: Telemetry::disabled(),
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
    /// Total simplex iterations, every worker's primal and dual ones.
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

    /// Settles the observation a node's branching left pending
    /// ([`Node::pending_pseudo`]) once the node's own LP objective is known.
    pub(crate) fn settle(&mut self, pending: Option<(usize, bool, f64, f64)>, lp_obj: f64) {
        let Some((k, up, parent_obj, frac)) = pending else {
            return;
        };
        let delta = (lp_obj - parent_obj).max(0.0);
        let per_unit = if up {
            delta / (1.0 - frac).max(1e-6)
        } else {
            delta / frac.max(1e-6)
        };
        let gain = per_unit.max(0.0);
        if up {
            self.up_sum[k] += gain;
            self.up_count[k] += 1;
        } else {
            self.down_sum[k] += gain;
            self.down_count[k] += 1;
        }
    }

    /// Mean of the per-variable average pseudocosts over the variables
    /// observed in one direction; `None` while no variable is.
    fn mean(sum: &[f64], count: &[u32]) -> Option<f64> {
        let (total, observed) = sum
            .iter()
            .zip(count)
            .filter(|&(_, &c)| c > 0)
            .fold((0.0, 0u32), |(t, n), (&s, &c)| (t + s / c as f64, n + 1));
        (observed > 0).then(|| total / observed as f64)
    }

    /// Estimated objective degradation product (standard score) of branching
    /// on `k` at fractional part `frac`; a direction in which `k` was never
    /// observed takes that direction's mean.
    fn score(&self, k: usize, frac: f64, up_mean: f64, down_mean: f64) -> f64 {
        let avg = |sum: &[f64], count: &[u32], mean: f64| match count[k] {
            0 => mean,
            c => sum[k] / c as f64,
        };
        let u = avg(&self.up_sum, &self.up_count, up_mean) * (1.0 - frac);
        let d = avg(&self.down_sum, &self.down_count, down_mean) * frac;
        u.max(1e-6) * d.max(1e-6)
    }

    /// The branching candidate `(int idx, frac)` among the non-empty
    /// fractional `frac_vars`: the best pseudocost score, with unobserved
    /// directions mean-initialized (Achterberg, Koch & Martin, "Branching
    /// rules revisited", 2005). While some direction has no observation at
    /// all, the most fractional candidate, which gathers observations
    /// broadly.
    pub(crate) fn select(&self, frac_vars: &[(usize, f64)]) -> (usize, f64) {
        let (Some(up_mean), Some(down_mean)) = (
            Self::mean(&self.up_sum, &self.up_count),
            Self::mean(&self.down_sum, &self.down_count),
        ) else {
            return most_fractional(frac_vars);
        };
        let mut best = (frac_vars[0], f64::NEG_INFINITY);
        for &(k, f) in frac_vars {
            let s = self.score(k, f, up_mean, down_mean);
            if s > best.1 {
                best = ((k, f), s);
            }
        }
        best.0
    }
}

/// Solves `model` with `opts` on the node-pool driver, with
/// [`MipOptions::effective_threads`] workers. At one thread the worker runs
/// inline on the caller's thread and the result is bit-for-bit
/// reproducible.
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
    crate::parallel::solve(model, opts, threads)
}

fn most_fractional(frac_vars: &[(usize, f64)]) -> (usize, f64) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidate 1 was never branched on, so its score borrows the mean of
    /// the observed pseudocosts (here half of candidate 0's, because
    /// candidate 2 degrades nothing); candidate 0 then scores higher even
    /// though candidate 1 sits at exactly 1/2.
    #[test]
    fn unobserved_candidates_take_the_mean_pseudocost() {
        let mut pseudo = PseudoCosts::new(3);
        for up in [false, true] {
            pseudo.settle(Some((0, up, 0.0, 0.5)), 4.0);
            pseudo.settle(Some((2, up, 0.0, 0.5)), 0.0);
        }
        let frac_vars = [(0, 0.3), (1, 0.5)];
        assert_eq!(most_fractional(&frac_vars), (1, 0.5));
        assert_eq!(pseudo.select(&frac_vars), (0, 0.3));
    }

    #[test]
    fn most_fractional_until_both_directions_are_observed() {
        let mut pseudo = PseudoCosts::new(2);
        pseudo.settle(Some((0, true, 0.0, 0.5)), 4.0);
        assert_eq!(pseudo.select(&[(0, 0.3), (1, 0.5)]), (1, 0.5));
    }
}
