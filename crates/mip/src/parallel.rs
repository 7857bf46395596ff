//! The branch-and-bound driver (`std`-only): best-bound node selection over
//! a node pool that `threads` workers dive from. At `threads = 1` the one
//! worker runs inline on the caller's thread, with the caller's telemetry
//! and flight-recorder handles; one worker processes nodes in a total order,
//! so the search and everything it records are bit-for-bit reproducible
//! there (wall-clock readings aside).
//!
//! * **Shared node pool** — a best-bound [`BinaryHeap`] behind a `Mutex`,
//!   with a `Condvar` for workers waiting on new nodes. Depth-first plunging
//!   stays thread-local: a worker keeps one child of each branching and
//!   pushes the sibling, so only inter-dive nodes cross the lock.
//! * **Shared incumbent/cutoff** — the current "value to beat" (minimize
//!   sense) is an `AtomicU64` holding a monotone bit-packing of the `f64`,
//!   so every worker prunes against the global best immediately and
//!   lock-free; the incumbent point itself sits behind a rarely-taken mutex.
//! * **Per-worker LP engines** — each worker owns a [`Simplex`]; pseudocosts
//!   and LP scratch memory stay thread-local. Every node LP, the root
//!   included, is a dual solve ([`Simplex::solve_warm`]): the root starts
//!   from the all-slack basis, which bound flips make dual feasible, and
//!   only a dual fallback or a numerical retry reaches the primal phases.
//!   A node pushed to the pool carries its parent's basis, so whichever
//!   worker pops it re-solves from that basis rather than from its own last
//!   dive. Each worker hands back its engine's one `SolveStats` record,
//!   which the driver merges and flushes once; with more than one worker,
//!   per-worker telemetry registries and span buffers are merged after the
//!   workers join too, so `--metrics-out` and the bench CSV report
//!   identical quantities regardless of thread count, and the spans hold
//!   every worker's, each under its own `tid`.
//! * **One LP per node** — a counted node costs one LP solve, plus one for
//!   a numerical retry. The worker runs no primal heuristic: an incumbent
//!   is a node whose LP optimum is integral, and the only other value to
//!   beat is the caller's cutoff.
//! * **One writer per node fact** — [`NodeObserver`] is the only place a
//!   node's open and close, a global-bound tightening or an incumbent is
//!   written to the search tree, the progress stream or the flight
//!   recorder; it counts the incumbents, and the driver writes their sum
//!   to `mip.incumbents`.
//!
//! Correctness of the global dual bound: each worker publishes the bound of
//! its in-flight dive node in a per-worker atomic. A dive node's bound only
//! increases while it is processed, and each dive child is published when
//! the worker descends into it, so a stale read is always an underestimate
//! — conservative for both gap termination and reporting. The atomic is
//! written under the pool lock whenever a node leaves or enters the pool, so
//! a reader holding the pool lock never misses an open node.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::branch_and_bound::{
    prune_eps, MipOptions, MipProgress, MipResult, MipStatus, Node, PseudoCosts,
};
use crate::model::{MipModel, Sense, VarKind};
use crate::progress::{IncumbentSource, ProgressRecorder};
use crate::tree::{NodeOutcome, SearchTree, TreeNode};
use tvnep_lp::{LpProblem, LpStatus, Simplex, SolveStats, VarStatus};
use tvnep_model::tol::{INT_TOL, REL_GAP};
use tvnep_telemetry::{EventKind, FlightHandle, Telemetry};

/// Monotone bit-packing of `f64` into `u64`: `pack(a) < pack(b)` iff
/// `a < b` (for non-NaN values), so `AtomicU64::fetch_min` implements an
/// atomic floating-point minimum.
fn pack(v: f64) -> u64 {
    let b = v.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn unpack(b: u64) -> f64 {
    f64::from_bits(if b & (1 << 63) != 0 {
        b & !(1 << 63)
    } else {
        !b
    })
}

/// Relative gap between an incumbent and a bound (minimize sense).
fn rel_gap(obj: f64, bound: f64) -> f64 {
    (obj - bound).abs() / obj.abs().max(1e-10)
}

/// Why the search stopped before exhausting the tree.
enum Stop {
    /// Time or node limit.
    Limit,
    /// Relative gap closed; carries the bound proven at detection time.
    GapOptimal(f64),
    Unbounded,
    Numerical,
}

struct Pool {
    heap: BinaryHeap<Node>,
    /// Workers currently diving (their nodes are in flight, not on the heap).
    active: usize,
    seq: u64,
    /// Set on exhaustion or an explicit stop; workers drain out.
    done: bool,
    /// Peak open-node count (heap + in-flight dives), maintained under the
    /// lock; feeds the `mem.mip.node_pool_peak_bytes` gauge.
    peak: usize,
}

impl Pool {
    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.heap.len() + self.active);
    }
}

/// Everything the workers share: the problem and options, read-only, and
/// the synchronized search state.
struct Shared<'a> {
    opts: &'a MipOptions,
    /// The relaxation in minimize sense; `sign` maps its values back to the
    /// user's sense.
    lp_min: LpProblem,
    sign: f64,
    /// Model columns of the integer variables; node bounds follow this order.
    int_vars: Vec<usize>,
    start: Instant,
    pool: Mutex<Pool>,
    work_ready: Condvar,
    /// Packed minimize-sense value any new solution must strictly beat:
    /// `min(user cutoff, best incumbent objective)`. `pack(+inf)` when none.
    cutoff: AtomicU64,
    /// Packed bound of each worker's in-flight dive node; `pack(+inf)` when
    /// the worker is between dives.
    worker_bounds: Vec<AtomicU64>,
    /// Cumulative nanoseconds each worker spent blocked on the pool condvar
    /// (starvation time for the parallel-efficiency report).
    worker_wait_ns: Vec<AtomicU64>,
    /// Incumbent point (minimize sense). All updates hold this lock;
    /// `cutoff` is lowered inside it so the two never disagree.
    incumbent: Mutex<Option<(f64, Vec<f64>)>>,
    nodes: AtomicU64,
    numerical_failures: AtomicU32,
    stop: Mutex<Option<Stop>>,
    stop_flag: AtomicBool,
}

impl Shared<'_> {
    /// Records the first stop reason and tells every worker to drain out.
    fn request_stop(&self, stop: Stop) {
        let mut guard = self.stop.lock().unwrap();
        if guard.is_none() {
            *guard = Some(stop);
        }
        drop(guard);
        self.stop_flag.store(true, Ordering::Relaxed);
        let mut pool = self.pool.lock().unwrap();
        pool.done = true;
        self.work_ready.notify_all();
    }

    /// Pushes the in-flight `node` back onto the pool (fresh sequence
    /// number) so its bound keeps counting toward the global dual bound. The
    /// open-node count does not change: the node was counted while in
    /// flight, and its dive ends next.
    fn requeue(&self, mut node: Node) {
        let mut pool = self.pool.lock().unwrap();
        node.seq = pool.seq;
        pool.seq += 1;
        pool.heap.push(node);
        self.work_ready.notify_one();
    }

    /// Blocks until a node is available, the tree is exhausted, or a stop is
    /// requested. On success the worker is counted active and its published
    /// bound is set under the pool lock.
    fn acquire(&self, wid: usize) -> Option<Node> {
        let mut pool = self.pool.lock().unwrap();
        loop {
            if pool.done {
                return None;
            }
            if let Some(node) = pool.heap.pop() {
                pool.active += 1;
                pool.note_peak();
                self.worker_bounds[wid].store(pack(node.bound), Ordering::Relaxed);
                return Some(node);
            }
            if pool.active == 0 {
                // Nothing queued, nothing in flight: the tree is exhausted.
                pool.done = true;
                self.work_ready.notify_all();
                return None;
            }
            let wait_start = Instant::now();
            pool = self.work_ready.wait(pool).unwrap();
            self.worker_wait_ns[wid]
                .fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Ends a dive: the worker's published bound is cleared and exhaustion
    /// is detected if it was the last active worker with an empty heap.
    fn end_dive(&self, wid: usize) {
        let mut pool = self.pool.lock().unwrap();
        pool.active -= 1;
        self.worker_bounds[wid].store(pack(f64::INFINITY), Ordering::Relaxed);
        if pool.active == 0 && (pool.heap.is_empty() || pool.done) {
            pool.done = true;
            self.work_ready.notify_all();
        }
    }

    /// The value any new solution must strictly beat (minimize sense), or
    /// `None` when neither an incumbent nor a user cutoff exists.
    fn must_beat(&self) -> Option<f64> {
        let v = unpack(self.cutoff.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    /// True when `bound` (minimize sense) cannot beat the incumbent/cutoff.
    fn prunes(&self, bound: f64) -> bool {
        self.must_beat()
            .is_some_and(|beat| bound >= beat - prune_eps(beat))
    }

    /// Installs a new incumbent if it still beats the global cutoff.
    /// Returns `true` when accepted.
    fn offer_incumbent(&self, obj_min: f64, x: Vec<f64>) -> bool {
        let mut guard = self.incumbent.lock().unwrap();
        let beat = unpack(self.cutoff.load(Ordering::Relaxed));
        if beat.is_finite() && obj_min >= beat - prune_eps(beat) {
            return false;
        }
        *guard = Some((obj_min, x));
        self.cutoff.fetch_min(pack(obj_min), Ordering::Relaxed);
        true
    }

    /// Global dual bound (minimize sense) and true open-node count: the heap
    /// top and every in-flight dive bound, read under the pool lock.
    /// `f64::INFINITY` means "no open nodes anywhere".
    fn global_bound(&self) -> (f64, usize) {
        let pool = self.pool.lock().unwrap();
        let mut b = pool.heap.peek().map_or(f64::INFINITY, |n| n.bound);
        let open = pool.heap.len() + pool.active;
        for wb in &self.worker_bounds {
            b = b.min(unpack(wb.load(Ordering::Relaxed)));
        }
        (b, open)
    }

    /// [`Shared::global_bound`], or `fallback` when no node is open.
    fn bound_or(&self, fallback: f64) -> f64 {
        match self.global_bound().0 {
            f64::INFINITY => fallback,
            b => b,
        }
    }

    /// One [`MipProgress`] report to the options' callback, if any.
    fn report_progress(&self, nodes: u64) {
        let Some(callback) = &self.opts.progress else {
            return;
        };
        let (bound, open) = self.global_bound();
        let incumbent = self.incumbent.lock().unwrap().as_ref().map(|(o, _)| *o);
        let report = MipProgress {
            nodes,
            open,
            incumbent: incumbent.map(|o| self.sign * o),
            bound: self.sign * bound,
            elapsed: self.start.elapsed(),
        };
        callback(&report);
    }
}

/// The one writer of node facts. Each method checks the optional sinks
/// once and writes a fact to every sink that carries it; `tid` is the
/// progress stream's logical thread (0 for the inline worker, `w + 1` for
/// worker `w`). Values arrive in minimize sense and leave in user sense.
/// Incumbents are counted here and handed back with the worker's output.
struct NodeObserver<'a> {
    shared: &'a Shared<'a>,
    tid: u32,
    tree: Option<&'a SearchTree>,
    progress: Option<&'a ProgressRecorder>,
    blackbox: Option<FlightHandle>,
    incumbents: u64,
}

impl NodeObserver<'_> {
    /// Node `id` was counted: a pulse tick and a `node_open` event carrying
    /// its inherited bound.
    fn open(&self, id: u64, node: &Node) {
        if let Some(bb) = &self.blackbox {
            bb.pulse().add_nodes(1);
            let bound = self.shared.sign * node.bound;
            bb.record(EventKind::NodeOpen, id, bound.to_bits());
        }
    }

    /// Node `id` was resolved: one tree record and one `node_close` event.
    fn close(&self, id: u64, node: &Node, outcome: NodeOutcome) {
        if let Some(bb) = &self.blackbox {
            bb.record(EventKind::NodeClose, id, outcome.code());
        }
        if let Some(t) = self.tree {
            t.record(TreeNode {
                id,
                parent: node.parent,
                depth: node.depth,
                branch: node.branch,
                bound: node
                    .bound
                    .is_finite()
                    .then_some(self.shared.sign * node.bound),
                outcome,
            });
        }
    }

    /// Node `id`'s LP resolved, the one point where the global dual bound
    /// can tighten. The bound is computed once, under the pool lock, and
    /// clamped to the incumbent or cutoff: an open-node bound past the value
    /// to beat belongs to a node about to be pruned, so the proof is
    /// complete there. The progress stream, the `bound` event and the
    /// recorder's register all get that one value.
    fn bound(&self, id: u64, depth: u32) {
        if self.progress.is_none() && self.blackbox.is_none() {
            return;
        }
        let shared = self.shared;
        let beat = unpack(shared.cutoff.load(Ordering::Relaxed));
        let b = shared.sign * shared.global_bound().0.min(beat);
        if let Some(rec) = self.progress {
            let nodes = shared.nodes.load(Ordering::Relaxed);
            rec.offer_bound(b, nodes, id, depth, self.tid);
        }
        if let Some(bb) = &self.blackbox {
            bb.recorder().set_bound(b);
            bb.record(EventKind::Bound, id, b.to_bits());
        }
    }

    /// The integral LP `obj_min` of node `id` was accepted as the incumbent
    /// while the global dual bound stood at `bound_min`.
    fn incumbent(&mut self, obj_min: f64, bound_min: f64, id: u64, depth: u32) {
        let sign = self.shared.sign;
        let obj = sign * obj_min;
        if let Some(bb) = &self.blackbox {
            bb.recorder().set_incumbent(obj);
            bb.record(EventKind::Incumbent, id, obj.to_bits());
        }
        self.incumbents += 1;
        if let Some(rec) = self.progress {
            let nodes = self.shared.nodes.load(Ordering::Relaxed);
            rec.record_incumbent(
                obj,
                sign * bound_min,
                nodes,
                id,
                depth,
                self.tid,
                IncumbentSource::IntegralLp,
            );
        }
    }
}

/// What each worker hands back for the end-of-solve merge.
struct WorkerOut {
    /// Final heap footprint of this worker's private simplex (summed across
    /// workers into the `mem.lp.simplex_bytes` gauge).
    simplex_bytes: usize,
    /// The record of this worker's private LP engine; the driver merges
    /// one per worker and flushes the sum.
    stats: SolveStats,
    telemetry: Telemetry,
    /// Wall time between worker entry and exit.
    wall: Duration,
    /// Time inside node LP solves (`solve_warm` and its numerical retry).
    lp_time: Duration,
    /// Time blocked on the pool condvar (mirror of `Shared::worker_wait_ns`).
    wait: Duration,
    /// Nodes this worker processed (the per-worker share of `mip.nodes`).
    nodes: u64,
    /// Nodes discarded against the incumbent/cutoff right at acquisition.
    pruned_acquire: u64,
    /// Nodes pruned by bound after their LP resolved.
    pruned_bound: u64,
    /// Integer bounds tightened by reduced-cost fixing.
    rc_fixings: u64,
    /// Incumbents this worker found and installed.
    incumbents: u64,
}

pub(crate) fn solve(model: &MipModel, opts: &MipOptions, threads: usize) -> MipResult {
    let start = Instant::now();
    let sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let lp_min = model.relaxation_min();
    let telemetry = &opts.telemetry;
    // Busy for the duration of the solve: the stall watchdog only reads a
    // flat progress pulse as a stall while at least one guard is open.
    let _busy = opts.blackbox.as_ref().map(|bb| bb.recorder().busy_guard());
    let _solve_span = telemetry.span("mip.solve");
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
    let node_bytes = Node::pool_bytes(int_vars.len(), lp_min.num_vars() + lp_min.num_rows());
    let cutoff_min: Option<f64> = opts.cutoff.map(|c| sign * c);

    let shared = Shared {
        opts,
        lp_min,
        sign,
        int_vars,
        start,
        pool: Mutex::new(Pool {
            heap: BinaryHeap::new(),
            active: 0,
            seq: 1,
            done: false,
            peak: 1,
        }),
        work_ready: Condvar::new(),
        cutoff: AtomicU64::new(pack(cutoff_min.unwrap_or(f64::INFINITY))),
        worker_bounds: (0..threads)
            .map(|_| AtomicU64::new(pack(f64::INFINITY)))
            .collect(),
        worker_wait_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        incumbent: Mutex::new(None),
        nodes: AtomicU64::new(0),
        numerical_failures: AtomicU32::new(0),
        stop: Mutex::new(None),
        stop_flag: AtomicBool::new(false),
    };
    shared.pool.lock().unwrap().heap.push(Node {
        bounds: root_bounds,
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq: 0,
        pending_pseudo: None,
        parent: None,
        branch: None,
        basis: None,
    });

    let outs: Vec<WorkerOut> = if threads == 1 {
        vec![worker(&shared, 0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|wid| {
                    let shared = &shared;
                    scope.spawn(move || worker(shared, wid))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    };

    // Merge per-worker counters so reported quantities do not depend on the
    // thread count (the inline worker's telemetry is the caller's own, so
    // absorbing it is a no-op).
    let mut stats = SolveStats::default();
    let mut simplex_bytes = 0usize;
    let mut rc_fixings = 0u64;
    let mut incumbents = 0u64;
    for out in &outs {
        stats.merge_from(&out.stats);
        simplex_bytes += out.simplex_bytes;
        rc_fixings += out.rc_fixings;
        incumbents += out.incumbents;
        telemetry.absorb_metrics(&out.telemetry);
    }

    let nodes = shared.nodes.load(Ordering::Relaxed);
    let incumbent = shared.incumbent.into_inner().unwrap();
    let stop = shared.stop.into_inner().unwrap();
    let pool = shared.pool.into_inner().unwrap();
    let heap_bound = pool.heap.peek().map_or(f64::INFINITY, |n| n.bound);
    let inc_obj = incumbent.as_ref().map(|(o, _)| *o);
    // `f64::INFINITY` means the tree is gone: the bound collapses onto the
    // incumbent (or +inf).
    let residual_bound = if heap_bound == f64::INFINITY {
        inc_obj.unwrap_or(f64::INFINITY)
    } else {
        heap_bound
    };

    let (status, bound_min) = match stop {
        Some(Stop::GapOptimal(b)) => (MipStatus::Optimal, b),
        Some(Stop::Unbounded) => (MipStatus::Unbounded, f64::NEG_INFINITY),
        Some(Stop::Numerical) => (MipStatus::Numerical, residual_bound),
        Some(Stop::Limit) if incumbent.is_some() => (MipStatus::Feasible, residual_bound),
        Some(Stop::Limit) => (MipStatus::NoSolution, residual_bound),
        // Tree exhausted: optimal incumbent, or nothing beats the cutoff.
        None => match (inc_obj, cutoff_min) {
            (Some(obj), _) => (MipStatus::Optimal, obj),
            (None, Some(c)) => (MipStatus::NoBetterThanCutoff, c),
            (None, None) => (MipStatus::Infeasible, f64::INFINITY),
        },
    };

    let (objective, x) = match (status, incumbent) {
        (MipStatus::Unbounded, _) | (_, None) => (None, None),
        (_, Some((obj, x))) => (Some(sign * obj), Some(x)),
    };
    let result = MipResult {
        status,
        objective,
        best_bound: sign * bound_min,
        x,
        gap: objective.map(|o| rel_gap(o, sign * bound_min).max(0.0)),
        nodes,
        lp_iterations: stats.iterations(),
        runtime: start.elapsed(),
    };
    // Final-state registers for crash/stall dumps written after the solve
    // returns (or by a panic unwinding through the caller).
    if let Some(bb) = &opts.blackbox {
        bb.recorder().set_bound(result.best_bound);
        if let Some(obj) = result.objective {
            bb.recorder().set_incumbent(obj);
        }
    }
    if telemetry.is_enabled() {
        telemetry.counter_add("mip.nodes", result.nodes);
        if rc_fixings > 0 {
            telemetry.counter_add("mip.rc_fixings", rc_fixings);
        }
        if incumbents > 0 {
            telemetry.counter_add("mip.incumbents", incumbents);
        }
        stats.flush_into(telemetry);
        if threads > 1 {
            parallel_report(telemetry, &outs, pool.peak);
        }
        telemetry.gauge_set("mip.best_bound", result.best_bound);
        if let Some(obj) = result.objective {
            telemetry.gauge_set("mip.incumbent_objective", obj);
        }
        telemetry.gauge_set("mip.final_gap", result.gap_or_inf());
        telemetry.gauge_set("mip.runtime_s", result.runtime.as_secs_f64());
        // Structural memory gauges: LP scratch summed over all worker
        // simplexes, the peak of the open-node pool, and the attached
        // search tree if any.
        telemetry.gauge_set("mem.lp.simplex_bytes", simplex_bytes as f64);
        telemetry.gauge_set(
            "mem.mip.node_pool_peak_bytes",
            (pool.peak * node_bytes) as f64,
        );
        if let Some(t) = &opts.tree {
            telemetry.gauge_set("mem.mip.tree_bytes", t.memory_bytes() as f64);
        }
    }
    result
}

/// Parallel-efficiency report: per-worker wall/busy/LP/wait clocks (busy is
/// derived as wall − wait − lp, so the three components sum to wall by
/// construction) plus pool and prune accounting, rolled up into a busy
/// fraction and an effective-parallelism estimate.
fn parallel_report(telemetry: &Telemetry, outs: &[WorkerOut], pool_peak: usize) {
    let mut busy_sum = 0.0f64;
    let mut wall_sum = 0.0f64;
    let mut wall_max = 0.0f64;
    for (i, out) in outs.iter().enumerate() {
        let w = i + 1;
        let wall = out.wall.as_secs_f64();
        let lp = out.lp_time.as_secs_f64();
        let wait = out.wait.as_secs_f64();
        let busy = (wall - wait - lp).max(0.0);
        busy_sum += busy + lp;
        wall_sum += wall;
        wall_max = wall_max.max(wall);
        telemetry.gauge_set(&format!("par.worker{w}.wall_s"), wall);
        telemetry.gauge_set(&format!("par.worker{w}.busy_s"), busy);
        telemetry.gauge_set(&format!("par.worker{w}.lp_s"), lp);
        telemetry.gauge_set(&format!("par.worker{w}.wait_s"), wait);
        telemetry.gauge_set(
            &format!("par.worker{w}.busy_fraction"),
            if wall > 0.0 { (busy + lp) / wall } else { 0.0 },
        );
        telemetry.gauge_set(&format!("par.worker{w}.nodes"), out.nodes as f64);
        telemetry.gauge_set(
            &format!("par.worker{w}.pruned_acquire"),
            out.pruned_acquire as f64,
        );
        telemetry.gauge_set(
            &format!("par.worker{w}.pruned_bound"),
            out.pruned_bound as f64,
        );
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    telemetry.gauge_set("par.workers", outs.len() as f64);
    telemetry.gauge_set("par.busy_fraction", ratio(busy_sum, wall_sum));
    telemetry.gauge_set("par.effective_parallelism", ratio(busy_sum, wall_max));
    telemetry.gauge_set("par.pool_peak_depth", pool_peak as f64);
}

fn worker(shared: &Shared, wid: usize) -> WorkerOut {
    let opts = shared.opts;
    let int_vars = &shared.int_vars[..];
    // The single worker of a one-thread solve is the caller: its LP metrics,
    // spans and flight-recorder events go to the caller's handles (tid 0).
    // Otherwise the worker records into a private telemetry handle sharing
    // the caller's epoch (merged by the driver after join) and into a
    // flight-recorder ring of its own, both under tid `wid + 1`.
    let inline = shared.worker_bounds.len() == 1;
    let tid = if inline { 0 } else { wid as u32 + 1 };
    let telemetry = if inline {
        opts.telemetry.clone()
    } else {
        opts.telemetry.worker(tid)
    };
    let blackbox = match &opts.blackbox {
        Some(bb) if !inline => Some(bb.for_worker(tid)),
        bb => bb.clone(),
    };
    let mut obs = NodeObserver {
        shared,
        tid,
        tree: opts.tree.as_deref(),
        progress: opts.progress_events.as_ref(),
        blackbox: blackbox.clone(),
        incumbents: 0,
    };
    // Runtime accounting: wall measured worker entry → exit, LP time summed
    // around every simplex call, condvar-wait accumulated in `Shared`; busy
    // is derived by the driver as the remainder.
    let worker_start = Instant::now();
    let lane_offset = telemetry.elapsed();
    let mut lp_time = Duration::ZERO;
    let mut nodes_mine: u64 = 0;
    let mut pruned_acquire: u64 = 0;
    let mut pruned_bound: u64 = 0;
    let mut rc_fixings: u64 = 0;
    let mut reduced_costs = Vec::new();
    let mut simplex = Simplex::new(&shared.lp_min);
    simplex.set_telemetry(telemetry.clone());
    simplex.set_blackbox(blackbox);
    // The LP engine honors the same wall-clock budget so a single long
    // relaxation cannot blow through the MIP time limit.
    if let Some(tl) = opts.time_limit {
        simplex.set_deadline(Some(shared.start + tl));
    }
    let mut pseudo = PseudoCosts::new(int_vars.len());

    while let Some(mut current) = shared.acquire(wid) {
        if shared.prunes(current.bound) {
            pruned_acquire += 1;
            shared.end_dive(wid);
            continue;
        }
        // Re-solve from the parent's basis, whichever worker branched it
        // (with the dual simplex, even as this worker's first LP).
        if let Some(basis) = current.basis.take() {
            simplex.load_basis(&basis);
        }

        // Dive from this node until pruned (thread-local plunging).
        loop {
            if shared.stop_flag.load(Ordering::Relaxed) {
                shared.requeue(current);
                break;
            }
            let out_of_time = opts
                .time_limit
                .is_some_and(|tl| shared.start.elapsed() >= tl);
            let out_of_nodes = opts
                .node_limit
                .is_some_and(|nl| shared.nodes.load(Ordering::Relaxed) >= nl);
            if out_of_time || out_of_nodes {
                shared.request_stop(Stop::Limit);
                shared.requeue(current);
                break;
            }

            let node_id = shared.nodes.fetch_add(1, Ordering::Relaxed) + 1;
            nodes_mine += 1;
            obs.open(node_id, &current);
            let _node_span = telemetry
                .span("mip.node")
                .arg("node", node_id as f64)
                .arg("depth", current.depth as f64);
            if opts
                .log_every
                .is_some_and(|every| node_id.is_multiple_of(every))
            {
                shared.report_progress(node_id);
            }

            // Apply this node's integer bounds and solve the LP with the
            // dual simplex, the root included (its all-slack start is made
            // dual feasible by bound flips); on numerical trouble, retry
            // once with the primal phases from a fresh basis.
            for (k, &j) in int_vars.iter().enumerate() {
                let (lo, up) = current.bounds[k];
                simplex.set_var_bounds(j, lo, up);
            }
            let lp_start = Instant::now();
            let mut status = simplex.solve_warm();
            if matches!(status, LpStatus::Numerical | LpStatus::IterationLimit) {
                simplex.reset_basis();
                status = simplex.solve();
            }
            lp_time += lp_start.elapsed();
            match status {
                LpStatus::TimeLimit => {
                    obs.close(node_id, &current, NodeOutcome::TimeLimit);
                    shared.request_stop(Stop::Limit);
                    shared.requeue(current);
                    break;
                }
                LpStatus::Numerical | LpStatus::IterationLimit => {
                    obs.close(node_id, &current, NodeOutcome::Numerical);
                    if shared.numerical_failures.fetch_add(1, Ordering::Relaxed) >= 5 {
                        shared.request_stop(Stop::Numerical);
                    }
                    // Unresolved: requeue with its inherited bound so it is
                    // revisited later (no pruning done on it).
                    shared.requeue(current);
                    break;
                }
                LpStatus::Infeasible => {
                    obs.close(node_id, &current, NodeOutcome::Infeasible);
                    break;
                }
                LpStatus::Unbounded => {
                    obs.close(node_id, &current, NodeOutcome::Unbounded);
                    shared.request_stop(Stop::Unbounded);
                    break;
                }
                LpStatus::Optimal => {}
            }
            let sol = simplex.extract(status);
            let lp_obj = sol.objective;
            current.bound = current.bound.max(lp_obj);
            shared.worker_bounds[wid].store(pack(current.bound), Ordering::Relaxed);
            obs.bound(node_id, current.depth);
            pseudo.settle(current.pending_pseudo.take(), lp_obj);

            if shared.prunes(lp_obj) {
                pruned_bound += 1;
                obs.close(node_id, &current, NodeOutcome::PrunedBound);
                break;
            }
            let frac_vars: Vec<(usize, f64)> = int_vars
                .iter()
                .enumerate()
                .filter_map(|(k, &j)| {
                    let f = sol.x[j] - sol.x[j].floor();
                    (f.min(1.0 - f) > INT_TOL).then_some((k, f))
                })
                .collect();
            if frac_vars.is_empty() {
                obs.close(node_id, &current, NodeOutcome::Integral);
                // Integer feasible: offer as incumbent. The dive ends here
                // either way, so clear this worker's published bound before
                // the gap check: a leaf's bound is not open.
                if shared.offer_incumbent(lp_obj, sol.x) {
                    shared.worker_bounds[wid].store(pack(f64::INFINITY), Ordering::Relaxed);
                    let b = shared.bound_or(lp_obj);
                    obs.incumbent(lp_obj, b, node_id, current.depth);
                    if rel_gap(lp_obj, b) <= REL_GAP {
                        shared.request_stop(Stop::GapOptimal(b));
                    }
                }
                break; // leaf
            }
            // Both children inherit the fixings through `current.bounds`; a
            // leaf has no children, so it skips the BTRAN.
            if let Some(beat) = shared.must_beat() {
                rc_fixings += fix_by_reduced_cost(
                    &mut simplex,
                    int_vars,
                    &mut current.bounds,
                    lp_obj,
                    beat - prune_eps(beat),
                    &mut reduced_costs,
                );
            }

            // Branch: down (x <= floor) and up (x >= ceil) children. Dive
            // into the one on the nearer side of the fraction; the sibling
            // joins the pool with this node's basis.
            let (bk, bfrac) = pseudo.select(&frac_vars);
            let j = int_vars[bk];
            let xval = sol.x[j];
            let (lo, up) = current.bounds[bk];
            obs.close(node_id, &current, NodeOutcome::Branched);
            let child = |went_up: bool| {
                let mut bounds = current.bounds.clone();
                bounds[bk] = if went_up {
                    (xval.ceil(), up)
                } else {
                    (lo, xval.floor())
                };
                Node {
                    bounds,
                    bound: lp_obj,
                    depth: current.depth + 1,
                    seq: 0, // assigned under the pool lock below
                    pending_pseudo: Some((bk, went_up, lp_obj, bfrac)),
                    parent: Some(node_id),
                    branch: Some((j, went_up)),
                    basis: None,
                }
            };
            let dive_up = bfrac >= 0.5;
            let mut dive_node = child(dive_up);
            let mut sibling = child(!dive_up);
            sibling.basis = Some(simplex.save_basis());
            {
                let mut pool = shared.pool.lock().unwrap();
                dive_node.seq = pool.seq;
                sibling.seq = pool.seq + 1;
                pool.seq += 2;
                pool.heap.push(sibling);
                pool.note_peak();
                shared.worker_bounds[wid].store(pack(dive_node.bound), Ordering::Relaxed);
                shared.work_ready.notify_one();
            }
            current = dive_node;
        }
        shared.end_dive(wid);
    }

    let wall = worker_start.elapsed();
    let wait = Duration::from_nanos(shared.worker_wait_ns[wid].load(Ordering::Relaxed));
    if !inline {
        // One aggregate Chrome-trace lane per worker: the span carries the
        // worker's whole lifetime (its `tid` separates the lanes) with the
        // clock breakdown as args.
        telemetry.record_span(
            "mip.worker",
            lane_offset,
            wall,
            vec![
                ("lp_s", lp_time.as_secs_f64()),
                ("wait_s", wait.as_secs_f64()),
                ("nodes", nodes_mine as f64),
                ("pruned", (pruned_acquire + pruned_bound) as f64),
            ],
        );
    }
    WorkerOut {
        simplex_bytes: simplex.memory_bytes(),
        stats: simplex.stats,
        telemetry,
        wall,
        lp_time,
        wait,
        nodes: nodes_mine,
        pruned_acquire,
        pruned_bound,
        rc_fixings,
        incumbents: obs.incumbents,
    }
}

/// Reduced-cost fixing of a node's integer `bounds` (in `int_vars` order)
/// from its optimal LP in `simplex`, whose objective `lp_obj` is below the
/// prune threshold `cut`. By the LP's duals, every feasible point of the
/// node with `x_j ≥ lo + 1`, for `x_j` nonbasic at its lower bound with
/// reduced cost `d_j`, costs at least `lp_obj + d_j`; once that reaches
/// `cut`, the prune test would discard each of them, so `up := lo` loses
/// nothing (the mirror holds at the upper bound). The LP point satisfies the
/// fixings and stays optimal, so the node's children inherit them with no
/// re-solve. Returns the number of variables fixed.
fn fix_by_reduced_cost(
    simplex: &mut Simplex,
    int_vars: &[usize],
    bounds: &mut [(f64, f64)],
    lp_obj: f64,
    cut: f64,
    reduced_costs: &mut Vec<(VarStatus, f64)>,
) -> u64 {
    simplex.reduced_costs(int_vars, reduced_costs);
    let mut fixed = 0;
    for (b, &(status, d)) in bounds.iter_mut().zip(reduced_costs.iter()) {
        match status {
            VarStatus::AtLower if b.0 < b.1 && lp_obj + d >= cut => b.1 = b.0,
            VarStatus::AtUpper if b.0 < b.1 && lp_obj - d >= cut => b.0 = b.1,
            _ => continue,
        }
        fixed += 1;
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `min x₀ − x₁` over the unit box: `x₀` rests at its lower bound with
    /// `d = 1` and `x₁` at its upper bound with `d = −1`, so each is fixed
    /// exactly when `lp_obj + |d| = 0` reaches the cut.
    #[test]
    fn fixing_meets_the_cut_at_both_bounds() {
        let mut lp = LpProblem::new();
        let x0 = lp.add_var(0.0, 1.0, 1.0);
        let x1 = lp.add_var(0.0, 1.0, -1.0);
        lp.add_le(&[(x0, 1.0), (x1, 1.0)], 2.0);
        let mut simplex = Simplex::new(&lp);
        assert_eq!(simplex.solve(), LpStatus::Optimal);
        let lp_obj = simplex.objective_value();
        assert_eq!(lp_obj, -1.0);
        let mut reduced_costs = Vec::new();
        for (cut, fixed, bounds) in [
            (1e-9, 0, [(0.0, 1.0), (0.0, 1.0)]),
            (0.0, 2, [(0.0, 0.0), (1.0, 1.0)]),
        ] {
            let mut node = [(0.0, 1.0), (0.0, 1.0)];
            let n = fix_by_reduced_cost(
                &mut simplex,
                &[0, 1],
                &mut node,
                lp_obj,
                cut,
                &mut reduced_costs,
            );
            assert_eq!((n, node), (fixed, bounds), "cut {cut}");
        }
    }
}
