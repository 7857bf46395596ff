//! Parallel branch-and-bound driver (`std`-only).
//!
//! Mirrors the sequential solver in `branch_and_bound.rs` node for node, but
//! distributes dives over worker threads:
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
//!   and LP scratch memory stay thread-local. A node pushed to the pool
//!   carries its parent's basis, so whichever worker pops it re-solves from
//!   that basis rather than from its own last dive.
//!   Per-worker `SolveStats`/telemetry registries are merged after the
//!   workers join, so `--metrics-out` and the bench CSV report identical
//!   quantities regardless of thread count (per-thread LP *timeline* events
//!   are dropped: they have no global order).
//!
//! Correctness of the global dual bound: each worker publishes the bound of
//! its in-flight dive node in a per-worker atomic. A dive node's bound only
//! increases (children inherit the parent's LP objective), so a stale read
//! is always an underestimate — conservative for both gap termination and
//! reporting. The atomic is written under the pool lock at node acquisition,
//! so a reader holding the pool lock never misses an in-flight node.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::branch_and_bound::{
    default_progress_sink, dive_heuristic, most_fractional, prune_eps, Branching, MipOptions,
    MipProgress, MipResult, MipStatus, Node, PseudoCosts,
};
use crate::model::{MipModel, Sense, VarKind};
use crate::progress::IncumbentSource;
use crate::tree::{NodeOutcome, TreeNode};
use tvnep_lp::{HealthMonitor, LpProblem, LpStatus, Simplex, SolveStats};
use tvnep_telemetry::{Event, EventKind, Telemetry};

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

struct Shared {
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
    has_incumbent: AtomicBool,
    nodes: AtomicU64,
    numerical_failures: AtomicU32,
    stop: Mutex<Option<Stop>>,
    stop_flag: AtomicBool,
}

impl Shared {
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

    /// Pushes `node` back onto the pool (fresh sequence number) so its bound
    /// keeps counting toward the global dual bound.
    fn requeue(&self, mut node: Node) {
        let mut pool = self.pool.lock().unwrap();
        node.seq = pool.seq;
        pool.seq += 1;
        pool.heap.push(node);
        pool.note_peak();
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
        self.has_incumbent.store(true, Ordering::Relaxed);
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
}

/// What each worker hands back for the end-of-solve merge.
struct WorkerOut {
    lp_iterations: usize,
    /// Final heap footprint of this worker's private simplex (summed across
    /// workers into the `mem.lp.simplex_bytes` gauge).
    simplex_bytes: usize,
    stats: SolveStats,
    telemetry: Telemetry,
    /// Numerical-health evidence from this worker's private LP engine;
    /// merged into one solve-wide verdict by the driver.
    health: HealthMonitor,
    /// Wall time between worker entry and exit.
    wall: Duration,
    /// Time inside LP solves (`solve`/`solve_warm`/dive heuristic).
    lp_time: Duration,
    /// Time blocked on the pool condvar (mirror of `Shared::worker_wait_ns`).
    wait: Duration,
    /// Nodes this worker processed (the per-worker share of `mip.nodes`).
    nodes: u64,
    /// Nodes discarded against the incumbent/cutoff right at acquisition.
    pruned_acquire: u64,
    /// Nodes pruned by bound after their LP resolved.
    pruned_bound: u64,
}

pub(crate) fn solve_parallel(model: &MipModel, opts: &MipOptions, threads: usize) -> MipResult {
    let start = Instant::now();
    let sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let lp_min = model.relaxation_min();
    let telemetry = opts.telemetry.clone();
    // Busy for the whole parallel solve (workers share the one recorder).
    let _busy = opts.blackbox.as_ref().map(|bb| bb.recorder().busy_guard());
    telemetry.event_with(|| Event::SolveStart { what: "mip".into() });
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
    let cutoff_min: Option<f64> = opts.cutoff.map(|c| sign * c);

    let shared = Shared {
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
        has_incumbent: AtomicBool::new(false),
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

    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let shared = &shared;
                let lp_min = &lp_min;
                let int_vars = &int_vars;
                let telemetry = &telemetry;
                scope.spawn(move || {
                    worker(
                        wid, shared, model, lp_min, int_vars, opts, sign, start, telemetry,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    // Merge per-worker counters so reported quantities match a sequential
    // run over the same tree.
    let mut stats = SolveStats::default();
    let mut health = HealthMonitor::default();
    let mut lp_iterations = 0usize;
    let mut simplex_bytes = 0usize;
    for out in &outs {
        stats.merge_from(&out.stats);
        health.merge_from(&out.health);
        lp_iterations += out.lp_iterations;
        simplex_bytes += out.simplex_bytes;
        telemetry.absorb_metrics(&out.telemetry);
    }

    let nodes = shared.nodes.load(Ordering::Relaxed);
    let incumbent = shared.incumbent.into_inner().unwrap();
    let stop = shared.stop.into_inner().unwrap();
    let pool = shared.pool.into_inner().unwrap();
    let heap_bound = pool.heap.peek().map_or(f64::INFINITY, |n| n.bound);
    let inc_obj = incumbent.as_ref().map(|(o, _)| *o);
    // `f64::INFINITY` means the tree is gone: the bound collapses onto the
    // incumbent (or the cutoff / +inf, mirroring the sequential driver).
    let residual_bound = |fallback: f64| {
        if heap_bound == f64::INFINITY {
            inc_obj.unwrap_or(fallback)
        } else {
            heap_bound
        }
    };

    let (status, bound_min) = match stop {
        Some(Stop::GapOptimal(b)) => (MipStatus::Optimal, b),
        Some(Stop::Unbounded) => (MipStatus::Unbounded, f64::NEG_INFINITY),
        Some(Stop::Numerical) => (MipStatus::Numerical, residual_bound(f64::INFINITY)),
        Some(Stop::Limit) => {
            let st = if incumbent.is_some() {
                MipStatus::Feasible
            } else {
                MipStatus::NoSolution
            };
            (st, residual_bound(f64::INFINITY))
        }
        // Tree exhausted: optimal incumbent, or nothing beats the cutoff.
        None => match (&incumbent, cutoff_min) {
            (Some((obj, _)), _) => (MipStatus::Optimal, *obj),
            (None, Some(c)) => (MipStatus::NoBetterThanCutoff, c),
            (None, None) => (MipStatus::Infeasible, f64::INFINITY),
        },
    };

    let (objective, x) = match (status, incumbent) {
        (MipStatus::Unbounded, _) => (None, None),
        (_, Some((obj, x))) => (Some(sign * obj), Some(x)),
        (_, None) => (None, None),
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
        lp_iterations,
        runtime: start.elapsed(),
    };
    // Final-state registers for crash/stall dumps (worker-local bounds are
    // not folded into the register mid-solve; the merged result is).
    if let Some(bb) = &opts.blackbox {
        bb.recorder().set_bound(result.best_bound);
        if let Some(obj) = result.objective {
            bb.recorder().set_incumbent(obj);
        }
    }
    if telemetry.is_enabled() {
        telemetry.counter_add("mip.nodes", result.nodes);
        telemetry.counter_add("lp.iterations", result.lp_iterations as u64);
        stats.flush_into(&telemetry);
        health.flush_into(&telemetry);
        // Parallel-efficiency report: per-worker wall/busy/LP/wait clocks
        // (busy is derived as wall − wait − lp, so the three components sum
        // to wall by construction) plus pool and prune accounting, rolled
        // up into a busy fraction and an effective-parallelism estimate.
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
        telemetry.gauge_set("par.workers", threads as f64);
        telemetry.gauge_set(
            "par.busy_fraction",
            if wall_sum > 0.0 {
                busy_sum / wall_sum
            } else {
                0.0
            },
        );
        telemetry.gauge_set(
            "par.effective_parallelism",
            if wall_max > 0.0 {
                busy_sum / wall_max
            } else {
                0.0
            },
        );
        telemetry.gauge_set("par.pool_peak_depth", pool.peak as f64);
        telemetry.gauge_set("mip.best_bound", result.best_bound);
        if let Some(obj) = result.objective {
            telemetry.gauge_set("mip.incumbent_objective", obj);
        }
        telemetry.gauge_set("mip.final_gap", result.gap_or_inf());
        telemetry.gauge_set("mip.runtime_s", result.runtime.as_secs_f64());
        // Structural memory gauges, mirroring the sequential driver: LP
        // scratch summed over all worker simplexes, the peak of the shared
        // open-node pool, and the attached search tree if any.
        telemetry.gauge_set("mem.lp.simplex_bytes", simplex_bytes as f64);
        let node_bytes = Node::pool_bytes(int_vars.len(), lp_min.num_vars() + lp_min.num_rows());
        telemetry.gauge_set(
            "mem.mip.node_pool_peak_bytes",
            (pool.peak * node_bytes) as f64,
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
}

#[allow(clippy::too_many_arguments)]
fn worker(
    wid: usize,
    shared: &Shared,
    model: &MipModel,
    lp_min: &LpProblem,
    int_vars: &[usize],
    opts: &MipOptions,
    sign: f64,
    start: Instant,
    main_tel: &Telemetry,
) -> WorkerOut {
    // LP metrics and spans go to a private per-thread handle sharing the
    // driver's epoch (merged by the driver after join); mip-level events
    // below go straight to the shared handle.
    let worker_tel = main_tel.worker(wid as u32 + 1);
    let tid = wid as u32 + 1;
    // Runtime accounting: wall measured worker entry → exit, LP time summed
    // around every simplex call, condvar-wait accumulated in `Shared`; busy
    // is derived by the driver as the remainder.
    let worker_start = Instant::now();
    let lane_offset = worker_tel.elapsed();
    let mut lp_time = Duration::ZERO;
    let mut nodes_mine: u64 = 0;
    let mut pruned_acquire: u64 = 0;
    let mut pruned_bound: u64 = 0;
    let mut simplex = Simplex::new(lp_min);
    simplex.set_telemetry(worker_tel.clone());
    // Per-worker flight-recorder ring, same tid convention as spans; the
    // pulse and final-state registers are shared through the recorder.
    let blackbox = opts.blackbox.as_ref().map(|bb| bb.for_worker(tid));
    simplex.set_blackbox(blackbox.clone());
    if let Some(p) = &opts.lp_params {
        simplex.set_params(p.clone());
    }
    if let Some(tl) = opts.time_limit {
        simplex.set_deadline(Some(start + tl));
    }
    let mut first_lp = true;
    let mut pseudo = PseudoCosts::new(int_vars.len());

    let emit_node = |node: u64, depth: u32, bound_min: f64, frac_count: usize| {
        main_tel.event_with(|| Event::BnbNode {
            node,
            depth,
            bound: sign * bound_min,
            frac_count,
        });
    };
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
    let emit_incumbent =
        |obj_min: f64, bound_min: f64, node_id: u64, depth: u32, src: IncumbentSource| {
            if let Some(bb) = &blackbox {
                bb.recorder().set_incumbent(sign * obj_min);
                bb.record(EventKind::Incumbent, node_id, (sign * obj_min).to_bits());
            }
            main_tel.counter_add("mip.incumbents", 1);
            main_tel.event_with(|| {
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
                    shared.nodes.load(Ordering::Relaxed),
                    node_id,
                    depth,
                    tid,
                    src,
                );
            }
        };

    'acquire: while let Some(mut node) = shared.acquire(wid) {
        // Prune against the global incumbent/cutoff.
        if let Some(beat) = shared.must_beat() {
            if node.bound >= beat - prune_eps(beat) {
                pruned_acquire += 1;
                shared.end_dive(wid);
                continue 'acquire;
            }
        }
        // Re-solve from the parent's basis, whichever worker branched it
        // (with the dual simplex, even as this worker's first LP).
        if let Some(basis) = node.basis.take() {
            simplex.load_basis(&basis);
            first_lp = false;
        }

        // Dive from this node until pruned (thread-local plunging).
        let mut current = node;
        loop {
            if shared.stop_flag.load(Ordering::Relaxed) {
                shared.requeue(current);
                break;
            }
            if let Some(tl) = opts.time_limit {
                if start.elapsed() >= tl {
                    shared.request_stop(Stop::Limit);
                    shared.requeue(current);
                    break;
                }
            }
            if let Some(nl) = opts.node_limit {
                if shared.nodes.load(Ordering::Relaxed) >= nl {
                    shared.request_stop(Stop::Limit);
                    shared.requeue(current);
                    break;
                }
            }

            let node_id = shared.nodes.fetch_add(1, Ordering::Relaxed) + 1;
            nodes_mine += 1;
            if let Some(bb) = &blackbox {
                bb.pulse().add_nodes(1);
                bb.record(
                    EventKind::NodeOpen,
                    node_id,
                    (sign * current.bound).to_bits(),
                );
            }
            let _node_span = worker_tel
                .span("mip.node")
                .arg("node", node_id as f64)
                .arg("depth", current.depth as f64);
            if let Some(every) = opts.log_every {
                if node_id.is_multiple_of(every) {
                    let (mut b, open) = shared.global_bound();
                    if b == f64::INFINITY {
                        b = current.bound;
                    }
                    let inc = shared
                        .incumbent
                        .lock()
                        .unwrap()
                        .as_ref()
                        .map(|(o, _)| sign * o);
                    let report = MipProgress {
                        nodes: node_id,
                        open,
                        incumbent: inc,
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
            let lp_start = Instant::now();
            let mut status = if first_lp {
                simplex.solve()
            } else {
                simplex.solve_warm()
            };
            lp_time += lp_start.elapsed();
            first_lp = false;
            if status == LpStatus::TimeLimit {
                emit_node(node_id, current.depth, current.bound, 0);
                record_node(node_id, &current, current.bound, NodeOutcome::TimeLimit);
                shared.request_stop(Stop::Limit);
                shared.requeue(current);
                break;
            }
            if matches!(status, LpStatus::Numerical | LpStatus::IterationLimit) {
                // Retry once from a fresh basis.
                simplex.reset_basis();
                let lp_start = Instant::now();
                status = simplex.solve();
                lp_time += lp_start.elapsed();
                if status == LpStatus::TimeLimit {
                    emit_node(node_id, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::TimeLimit);
                    shared.request_stop(Stop::Limit);
                    shared.requeue(current);
                    break;
                }
                if matches!(status, LpStatus::Numerical | LpStatus::IterationLimit) {
                    emit_node(node_id, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::Numerical);
                    let failures = shared.numerical_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if failures > 5 {
                        shared.request_stop(Stop::Numerical);
                    }
                    // Unresolved: requeue with its inherited bound so it is
                    // revisited later (no pruning done on it).
                    shared.requeue(current);
                    break;
                }
            }
            match status {
                LpStatus::Infeasible => {
                    emit_node(node_id, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::Infeasible);
                    break; // prune
                }
                LpStatus::Unbounded => {
                    emit_node(node_id, current.depth, current.bound, 0);
                    record_node(node_id, &current, current.bound, NodeOutcome::Unbounded);
                    shared.request_stop(Stop::Unbounded);
                    break;
                }
                _ => {}
            }
            let sol = simplex.extract(status);
            let lp_obj = sol.objective;
            current.bound = current.bound.max(lp_obj);
            shared.worker_bounds[wid].store(pack(current.bound), Ordering::Relaxed);
            // Global-bound tightening event (takes the pool lock; only when
            // a recorder is attached). Racy offers that do not tighten the
            // recorded bound are dropped inside the recorder.
            if let Some(rec) = &opts.progress_events {
                let (b, _) = shared.global_bound();
                rec.offer_bound(sign * b, node_id, node_id, current.depth, tid);
            }
            // Worker-local dual bound (lock-free; the global bound would
            // need the pool lock). A crash dump reconstructs the global
            // picture from the per-worker streams.
            if let Some(bb) = &blackbox {
                bb.record(EventKind::Bound, node_id, (sign * current.bound).to_bits());
            }

            // Settle the pseudocost observation for the branching that
            // created this node (worker-local statistics).
            if let Some((k, is_up, parent_obj, frac)) = current.pending_pseudo.take() {
                let delta = (lp_obj - parent_obj).max(0.0);
                let per_unit = if is_up {
                    delta / (1.0 - frac).max(1e-6)
                } else {
                    delta / frac.max(1e-6)
                };
                pseudo.record(k, is_up, per_unit);
            }

            let mut frac_vars: Vec<(usize, f64)> = Vec::new(); // (int idx, frac)
            for (k, &j) in int_vars.iter().enumerate() {
                let v = sol.x[j];
                let f = v - v.floor();
                let dist = f.min(1.0 - f);
                if dist > opts.int_tol {
                    frac_vars.push((k, f));
                }
            }
            emit_node(node_id, current.depth, current.bound, frac_vars.len());

            // Prune by bound.
            if let Some(beat) = shared.must_beat() {
                if lp_obj >= beat - prune_eps(beat) {
                    pruned_bound += 1;
                    record_node(node_id, &current, current.bound, NodeOutcome::PrunedBound);
                    break;
                }
            }

            if frac_vars.is_empty() {
                record_node(node_id, &current, current.bound, NodeOutcome::Integral);
                // Integer feasible: offer as incumbent. The dive ends here
                // either way, so clear this worker's published bound before
                // the gap check (mirrors the sequential driver, which
                // excludes the current dive from the bound at a leaf).
                if shared.offer_incumbent(lp_obj, sol.x.clone()) {
                    shared.worker_bounds[wid].store(pack(f64::INFINITY), Ordering::Relaxed);
                    let (mut b, _) = shared.global_bound();
                    if b == f64::INFINITY {
                        b = lp_obj;
                    }
                    emit_incumbent(
                        lp_obj,
                        b,
                        node_id,
                        current.depth,
                        IncumbentSource::IntegralLp,
                    );
                    let gap = (lp_obj - b).abs() / lp_obj.abs().max(1e-10);
                    if gap <= opts.rel_gap {
                        shared.request_stop(Stop::GapOptimal(b));
                    }
                }
                break; // leaf
            }

            // Primal heuristics, as in the sequential driver.
            if !shared.has_incumbent.load(Ordering::Relaxed) {
                let mut rounded = sol.x.clone();
                for &j in int_vars {
                    rounded[j] = rounded[j].round();
                }
                if lp_min.max_violation(&rounded) < 1e-7 {
                    let obj = lp_min.eval_objective(&rounded);
                    if shared.offer_incumbent(obj, rounded) {
                        let (mut b, _) = shared.global_bound();
                        if b == f64::INFINITY {
                            b = current.bound;
                        }
                        emit_incumbent(obj, b, node_id, current.depth, IncumbentSource::Rounding);
                    }
                }
            }
            let dive_period: u64 = if shared.has_incumbent.load(Ordering::Relaxed) {
                200
            } else {
                10
            };
            if node_id % dive_period == 1 {
                let budget = int_vars.len() + 10;
                let lp_start = Instant::now();
                let dived = dive_heuristic(&mut simplex, int_vars, opts.int_tol, budget);
                lp_time += lp_start.elapsed();
                if let Some((obj, x)) = dived {
                    if model.max_integrality_violation(&x) <= opts.int_tol * 10.0
                        && shared.offer_incumbent(obj, x)
                    {
                        let (mut b, _) = shared.global_bound();
                        if b == f64::INFINITY {
                            b = current.bound;
                        }
                        emit_incumbent(obj, b, node_id, current.depth, IncumbentSource::Dive);
                        let gap = (obj - b).abs() / obj.abs().max(1e-10);
                        if gap <= opts.rel_gap {
                            record_node(node_id, &current, current.bound, NodeOutcome::PrunedBound);
                            shared.request_stop(Stop::GapOptimal(b));
                            shared.requeue(current);
                            break;
                        }
                    }
                }
                // Restore this node's bounds and re-solve so branching below
                // uses the node's own relaxation.
                for (k2, &j2) in int_vars.iter().enumerate() {
                    let (lo2, up2) = current.bounds[k2];
                    simplex.set_var_bounds(j2, lo2, up2);
                }
                let lp_start = Instant::now();
                let restored = simplex.solve_warm();
                lp_time += lp_start.elapsed();
                if restored != LpStatus::Optimal {
                    record_node(node_id, &current, current.bound, NodeOutcome::Numerical);
                    shared.requeue(current);
                    break;
                }
            }

            // Select branching variable (worker-local pseudocosts).
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
                seq: 0, // assigned under the pool lock below
                pending_pseudo: Some((bk, false, lp_obj, bfrac)),
                parent: Some(node_id),
                branch: Some((j, false)),
                basis: None,
            };
            let up_node = Node {
                bounds: up_bounds,
                bound: lp_obj,
                depth: current.depth + 1,
                seq: 0,
                pending_pseudo: Some((bk, true, lp_obj, bfrac)),
                parent: Some(node_id),
                branch: Some((j, true)),
                basis: None,
            };

            // Dive into the child on the nearer side of the fraction; the
            // sibling joins the shared best-bound pool with this node's
            // basis.
            let (mut dive_node, mut sibling) = if bfrac < 0.5 {
                (down, up_node)
            } else {
                (up_node, down)
            };
            sibling.basis = Some(simplex.save_basis());
            {
                let mut pool = shared.pool.lock().unwrap();
                dive_node.seq = pool.seq;
                sibling.seq = pool.seq + 1;
                pool.seq += 2;
                pool.heap.push(sibling);
                pool.note_peak();
                shared.work_ready.notify_one();
            }
            current = dive_node;
        }
        shared.end_dive(wid);
    }

    let wall = worker_start.elapsed();
    let wait = Duration::from_nanos(shared.worker_wait_ns[wid].load(Ordering::Relaxed));
    // One aggregate Chrome-trace lane per worker: the span carries the
    // worker's whole lifetime (its `tid` separates the lanes) with the
    // clock breakdown as args.
    worker_tel.record_span(
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
    WorkerOut {
        lp_iterations: simplex.iterations(),
        simplex_bytes: simplex.memory_bytes(),
        stats: simplex.stats,
        health: simplex.health,
        telemetry: worker_tel,
        wall,
        lp_time,
        wait,
        nodes: nodes_mine,
        pruned_acquire,
        pruned_bound,
    }
}
