//! The greedy algorithm cΣᴳ_A (Section V): iteratively admit requests in
//! order of earliest possible start, each time solving a cΣ model in which
//! all previously-decided requests have pinned schedules and acceptance
//! status, under the objective (21)
//! `max T · x_R(L[i]) + (T − t⁻_{L[i]})` —
//! embed the new request if at all possible, and then as early as possible.

use std::time::{Duration, Instant};

use crate::formulation::{build_model, BuildOptions, Formulation, Objective};
use tvnep_mip::{solve_with, MipOptions, MipStatus};
use tvnep_model::{Instance, ScheduledRequest, TemporalSolution};

/// Options for the greedy run.
#[derive(Debug, Clone, Default)]
pub struct GreedyOptions {
    /// MIP options applied to every per-iteration subproblem.
    pub subproblem: MipOptions,
}

/// One admission decision of the greedy loop, in decision order.
#[derive(Debug, Clone)]
pub struct GreedyIterationRecord {
    /// Original request index decided in this iteration.
    pub request: usize,
    /// Whether the request was admitted.
    pub accepted: bool,
    /// Constraint rows of the per-iteration cΣ subproblem.
    pub model_rows: usize,
    /// Columns of the per-iteration cΣ subproblem.
    pub model_cols: usize,
    /// Branch-and-bound nodes spent on this subproblem.
    pub nodes: u64,
    /// Wall-clock time of this subproblem solve (including the build).
    pub runtime: Duration,
}

/// Result of the greedy algorithm.
pub struct GreedyOutcome {
    /// Final solution, in the *original* request order of the instance.
    pub solution: TemporalSolution,
    /// Acceptance decision per original request index.
    pub accepted: Vec<bool>,
    /// Iterations performed (= number of requests).
    pub iterations: usize,
    /// Total wall-clock time.
    pub runtime: Duration,
    /// Total branch-and-bound nodes over all subproblems.
    pub total_nodes: u64,
    /// Per-iteration admission records, in decision (earliest-start) order.
    pub per_iteration: Vec<GreedyIterationRecord>,
}

/// Runs cΣᴳ_A on `instance`.
///
/// # Panics
///
/// Panics if the instance does not fix node mappings — the algorithm takes
/// them as input (`x'_V` in the paper; alternative mappings could be produced
/// by an embedding heuristic upstream).
pub fn greedy_csigma(instance: &Instance, opts: &GreedyOptions) -> GreedyOutcome {
    assert!(
        instance.fixed_node_mappings.is_some(),
        "greedy cΣᴳ_A requires a-priori node mappings"
    );
    let start_clock = Instant::now();
    let telemetry = opts.subproblem.telemetry.clone();
    let _greedy_span = telemetry.span("greedy.solve");
    let k = instance.num_requests();
    let maps = instance
        .fixed_node_mappings
        .as_ref()
        .expect("checked above");

    // L: requests ordered by earliest start (stable on ties).
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        instance.requests[a]
            .earliest_start
            .partial_cmp(&instance.requests[b].earliest_start)
            .expect("finite start times")
            .then(a.cmp(&b))
    });

    // Working copies, windows pinned as decisions are made.
    let mut working: Vec<tvnep_model::Request> = order
        .iter()
        .map(|&i| instance.requests[i].clone())
        .collect();
    let mut decided: Vec<Option<bool>> = vec![None; k];
    let mut total_nodes = 0u64;
    let mut last_solution: Option<TemporalSolution> = None;
    let mut per_iteration: Vec<GreedyIterationRecord> = Vec::with_capacity(k);

    for i in 0..k {
        let iter_clock = Instant::now();
        let _iter_span = telemetry
            .span("greedy.iteration")
            .arg("request", order[i] as f64);
        let sub_requests: Vec<_> = working[..=i].to_vec();
        let sub_maps: Vec<_> = order[..=i].iter().map(|&oi| maps[oi].clone()).collect();
        let sub = Instance::new(
            instance.substrate.clone(),
            sub_requests,
            instance.horizon,
            Some(sub_maps),
        );

        // Build cΣ, then override objective to (21) and fix prior decisions
        // (Constraints (24)/(25)).
        let mut built = build_model(
            &sub,
            Formulation::CSigma,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::CSigma),
        );
        #[allow(clippy::needless_range_loop)] // `r` is a request id
        for r in 0..=i {
            built.mip.set_obj(built.emb.x_r[r], 0.0);
            match decided[r] {
                Some(true) => built.mip.fix_var(built.emb.x_r[r], 1.0),
                Some(false) => built.mip.fix_var(built.emb.x_r[r], 0.0),
                None => {}
            }
        }
        built.mip.set_obj(built.emb.x_r[i], instance.horizon);
        built.mip.set_obj(built.events.t_minus[i], -1.0);
        built.mip.set_obj_offset(instance.horizon);
        crate::formulation::emit_build_stats(&telemetry, &built.stats);

        let result = solve_with(&built.mip, &opts.subproblem);
        total_nodes += result.nodes;

        let (accept, sol) = match (&result.status, &result.x) {
            (MipStatus::Optimal | MipStatus::Feasible, Some(x)) => {
                let sol = built.extract_solution(&sub, x);
                (sol.scheduled[i].accepted, Some(sol))
            }
            // No feasible point within limits: reject conservatively. The
            // subproblem is always feasible (reject-everything-undecided is a
            // solution), so this only happens under very tight limits.
            _ => (false, None),
        };

        if accept {
            let s = sol.as_ref().expect("accepted implies solution").scheduled[i].start;
            working[i].earliest_start = s.max(0.0);
            working[i].latest_end = working[i].earliest_start + working[i].duration;
            decided[i] = Some(true);
        } else {
            working[i].latest_end = working[i].earliest_start + working[i].duration;
            decided[i] = Some(false);
        }
        if let Some(s) = sol {
            last_solution = Some(s);
        }

        let record = GreedyIterationRecord {
            request: order[i],
            accepted: accept,
            model_rows: built.mip.num_rows(),
            model_cols: built.mip.num_vars(),
            nodes: result.nodes,
            runtime: iter_clock.elapsed(),
        };
        telemetry.counter_add("greedy.iterations", 1);
        if accept {
            telemetry.counter_add("greedy.accepted", 1);
        }
        per_iteration.push(record);
    }

    // Map the final iteration's solution back to original request order. If
    // the last subproblem hit its limits without an incumbent (only possible
    // under very tight per-iteration budgets), the most recent full solution
    // may cover fewer requests; pad the tail as rejected with pinned windows
    // so the output still satisfies Definition 2.1's schedule requirements.
    let mut scheduled_sorted: Vec<ScheduledRequest> =
        last_solution.map(|s| s.scheduled).unwrap_or_default();
    for (pos, r) in working.iter().enumerate().skip(scheduled_sorted.len()) {
        decided[pos] = Some(false);
        scheduled_sorted.push(ScheduledRequest {
            accepted: false,
            start: r.earliest_start,
            end: r.earliest_start + r.duration,
            embedding: None,
        });
    }
    let mut scheduled: Vec<Option<ScheduledRequest>> = vec![None; k];
    for (pos, &orig) in order.iter().enumerate() {
        scheduled[orig] = Some(scheduled_sorted[pos].clone());
    }
    let solution = TemporalSolution {
        scheduled: scheduled
            .into_iter()
            .map(|s| s.expect("all filled"))
            .collect(),
        reported_objective: None,
    };
    let mut accepted = vec![false; k];
    for (pos, &orig) in order.iter().enumerate() {
        accepted[orig] = decided[pos] == Some(true);
    }
    let mut solution = solution;
    solution.reported_objective = Some(solution.revenue(instance));

    telemetry.gauge_set("greedy.runtime_s", start_clock.elapsed().as_secs_f64());
    telemetry.counter_add("greedy.total_nodes", total_nodes);

    GreedyOutcome {
        solution,
        accepted,
        iterations: k,
        runtime: start_clock.elapsed(),
        total_nodes,
        per_iteration,
    }
}
