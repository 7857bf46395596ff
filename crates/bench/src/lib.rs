//! # tvnep-bench — evaluation harness
//!
//! Regenerates every figure of the paper's Section VI (see DESIGN.md §4 for
//! the experiment index). `tvnep-cli campaign` drives the per-cell runners
//! below through the resumable [`campaign`] layer and writes one CSV row
//! per (scenario, flexibility) cell, mirroring the quantities the paper
//! plots:
//!
//! * Fig 3 — runtime per formulation (time-limit-capped);
//! * Fig 4 — objective gap per formulation (∞ when no solution was found);
//! * Fig 5/6 — runtime/gap of the cΣ-Model under the non-access-control
//!   objectives;
//! * Fig 7 — greedy cΣᴳ_A revenue relative to the cΣ-Model's
//!   ([`campaign::fig7_csv`]);
//! * Fig 8 — number of requests embedded by the cΣ-Model;
//! * Fig 9 — access-control objective relative to zero flexibility
//!   ([`campaign::fig9_csv`]).
//!
//! [`ablation_csv`] adds the discretization and cut ablations.
//!
//! The unit of work is one *cell* — a `(label, seed, flexibility)` triple —
//! so the [`campaign`] journal can checkpoint after every solve and a killed
//! run resumes at the first unfinished cell. Each cell runner wraps the
//! whole solve (including any greedy warm-up) in a
//! [`tvnep_telemetry::MemProbe`], so the `peak_bytes` column reports the
//! high-water mark of live heap bytes per cell when the driving binary has
//! installed [`tvnep_telemetry::CountingAlloc`].

pub mod campaign;
pub mod compare;
pub mod journal;

use std::time::{Duration, Instant};

use campaign::{CellRecord, PlannedCell};
use tvnep_core::{
    build_discrete, build_model, discretization_gap, greedy_csigma, solve_tvnep, BuildOptions,
    EventOptions, Formulation, GreedyOptions, Objective,
};
use tvnep_mip::{solve_with, MipOptions, MipStatus, ProgressRecorder};
use tvnep_model::{is_feasible, Instance};
use tvnep_telemetry::{MemProbe, Telemetry};
use tvnep_workloads::{generate, WorkloadConfig};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Workload generator parameters.
    pub workload: WorkloadConfig,
    /// Scenario seeds ("24 workloads" in the paper; fewer by default here).
    pub seeds: Vec<u64>,
    /// Flexibility sweep in hours (paper: 0..6 step 0.5).
    pub flexibilities: Vec<f64>,
    /// Per-instance time limit (paper: 1 h on Gurobi).
    pub time_limit: Duration,
    /// Branch-and-bound worker threads per solve (1 = deterministic
    /// sequential, 0 = all available cores). Recorded per cell so speedup
    /// comparisons across runs stay attributable.
    pub threads: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadConfig::small(),
            seeds: vec![1, 2, 3],
            flexibilities: (0..=6).map(|i| i as f64).collect(),
            time_limit: Duration::from_secs(20),
            threads: 1,
        }
    }
}

impl HarnessConfig {
    /// Worker threads actually used per solve (resolves `threads = 0`).
    pub fn effective_threads(&self) -> usize {
        MipOptions {
            threads: self.threads,
            ..Default::default()
        }
        .effective_threads()
    }
}

fn instance_for(cfg: &HarnessConfig, seed: u64, flex: f64) -> Instance {
    generate(&cfg.workload, seed).with_flexibility_after(flex)
}

/// Runs one formulation / access-control cell — the campaign runner's unit
/// behind Figures 3, 4, 8 and 9. The greedy cΣᴳ_A runs first and its
/// revenue seeds the exact solver as a cutoff: it plays the role of
/// Gurobi's primal heuristics, and it is the only primal heuristic the
/// branch and bound has. Every formulation gets the same cutoff, which
/// keeps the comparison fair.
pub fn run_formulation_cell(
    cfg: &HarnessConfig,
    formulation: Formulation,
    cell: &PlannedCell,
) -> CellRecord {
    let probe = MemProbe::start();
    let inst = instance_for(cfg, cell.seed, cell.flex);
    let telemetry = Telemetry::metrics_only();
    let mut opts = MipOptions::with_time_limit(cfg.time_limit);
    opts.telemetry = telemetry.clone();
    opts.threads = cfg.threads;
    let progress = ProgressRecorder::new();
    opts.progress_events = Some(progress.clone());
    let mut sub = MipOptions::with_time_limit(cfg.time_limit / 4);
    sub.threads = cfg.threads;
    let greedy = greedy_csigma(&inst, &GreedyOptions { subproblem: sub });
    let greedy_obj = greedy.solution.revenue(&inst);
    // Search only for strictly better solutions.
    opts.cutoff = Some(greedy_obj - 1e-6);
    let t0 = Instant::now();
    let run = solve_tvnep(
        &inst,
        formulation,
        Objective::AccessControl,
        BuildOptions::default_for(formulation),
        &opts,
    );
    let runtime = t0.elapsed();
    // Merge the greedy cutoff back in: if branch and bound proved
    // nothing better exists, the greedy solution is optimal.
    let (status, objective) = match (run.mip.status, run.mip.objective) {
        (MipStatus::NoBetterThanCutoff, _) => (MipStatus::Optimal, greedy_obj),
        (MipStatus::NoSolution, None) => (MipStatus::Feasible, greedy_obj),
        (st, o) => (st, o.map_or(greedy_obj, |a| a.max(greedy_obj))),
    };
    let gap = ((run.mip.best_bound - objective).abs() / objective.abs().max(1e-10)).max(0.0);
    let verified = run.solution.as_ref().map(|s| is_feasible(&inst, s));
    // When branch and bound holds the incumbent, count from it;
    // otherwise the greedy cutoff solution is the incumbent.
    let accepted = run
        .solution
        .as_ref()
        .unwrap_or(&greedy.solution)
        .accepted_count();
    let psum = progress.summary(runtime, status == MipStatus::Optimal);
    CellRecord {
        label: cell.label.clone(),
        seed: cell.seed,
        flex: cell.flex,
        skipped: false,
        runtime_s: runtime.as_secs_f64(),
        status: format!("{status:?}"),
        objective: Some(objective),
        best_bound: run.mip.best_bound,
        gap: match status {
            MipStatus::Optimal => Some(0.0),
            _ => Some(gap),
        },
        accepted: Some(accepted as u64),
        nodes: run.mip.nodes,
        lp_iterations: telemetry.snapshot().counter("lp.iterations"),
        verified,
        threads: cfg.effective_threads() as u64,
        peak_bytes: probe.finish(),
        time_to_first_incumbent_s: psum.time_to_first_incumbent_s,
        primal_integral: Some(psum.primal_integral),
    }
}

/// Runs one fixed-request-set objective cell on the cΣ-Model. When the
/// greedy pass accepts no request at all there is no embeddable set to
/// optimize over, and the cell is [skipped](CellRecord::skipped) (journaled
/// as such by the campaign runner, which keeps resume deterministic).
pub fn run_objective_cell(
    cfg: &HarnessConfig,
    objective: Objective,
    cell: &PlannedCell,
) -> CellRecord {
    let probe = MemProbe::start();
    let inst = instance_for(cfg, cell.seed, cell.flex);
    // Fixed-set objectives need an embeddable request set: keep the
    // subset the greedy accepts (the paper plots the number of
    // requests per flexibility in Fig 8 for the same reason).
    let mut sub = MipOptions::with_time_limit(cfg.time_limit / 4);
    sub.threads = cfg.threads;
    let g = greedy_csigma(&inst, &GreedyOptions { subproblem: sub });
    let keep: Vec<usize> = (0..inst.num_requests())
        .filter(|&r| g.accepted[r])
        .collect();
    if keep.is_empty() {
        return CellRecord::skipped(cell);
    }
    let maps = inst
        .fixed_node_mappings
        .as_ref()
        .expect("generator pins mappings");
    let sub = Instance::new(
        inst.substrate.clone(),
        keep.iter().map(|&r| inst.requests[r].clone()).collect(),
        inst.horizon,
        Some(keep.iter().map(|&r| maps[r].clone()).collect()),
    );
    let telemetry = Telemetry::metrics_only();
    let mut opts = MipOptions::with_time_limit(cfg.time_limit);
    opts.telemetry = telemetry.clone();
    opts.threads = cfg.threads;
    let progress = ProgressRecorder::new();
    opts.progress_events = Some(progress.clone());
    let t0 = Instant::now();
    let run = solve_tvnep(
        &sub,
        Formulation::CSigma,
        objective,
        BuildOptions::default_for(Formulation::CSigma),
        &opts,
    );
    let runtime = t0.elapsed();
    let verified = run.solution.as_ref().map(|s| is_feasible(&sub, s));
    let psum = progress.summary(runtime, run.mip.status == MipStatus::Optimal);
    CellRecord {
        label: cell.label.clone(),
        seed: cell.seed,
        flex: cell.flex,
        skipped: false,
        runtime_s: runtime.as_secs_f64(),
        status: format!("{:?}", run.mip.status),
        objective: run.mip.objective,
        best_bound: run.mip.best_bound,
        gap: run.mip.gap,
        accepted: Some(keep.len() as u64),
        nodes: run.mip.nodes,
        lp_iterations: telemetry.snapshot().counter("lp.iterations"),
        verified,
        threads: cfg.effective_threads() as u64,
        peak_bytes: probe.finish(),
        time_to_first_incumbent_s: psum.time_to_first_incumbent_s,
        primal_integral: Some(psum.primal_integral),
    }
}

/// Runs one greedy cell (Figure 7 numerator; the runtime column backs the
/// "seconds, not hours" claim of Section VI-B2).
pub fn run_greedy_cell(cfg: &HarnessConfig, cell: &PlannedCell) -> CellRecord {
    let probe = MemProbe::start();
    let inst = instance_for(cfg, cell.seed, cell.flex);
    let telemetry = Telemetry::metrics_only();
    let mut subproblem = MipOptions::with_time_limit(cfg.time_limit / 4);
    subproblem.telemetry = telemetry.clone();
    subproblem.threads = cfg.threads;
    let t0 = Instant::now();
    let g = greedy_csigma(&inst, &GreedyOptions { subproblem });
    let runtime = t0.elapsed();
    let rev = g.solution.revenue(&inst);
    let ok = is_feasible(&inst, &g.solution);
    CellRecord {
        label: cell.label.clone(),
        seed: cell.seed,
        flex: cell.flex,
        skipped: false,
        runtime_s: runtime.as_secs_f64(),
        status: format!("{:?}", MipStatus::Feasible),
        objective: Some(rev),
        best_bound: f64::NAN,
        gap: None,
        accepted: Some(g.solution.accepted_count() as u64),
        nodes: g.total_nodes,
        lp_iterations: telemetry.snapshot().counter("lp.iterations"),
        verified: Some(ok),
        threads: cfg.effective_threads() as u64,
        peak_bytes: probe.finish(),
        // Greedy runs have no branch-and-bound convergence stream.
        time_to_first_incumbent_s: None,
        primal_integral: None,
    }
}

/// The two ablation tables behind DESIGN.md's design choices, as CSV with a
/// `#` header line each: (a) `ablation_discrete`, the discretization gap of
/// a time-slotted baseline against the continuous cΣ-Model (Section III's
/// motivation), and (b) `ablation_cuts`, the effect of the Section IV-C
/// cuts on the cΣ solve. Both run on the first two of `cfg`'s seeds, at a
/// flexibility of 2 h and 1 h.
pub fn ablation_csv(cfg: &HarnessConfig) -> String {
    let mut out =
        String::from("# ablation_discrete: seed,slots,disc_rows,csigma_rows,gap,peak_bytes\n");
    let opts = MipOptions::with_time_limit(cfg.time_limit);
    for &seed in cfg.seeds.iter().take(2) {
        let inst = instance_for(cfg, seed, 2.0);
        let csigma = build_model(
            &inst,
            Formulation::CSigma,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::CSigma),
        );
        for slots in [8usize, 16, 32] {
            let probe = MemProbe::start();
            let disc = build_discrete(&inst, slots);
            let gap = discretization_gap(&inst, slots, &opts);
            out += &format!(
                "ablation_discrete,{seed},{slots},{},{},{},{}\n",
                disc.mip.num_rows(),
                csigma.mip.num_rows(),
                gap.map_or("NA".into(), |g| format!("{g:.4}")),
                probe.finish(),
            );
        }
    }
    out += "# ablation_cuts: seed,config,rows,ints,runtime_s,status,peak_bytes\n";
    let event_options = |ranges, cuts| EventOptions {
        dependency_ranges: ranges,
        pairwise_cuts: cuts,
        ordering_cuts: cuts,
    };
    for &seed in cfg.seeds.iter().take(2) {
        let inst = instance_for(cfg, seed, 1.0);
        for (name, event) in [
            ("full_cuts", event_options(true, true)),
            ("ranges_only", event_options(true, false)),
            ("plain", event_options(false, false)),
        ] {
            let probe = MemProbe::start();
            let t0 = Instant::now();
            let built = build_model(
                &inst,
                Formulation::CSigma,
                Objective::AccessControl,
                BuildOptions {
                    event,
                    flow_mode: Default::default(),
                },
            );
            let run = solve_with(&built.mip, &opts);
            out += &format!(
                "ablation_cuts,{seed},{name},{},{},{:.3},{:?},{}\n",
                built.mip.num_rows(),
                built.mip.num_integers(),
                t0.elapsed().as_secs_f64(),
                run.status,
                probe.finish(),
            );
        }
    }
    out
}

/// CSV header of [`campaign::CellRecord::csv_row`].
pub const CSV_HEADER: &str = "label,seed,flex_h,runtime_s,status,objective,best_bound,gap,\
                              accepted,nodes,lp_iters,verified,threads,peak_bytes,\
                              ttfi_s,primal_integral";
