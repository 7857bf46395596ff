//! Parallel-solver baseline: wall-clock and LP-iteration comparison of the
//! branch-and-bound driver at 1, 2 and 4 worker threads on a fixed-seed
//! cΣ scenario. Writes `BENCH_parallel.json` so speedups are tracked in-repo
//! alongside the campaign results.
//!
//! ```text
//! baseline [--smoke] [--out FILE] [--seed N] [--time-limit SECS]
//! ```
//!
//! `--smoke` shrinks the workload and time limit for CI (a functional check
//! that every thread count terminates with the same objective, not a
//! measurement). Without it, each (flexibility × thread-count) cell solves
//! the same instance to completion and the JSON records the per-cell speedup
//! relative to the sequential run.

use std::time::{Duration, Instant};

use tvnep_bench::HarnessConfig;
use tvnep_core::{solve_tvnep, BuildOptions, Formulation, Objective};
use tvnep_mip::MipOptions;
use tvnep_telemetry::{Json, Telemetry};
use tvnep_workloads::{generate, WorkloadConfig};

/// One (flexibility, threads) measurement.
struct Run {
    flex: f64,
    threads: usize,
    runtime: Duration,
    lp_iters: u64,
    nodes: u64,
    status: String,
    objective: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_parallel.json".to_string();
    let mut seed = 7u64;
    let mut time_limit: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out FILE").clone();
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed N");
            }
            "--time-limit" => {
                i += 1;
                time_limit = Some(args[i].parse().expect("--time-limit SECS"));
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let workload = if smoke {
        WorkloadConfig::tiny()
    } else {
        WorkloadConfig::small()
    };
    let limit = Duration::from_secs(time_limit.unwrap_or(if smoke { 10 } else { 120 }));
    let flexes: &[f64] = if smoke { &[0.5] } else { &[0.5, 2.0] };
    let thread_counts = [1usize, 2, 4];

    eprintln!(
        "[baseline] seed={seed} smoke={smoke} limit={limit:?} host_parallelism={}",
        HarnessConfig {
            threads: 0,
            ..Default::default()
        }
        .effective_threads()
    );

    let mut runs: Vec<Run> = Vec::new();
    for &flex in flexes {
        let inst = generate(&workload, seed).with_flexibility_after(flex);
        for &threads in &thread_counts {
            let telemetry = Telemetry::metrics_only();
            let mut opts = MipOptions::with_time_limit(limit);
            opts.telemetry = telemetry.clone();
            opts.threads = threads;
            let t0 = Instant::now();
            let r = solve_tvnep(
                &inst,
                Formulation::CSigma,
                Objective::AccessControl,
                BuildOptions::default_for(Formulation::CSigma),
                &opts,
            );
            let runtime = t0.elapsed();
            let lp_iters = telemetry.snapshot().counter("lp.iterations");
            eprintln!(
                "[baseline] flex={flex} threads={threads} status={:?} obj={:?} \
                 nodes={} lp_iters={lp_iters} runtime={runtime:.3?}",
                r.mip.status, r.mip.objective, r.mip.nodes
            );
            runs.push(Run {
                flex,
                threads,
                runtime,
                lp_iters,
                nodes: r.mip.nodes,
                status: format!("{:?}", r.mip.status),
                objective: r.mip.objective,
            });
        }
    }

    // Cross-check: when every thread count closed a cell, the objectives
    // must agree (same instance, exact solver — only the search order
    // differs). Time-limited incumbents are search-order dependent and are
    // reported as-is without comparison.
    for &flex in flexes {
        let cell: Vec<&Run> = runs.iter().filter(|r| r.flex == flex).collect();
        if !cell.iter().all(|r| r.status == "Optimal") {
            eprintln!("[baseline] flex={flex}: not all thread counts closed; skipping cross-check");
            continue;
        }
        let base = cell[0].objective.expect("optimal has objective");
        for r in &cell {
            let o = r.objective.expect("optimal has objective");
            assert!(
                (o - base).abs() < 1e-6,
                "flex {flex}: threads={} objective {o} != sequential {base}",
                r.threads
            );
        }
    }

    let speedup_of = |r: &Run| -> Option<f64> {
        runs.iter()
            .find(|s| s.flex == r.flex && s.threads == 1)
            .map(|s| s.runtime.as_secs_f64() / r.runtime.as_secs_f64().max(1e-9))
    };
    let doc = Json::Obj(vec![
        ("bench".into(), Json::from("parallel_baseline")),
        ("formulation".into(), Json::from("cSigma")),
        ("seed".into(), Json::from(seed)),
        ("smoke".into(), Json::from(smoke)),
        ("time_limit_s".into(), Json::from(limit.as_secs_f64())),
        (
            "host_parallelism".into(),
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        ),
        (
            "runs".into(),
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("flex_h".into(), Json::from(r.flex)),
                            ("threads".into(), Json::from(r.threads)),
                            ("runtime_s".into(), Json::from(r.runtime.as_secs_f64())),
                            ("lp_iters".into(), Json::from(r.lp_iters)),
                            ("nodes".into(), Json::from(r.nodes)),
                            ("status".into(), Json::from(r.status.as_str())),
                            (
                                "objective".into(),
                                r.objective.map_or(Json::Null, Json::from),
                            ),
                            (
                                "speedup_vs_1".into(),
                                speedup_of(r).map_or(Json::Null, Json::from),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc.pretty()).expect("write baseline json");
    eprintln!("[baseline] wrote {out_path}");
}
