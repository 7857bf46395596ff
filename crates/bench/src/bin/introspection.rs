//! Observability overhead microbench: solves the same fixed-seed cΣ cell
//! with (1) telemetry fully disabled, (2) metrics-only telemetry — the span
//! toggle present but **off** — and (3) spans **on**, plus the heap
//! accounting toggle off/on and the flight recorder off/on, and writes
//! `BENCH_introspection.json` with the wall times and overhead percentages.
//!
//! The rungs run in two ladders, each against its own `disabled` baseline.
//! The asserted ladder holds the configurations whose budget is asserted
//! (`spans_off`, `alloc_off`, `blackbox_off`); the enabled ladder holds
//! `spans_on`, `alloc_on` and `blackbox_on`, recorded for information. An
//! enabled sample leaves the allocator and the caches in another state
//! (span buffers, counted allocations, a recorder ring), and the sample
//! after it pays for that, so no asserted sample runs right after one.
//!
//! Overhead budgets asserted here, each `--tolerance-pct` (default 2.0):
//!
//! * **Spans off**: with `Telemetry::spans_enabled() == false` every kernel
//!   timing site in the simplex collapses to one cached-bool branch. The
//!   rung still pays for live *metrics* recording: the counters, gauges and
//!   histogram a solve writes, each into an interned slot of a fresh
//!   registry.
//! * **Allocator counting off**: this binary installs
//!   [`tvnep_telemetry::CountingAlloc`], so *every* configuration already
//!   pays the counting-off path (one relaxed load + branch per allocation).
//!   The `alloc_off` run re-measures the disabled configuration and must
//!   land within the same tolerance of the `disabled` run — i.e. the
//!   wrapper's disabled cost is indistinguishable from run-to-run noise.
//!   `alloc_on` records the full-accounting cost for information, and a
//!   direct allocation microbench reports ns/alloc with counting off vs on.
//! * **Flight recorder off**: with `MipOptions::blackbox == None` every
//!   recording site in the solvers is a single `Option` check, so the
//!   `blackbox_off` re-measurement must also land within the tolerance of
//!   the baseline; `blackbox_on` records the live-ring cost for information.
//!
//! `alloc_off` and `blackbox_off` run the code of `disabled`, so they are
//! the ladder's controls: their overheads show what the sampling itself
//! reads on identical work.
//!
//! ```text
//! introspection [--out FILE] [--seed N] [--budget-secs S]
//!               [--tolerance-pct P] [--no-assert]
//! ```

use std::time::{Duration, Instant};

use tvnep_core::{
    solve_tvnep, BuildOptions, Formulation, Objective, ServiceCore, ServiceOptions,
    SubproblemHandles,
};
use tvnep_graph::{grid, star, NodeId, StarDirection};
use tvnep_mip::MipOptions;
use tvnep_model::{Request, Substrate};
use tvnep_telemetry::{alloc, FlightRecorder, Json, Telemetry};
use tvnep_workloads::{generate, WorkloadConfig};

#[global_allocator]
static ALLOC: tvnep_telemetry::CountingAlloc = tvnep_telemetry::CountingAlloc;

/// One rung of an overhead ladder: a label, whether allocator counting is
/// live while its samples run, and the builder of one sample's input (built
/// outside the timed region).
struct Rung<'a, T> {
    label: &'static str,
    counting: bool,
    prepare: Box<dyn Fn() -> T + 'a>,
}

/// Wall-time statistics for one rung: the min and median solve time, the
/// sample count, and the rung's overhead versus the first (baseline) rung.
struct RungStats {
    min: Duration,
    median: Duration,
    samples: usize,
    /// Median of the per-round paired ratios `rung_time / baseline_time`,
    /// as a percentage over the baseline.
    overhead_pct: f64,
}

/// Repeated runs of one workload (`run`, fed each rung's prepared input),
/// one stats entry per rung. Samples are taken **interleaved** round-robin
/// across all rungs rather than rung-by-rung:
/// on a shared host the machine drifts over seconds (other tenants,
/// frequency scaling), and sequential per-rung measurement turns that drift
/// into phantom overhead between configurations that execute identical
/// code. Interleaving makes every round a paired trial — each rung solved
/// once under near-identical machine conditions — so the overhead is
/// computed as the median of per-round ratios against the baseline rung,
/// which cancels both slow patches (hitting all rungs of a round alike)
/// and isolated outlier samples. The order is counterbalanced: odd rounds
/// run the rungs in reverse, so every rung follows each of its neighbours
/// equally often and no rung owns a position in the round. The min/median
/// wall times are reported alongside for scale.
fn measure_ladder<T>(
    per_rung_budget: Duration,
    rungs: &[Rung<T>],
    run: impl Fn(T),
) -> Vec<RungStats> {
    for rung in rungs {
        alloc::set_counting(rung.counting);
        run((rung.prepare)()); // warm-up
        alloc::set_counting(false);
    }
    let budget = per_rung_budget * rungs.len() as u32;
    let mut times: Vec<Vec<Duration>> = rungs.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    while times[0].len() < 5 || (start.elapsed() < budget && times[0].len() < 500) {
        let reverse = times[0].len() % 2 == 1;
        for k in 0..rungs.len() {
            let i = if reverse { rungs.len() - 1 - k } else { k };
            let rung = &rungs[i];
            let input = (rung.prepare)();
            alloc::set_counting(rung.counting);
            let t0 = Instant::now();
            run(input);
            let dt = t0.elapsed();
            alloc::set_counting(false);
            times[i].push(dt);
        }
    }
    let baseline = times[0].clone();
    rungs
        .iter()
        .zip(&mut times)
        .map(|(rung, samples)| {
            let mut ratios: Vec<f64> = samples
                .iter()
                .zip(&baseline)
                .map(|(s, b)| s.as_secs_f64() / b.as_secs_f64())
                .collect();
            ratios.sort_by(f64::total_cmp);
            let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
            samples.sort();
            let min = samples[0];
            let median = samples[samples.len() / 2];
            eprintln!(
                "[introspection] {:<12} samples={:<4} min={min:.3?} median={median:.3?} \
                 overhead={overhead_pct:+.3}%",
                rung.label,
                samples.len()
            );
            RungStats {
                min,
                median,
                samples: samples.len(),
                overhead_pct,
            }
        })
        .collect()
}

/// Nanoseconds per heap round-trip (allocate + free a small boxed slice)
/// under the current counting mode. Direct measurement of the wrapper's
/// per-allocation cost, independent of solver behavior.
fn alloc_ns_per_op() -> f64 {
    const OPS: usize = 2_000_000;
    // Warm-up.
    for i in 0..10_000 {
        std::hint::black_box(vec![i as u8; 64]);
    }
    let t0 = Instant::now();
    for i in 0..OPS {
        std::hint::black_box(vec![(i & 0xff) as u8; 64]);
    }
    t0.elapsed().as_nanos() as f64 / OPS as f64
}

/// Service-observability ladder: the same deterministic admission stream
/// through [`ServiceCore`] under three configurations, sampled round-robin
/// by [`measure_ladder`] like the solver ladder. `disabled` and
/// `disabled_2` both run with telemetry off — every observability site in
/// the admission path collapses to one cached-bool branch — so their paired
/// ratio is the run-to-run noise floor, and the "<2% when observability is
/// off" budget is asserted on it (the alloc-off pattern above).
/// `metrics_only` (metrics-only telemetry) records the cost of live
/// recording for information.
fn serve_overhead(budget: Duration, tolerance_pct: f64, assert_budget: bool) -> Json {
    let substrate = Substrate::uniform(grid(2, 2), 2.0, 5.0);
    // Deterministic contended stream: flexible star requests with rotating
    // mappings — most shift behind earlier reservations, some are rejected.
    let stream: Vec<(Request, Vec<NodeId>)> = (0..12)
        .map(|i| {
            let es = 0.3 * i as f64;
            let r = Request::new(
                format!("s{i}"),
                star(2, StarDirection::AwayFromCenter),
                vec![1.0, 0.5, 0.5],
                vec![0.2, 0.2],
                es,
                es + 6.0,
                1.5,
            );
            let m = vec![NodeId(i % 4), NodeId((i + 1) % 4), NodeId((i + 2) % 4)];
            (r, m)
        })
        .collect();
    let run_once = |opts: ServiceOptions| {
        let mut core = ServiceCore::new(substrate.clone(), 30.0, opts);
        let mut accepted = 0usize;
        for (r, m) in &stream {
            if core
                .admit(r.clone(), m.clone())
                .expect("valid stream")
                .accepted
            {
                accepted += 1;
            }
        }
        std::hint::black_box(accepted);
    };
    let rung = |label: &'static str, telemetry: fn() -> Telemetry| Rung {
        label,
        counting: false,
        prepare: Box::new(move || ServiceOptions {
            subproblem: SubproblemHandles {
                telemetry: telemetry(),
                blackbox: None,
            },
            ..ServiceOptions::default()
        }),
    };
    eprintln!("[introspection] serve ladder, {} admissions", stream.len());
    let measured = measure_ladder(
        budget,
        &[
            rung("disabled", Telemetry::disabled),
            rung("disabled_2", Telemetry::disabled),
            rung("metrics_only", Telemetry::metrics_only),
        ],
        run_once,
    );
    let [dis, d2, metrics] = &measured[..] else {
        unreachable!("serve ladder has three rungs");
    };
    let disabled_overhead_pct = d2.overhead_pct;
    eprintln!(
        "[introspection] serve observability-off overhead {disabled_overhead_pct:+.3}% \
         (budget {tolerance_pct}%), metrics-only {:+.3}%",
        metrics.overhead_pct
    );
    if assert_budget {
        assert!(
            disabled_overhead_pct < tolerance_pct,
            "serve observability-disabled overhead {disabled_overhead_pct:.3}% exceeds the \
             {tolerance_pct}% budget"
        );
    }
    Json::Obj(vec![
        ("admissions".into(), Json::from(stream.len())),
        (
            "runs".into(),
            Json::Arr(vec![
                run_json("disabled", "serve", dis),
                run_json("disabled_2", "serve", d2),
                run_json("metrics_only", "serve", metrics),
            ]),
        ),
        (
            "disabled_overhead_pct".into(),
            Json::from(disabled_overhead_pct),
        ),
        (
            "metrics_only_overhead_pct".into(),
            Json::from(metrics.overhead_pct),
        ),
    ])
}

/// One ladder rung's entry in the bench document.
fn run_json(label: &str, ladder: &str, s: &RungStats) -> Json {
    Json::Obj(vec![
        ("config".into(), Json::from(label)),
        ("ladder".into(), Json::from(ladder)),
        ("samples".into(), Json::from(s.samples)),
        ("min_s".into(), Json::from(s.min.as_secs_f64())),
        ("median_s".into(), Json::from(s.median.as_secs_f64())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_introspection.json".to_string();
    let mut seed = 7u64;
    let mut budget_secs = 3u64;
    let mut tolerance_pct = 2.0f64;
    let mut assert_budget = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out FILE").clone();
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed N");
            }
            "--budget-secs" => {
                i += 1;
                budget_secs = args[i].parse().expect("--budget-secs S");
            }
            "--tolerance-pct" => {
                i += 1;
                tolerance_pct = args[i].parse().expect("--tolerance-pct P");
            }
            "--no-assert" => assert_budget = false,
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    let budget = Duration::from_secs(budget_secs);
    let inst = generate(&WorkloadConfig::tiny(), seed).with_flexibility_after(1.0);

    eprintln!(
        "[introspection] seed={seed} budget={budget:?} host_parallelism={}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    // Two ladders, each led by its own `disabled` baseline (see the module
    // doc). Asserted: `spans_off` (metrics-only telemetry), and the controls
    // `alloc_off` (counting still off — the noise floor for the wrapper's
    // disabled path) and `blackbox_off` (`opts.blackbox == None` — every
    // recording site is one `Option` check). Enabled, for information:
    // `spans_on`, `alloc_on` and `blackbox_on` (a live recorder ring).
    let tel_rung = |label: &'static str, f: fn() -> Telemetry| Rung {
        label,
        counting: false,
        prepare: Box::new(move || {
            let mut opts = MipOptions::with_time_limit(Duration::from_secs(60));
            opts.telemetry = f();
            opts
        }),
    };
    let plain_rung = |label: &'static str, counting: bool| Rung {
        label,
        counting,
        prepare: Box::new(|| MipOptions::with_time_limit(Duration::from_secs(60))),
    };
    let solve_cell = |opts: MipOptions| {
        let out = solve_tvnep(
            &inst,
            Formulation::CSigma,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::CSigma),
            &opts,
        );
        std::hint::black_box(out.mip.nodes);
    };
    eprintln!("[introspection] asserted ladder");
    let asserted = measure_ladder(
        budget,
        &[
            tel_rung("disabled", Telemetry::disabled),
            tel_rung("spans_off", Telemetry::metrics_only),
            plain_rung("alloc_off", false),
            plain_rung("blackbox_off", false),
        ],
        solve_cell,
    );
    eprintln!("[introspection] enabled ladder");
    let enabled = measure_ladder(
        budget,
        &[
            tel_rung("disabled", Telemetry::disabled),
            tel_rung("spans_on", Telemetry::with_spans),
            plain_rung("alloc_on", true),
            Rung {
                label: "blackbox_on",
                counting: false,
                prepare: Box::new(|| {
                    let rec = FlightRecorder::new(tvnep_telemetry::blackbox::DEFAULT_RING_CAP);
                    let mut opts = MipOptions::with_time_limit(Duration::from_secs(60));
                    opts.blackbox = Some(rec.handle(0));
                    opts
                }),
            },
        ],
        solve_cell,
    );
    let ([dis, off, aoff, boff], [dis_enabled, on, aon, bon]) = (&asserted[..], &enabled[..])
    else {
        unreachable!("each ladder has four rungs");
    };
    let alloc_ns_off = alloc_ns_per_op();
    alloc::set_counting(true);
    let alloc_ns_on = alloc_ns_per_op();
    alloc::set_counting(false);

    let off_overhead_pct = off.overhead_pct;
    let on_overhead_pct = on.overhead_pct;
    let alloc_off_overhead_pct = aoff.overhead_pct;
    let alloc_on_overhead_pct = aon.overhead_pct;
    let blackbox_off_overhead_pct = boff.overhead_pct;
    let blackbox_on_overhead_pct = bon.overhead_pct;
    eprintln!(
        "[introspection] spans-off overhead {off_overhead_pct:+.3}% \
         (budget {tolerance_pct}%), spans-on {on_overhead_pct:+.3}%"
    );
    eprintln!(
        "[introspection] alloc-off overhead {alloc_off_overhead_pct:+.3}% \
         (budget {tolerance_pct}%), alloc-on {alloc_on_overhead_pct:+.3}%, \
         alloc ns/op off {alloc_ns_off:.1} on {alloc_ns_on:.1}"
    );
    eprintln!(
        "[introspection] bbox-off overhead {blackbox_off_overhead_pct:+.3}% \
         (budget {tolerance_pct}%), bbox-on {blackbox_on_overhead_pct:+.3}%"
    );

    let doc = Json::Obj(vec![
        ("bench".into(), Json::from("introspection_overhead")),
        ("formulation".into(), Json::from("cSigma")),
        ("workload".into(), Json::from("tiny")),
        ("seed".into(), Json::from(seed)),
        ("budget_s".into(), Json::from(budget.as_secs_f64())),
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
            Json::Arr(vec![
                run_json("disabled", "asserted", dis),
                run_json("spans_off", "asserted", off),
                run_json("alloc_off", "asserted", aoff),
                run_json("blackbox_off", "asserted", boff),
                run_json("disabled", "enabled", dis_enabled),
                run_json("spans_on", "enabled", on),
                run_json("alloc_on", "enabled", aon),
                run_json("blackbox_on", "enabled", bon),
            ]),
        ),
        (
            "spans_off_overhead_pct".into(),
            Json::from(off_overhead_pct),
        ),
        ("spans_on_overhead_pct".into(), Json::from(on_overhead_pct)),
        (
            "alloc_off_overhead_pct".into(),
            Json::from(alloc_off_overhead_pct),
        ),
        (
            "alloc_on_overhead_pct".into(),
            Json::from(alloc_on_overhead_pct),
        ),
        (
            "blackbox_off_overhead_pct".into(),
            Json::from(blackbox_off_overhead_pct),
        ),
        (
            "blackbox_on_overhead_pct".into(),
            Json::from(blackbox_on_overhead_pct),
        ),
        ("alloc_ns_per_op_off".into(), Json::from(alloc_ns_off)),
        ("alloc_ns_per_op_on".into(), Json::from(alloc_ns_on)),
        ("tolerance_pct".into(), Json::from(tolerance_pct)),
        (
            "serve".into(),
            serve_overhead(budget, tolerance_pct, assert_budget),
        ),
    ]);
    std::fs::write(&out_path, doc.pretty()).expect("write introspection json");
    eprintln!("[introspection] wrote {out_path}");

    if assert_budget {
        assert!(
            off_overhead_pct < tolerance_pct,
            "spans-disabled overhead {off_overhead_pct:.3}% exceeds the \
             {tolerance_pct}% budget"
        );
        assert!(
            alloc_off_overhead_pct < tolerance_pct,
            "allocator-counting-disabled overhead {alloc_off_overhead_pct:.3}% exceeds \
             the {tolerance_pct}% budget"
        );
        assert!(
            blackbox_off_overhead_pct < tolerance_pct,
            "flight-recorder-disabled overhead {blackbox_off_overhead_pct:.3}% exceeds \
             the {tolerance_pct}% budget"
        );
    }
}
