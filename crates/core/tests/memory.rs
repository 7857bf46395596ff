//! End-to-end check that the heap accounting is measurably correct: the
//! peak reported while building a Δ-Model must cover the model's own
//! structural size, and the live counter must fall back to (near) the
//! baseline once the model is dropped. The LP engine's gauge, a warm
//! re-solve, an admission stream and the node pool are held to their own
//! allocation accounts.
//!
//! Single test function on purpose: the allocation counters are
//! process-global, and the default test harness runs `#[test]` functions
//! concurrently. The exact checks read the test thread's own counters, as
//! the harness's thread allocates while the test runs.

use tvnep_core::{build_model, BuildOptions, Formulation, Objective, ServiceCore, ServiceOptions};
use tvnep_telemetry::{alloc, MemProbe};
use tvnep_workloads::{generate, WorkloadConfig};

#[global_allocator]
static ALLOC: tvnep_telemetry::CountingAlloc = tvnep_telemetry::CountingAlloc;

/// Allocations of the seed-7 service stream's 100 admissions (below) when
/// each admission built its single-request LP and solved it at every
/// candidate start, the starts its pinned node capacities rule out included.
const LP_AT_EVERY_START_ALLOCS: u64 = 33_423;

#[test]
fn allocator_accounts_for_delta_model_build() {
    alloc::set_counting(true);
    let inst = generate(&WorkloadConfig::tiny(), 3).with_flexibility_after(1.0);

    let baseline_live = alloc::stats().live_bytes;
    let probe = MemProbe::start();
    let built = build_model(
        &inst,
        Formulation::Delta,
        Objective::AccessControl,
        BuildOptions::default_for(Formulation::Delta),
    );
    let model_bytes = built.mip.memory_bytes() as u64;
    let peak = probe.finish();

    // The structural gauge is a lower bound on what was really allocated:
    // every vector it counts is a live heap block while the model exists.
    assert!(model_bytes > 0, "Δ-model structural size is zero");
    assert!(
        peak >= model_bytes,
        "peak {peak} B while building < structural model size {model_bytes} B"
    );
    let live_with_model = alloc::stats().live_bytes;
    assert!(
        live_with_model >= baseline_live + model_bytes,
        "live {live_with_model} B with model held < baseline {baseline_live} B \
         + model {model_bytes} B"
    );

    // Dropping the model must return the live counter to ~baseline
    // (64 KiB slack for allocator bookkeeping and harness noise).
    drop(built);
    let live_after = alloc::stats().live_bytes;
    assert!(
        live_after <= baseline_live + 64 * 1024,
        "live {live_after} B after drop, baseline was {baseline_live} B"
    );

    // The LP engine's own gauge must stay honest too: `mem.lp.simplex_bytes`
    // is fed by `Simplex::memory_bytes()`, which since the sparse-kernel
    // rewrite must cover the LU factors, the eta file, and the devex weight
    // arrays — all of which only materialize during a solve.
    let lp = {
        let built = build_model(
            &inst,
            Formulation::Delta,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::Delta),
        );
        built.mip.relaxation_min()
    };
    let live_before_simplex = alloc::thread_stats().net_bytes;
    let mut simplex = tvnep_lp::Simplex::new(&lp);
    let fresh_bytes = simplex.memory_bytes() as u64;
    simplex.solve();
    let solved_bytes = simplex.memory_bytes() as u64;
    assert!(
        solved_bytes > fresh_bytes,
        "solve must grow the reported footprint (factor + pricing weights): \
         fresh {fresh_bytes} B, solved {solved_bytes} B"
    );
    // The gauge counts every heap block the solver holds, and nothing else:
    // the live bytes of the thread that built and solved it grew by exactly
    // the reported bytes, so an array left out of `memory_bytes` fails here.
    let live_with_simplex = alloc::thread_stats().net_bytes;
    assert_eq!(
        live_with_simplex - live_before_simplex,
        solved_bytes as i64,
        "the solver holds {} B live but reports {solved_bytes} B",
        live_with_simplex - live_before_simplex
    );
    drop(simplex);

    // A warm re-solve of an optimal LP allocates nothing, with metrics on as
    // with telemetry off.
    let lp = build_model(
        &inst,
        Formulation::CSigma,
        Objective::AccessControl,
        BuildOptions::default_for(Formulation::CSigma),
    )
    .mip
    .relaxation_min();
    let mut simplex = tvnep_lp::Simplex::new(&lp);
    assert_eq!(simplex.solve(), tvnep_lp::LpStatus::Optimal);
    for (mode, telemetry) in [
        ("disabled", tvnep_telemetry::Telemetry::disabled()),
        ("metrics-only", tvnep_telemetry::Telemetry::metrics_only()),
    ] {
        simplex.set_telemetry(telemetry);
        // The first solve registers the metric names.
        assert_eq!(simplex.solve_warm(), tvnep_lp::LpStatus::Optimal);
        let allocs = alloc::thread_stats().allocs;
        assert_eq!(simplex.solve_warm(), tvnep_lp::LpStatus::Optimal);
        assert_eq!(
            alloc::thread_stats().allocs - allocs,
            0,
            "{mode}: a warm re-solve of an optimal LP allocated"
        );
    }
    drop(simplex);

    // An admission solves an LP only at the candidate starts its pinned node
    // capacities leave open, and builds that LP only if there is one. The
    // 100 admissions of the benchmark's seed-7 service stream (`tiny`, 100
    // requests, mean inter-arrival 0.125 h, +2 h) must allocate at most two
    // thirds of what an LP at every start took.
    let config = WorkloadConfig {
        num_requests: 100,
        mean_interarrival: 0.125,
        ..WorkloadConfig::tiny()
    };
    let stream = generate(&config, 7).with_flexibility_after(2.0);
    let maps = stream
        .fixed_node_mappings
        .clone()
        .expect("mappings are fixed");
    let mut core = ServiceCore::new(
        stream.substrate.clone(),
        stream.horizon,
        ServiceOptions::default(),
    );
    let allocs = alloc::thread_stats().allocs;
    let mut lps = 0;
    for (request, mapping) in stream.requests.iter().zip(&maps) {
        lps += core.admit(request.clone(), mapping.clone()).unwrap().nodes;
    }
    let allocs = alloc::thread_stats().allocs - allocs;
    assert_eq!(lps, 23, "the stream's admissions solve 23 LPs");
    assert!(
        allocs <= LP_AT_EVERY_START_ALLOCS * 2 / 3,
        "100 admissions allocated {allocs} times, more than two thirds of \
         {LP_AT_EVERY_START_ALLOCS}"
    );
    drop(core);

    // With counting off the probe reports 0 — callers need no branching.
    alloc::set_counting(false);
    let off_probe = MemProbe::start();
    std::hint::black_box(vec![0u8; 1 << 16]);
    assert_eq!(off_probe.finish(), 0);

    // `mem.mip.node_pool_peak_bytes` must count what a waiting node holds:
    // its bounds box and the packed basis (2 bits per LP column) it
    // re-solves from. A multi-threaded solve also reports the peak node
    // count, which yields the per-node size; a one-thread solve must use the
    // same size. What remains after the bounds box and the packed basis is
    // the fixed node header, equal across models of different sizes.
    let headers: Vec<usize> = [(1, 2.0), (2, 0.5)]
        .into_iter()
        .map(|(seed, flex)| {
            let inst = generate(&WorkloadConfig::tiny(), seed).with_flexibility_after(flex);
            node_pool_header_bytes(&build_model(
                &inst,
                Formulation::CSigma,
                Objective::AccessControl,
                BuildOptions::default_for(Formulation::CSigma),
            ))
        })
        .collect();
    assert_eq!(
        headers[0], headers[1],
        "per-node pool bytes must grow with the model exactly by its \
         bounds box and packed basis"
    );
}

/// Solves `built` at two threads and at one, checks that both thread counts
/// account the same bytes per pooled node, and returns that size minus the
/// node's bounds box and packed basis.
fn node_pool_header_bytes(built: &tvnep_core::BuiltModel) -> usize {
    let lp = built.mip.relaxation_min();
    let columns = lp.num_vars() + lp.num_rows();
    let int_vars = built
        .mip
        .kinds()
        .iter()
        .filter(|k| !matches!(k, tvnep_mip::VarKind::Continuous))
        .count();
    let pool_gauges = |threads: usize| {
        let telemetry = tvnep_telemetry::Telemetry::metrics_only();
        let opts = tvnep_mip::MipOptions {
            threads,
            telemetry: telemetry.clone(),
            ..tvnep_mip::MipOptions::default()
        };
        tvnep_mip::solve_with(&built.mip, &opts);
        let snap = telemetry.snapshot();
        (
            snap.gauge("mem.mip.node_pool_peak_bytes").unwrap() as usize,
            snap.gauge("par.pool_peak_depth").map(|p| p as usize),
        )
    };
    let (par_bytes, par_peak) = pool_gauges(2);
    let par_peak = par_peak.expect("a two-thread solve reports its pool peak");
    assert!(par_peak >= 1 && par_bytes % par_peak == 0);
    let node_bytes = par_bytes / par_peak;
    let (seq_bytes, _) = pool_gauges(1);
    assert!(
        seq_bytes >= node_bytes && seq_bytes % node_bytes == 0,
        "one-thread pool peak {seq_bytes} B is not a whole number of \
         {node_bytes} B nodes"
    );
    let payload = int_vars * std::mem::size_of::<(f64, f64)>() + columns.div_ceil(4);
    assert!(
        node_bytes > payload,
        "{node_bytes} B per pooled node < bounds box + packed basis {payload} B"
    );
    node_bytes - payload
}
