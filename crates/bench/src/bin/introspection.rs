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
use tvnep_lp::sparse::CscMatrix;
use tvnep_lp::BasisFactor;
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

/// The fastest of 5 repetitions of `iters` calls of `body`, in ns per call.
fn time_min_ns(iters: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            body();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// A basis shaped like the TVNEP ones, as `slack_heavy_basis` in
/// `crates/lp/tests/common` builds it: `−e_i` slack columns on four fifths of
/// the rows; on the rest, diagonally dominant structural columns that touch
/// their neighbours and two random slack rows, and one dense 4 × 4 block.
/// Most elimination steps pivot on a column singleton, and `L` stays
/// nearly empty, so FTRAN takes the hypersparse walk.
fn slack_heavy_basis(m: usize, next_u64: &mut impl FnMut() -> u64) -> (CscMatrix, Vec<usize>) {
    const VALS: [f64; 6] = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0];
    const DIAG: [f64; 3] = [4.0, -4.0, 8.0];
    let mut range = |n: usize| (next_u64() % n as u64) as usize;
    let first = m - m / 5;
    let mut cols = CscMatrix::empty(m);
    for i in 0..first {
        cols.push_column(&[(i, -1.0)]);
    }
    for row in first..m {
        let mut col = vec![(row, DIAG[range(3)])];
        if row > first {
            col.push((row - 1, VALS[range(4)]));
        }
        if row % 7 == 3 && row + 1 < m {
            col.push((row + 1, VALS[range(4)]));
        }
        if row + 4 >= m {
            col.extend((m - 4..m).map(|r| (r, VALS[range(4)])));
        }
        for _ in 0..2 {
            col.push((range(first), VALS[range(6)]));
        }
        col.sort_unstable_by_key(|&(r, _)| r);
        col.dedup_by_key(|e| e.0);
        cols.push_column(&col);
    }
    (cols, (0..m).collect())
}

/// Kernel microbench: ns per FTRAN on a fixed-seed sparse basis, through the
/// entry point the simplex engine uses ([`BasisFactor::ftran_sparse`], which
/// sweeps this basis's dense `L` whole), versus the retired dense-inverse
/// algorithm (rebuilt here as the comparator); ns per factorization of that
/// basis; and ns per factorization and per FTRAN of an m = 620 slack-heavy
/// basis, the shape of the TVNEP bases, whose FTRAN takes the hypersparse
/// walk. Returns a JSON object for the bench document.
fn kernel_microbench(seed: u64) -> Json {
    const M: usize = 200;
    const OFF_DIAG: usize = 3 * M;
    // splitmix64 — the repo-wide deterministic stream.
    let mut state = seed;
    let mut next_u64 = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut unit = move || (next_u64() >> 11) as f64 / (1u64 << 53) as f64;

    // Random sparse basis: dominant diagonal plus ~3m off-diagonal entries —
    // the density regime of a warm simplex basis (slacks + a structural
    // minority).
    let mut entries: Vec<Vec<(usize, f64)>> =
        (0..M).map(|c| vec![(c, 1.0 + 2.0 * unit())]).collect();
    for _ in 0..OFF_DIAG {
        let c = (unit() * M as f64) as usize % M;
        let r = (unit() * M as f64) as usize % M;
        let v = unit() - 0.5;
        if v != 0.0 && !entries[c].iter().any(|&(rr, _)| rr == r) {
            entries[c].push((r, v));
        }
    }
    let mut cols = CscMatrix::empty(M);
    for col in &mut entries {
        col.sort_unstable_by_key(|&(r, _)| r);
        cols.push_column(col);
    }
    let basis: Vec<usize> = (0..M).collect();

    let mut factor = BasisFactor::default();
    assert!(factor.factorize(&cols, &basis), "bench basis singular");

    // Dense comparator: Gauss–Jordan inverse (the old kernel's refactorize),
    // FTRAN as the old row-scaled accumulation — O(m²) per solve.
    let mut bmat = vec![0.0; M * M];
    let mut inv = vec![0.0; M * M];
    for (c, &j) in basis.iter().enumerate() {
        let (rows, vals) = cols.column(j);
        for (&r, &v) in rows.iter().zip(vals) {
            bmat[r * M + c] = v;
        }
    }
    for i in 0..M {
        inv[i * M + i] = 1.0;
    }
    for col in 0..M {
        let piv = (col..M)
            .max_by(|&a, &b| {
                bmat[a * M + col]
                    .abs()
                    .partial_cmp(&bmat[b * M + col].abs())
                    .expect("finite")
            })
            .expect("nonempty");
        if piv != col {
            for k in 0..M {
                bmat.swap(col * M + k, piv * M + k);
                inv.swap(col * M + k, piv * M + k);
            }
        }
        let inv_piv = 1.0 / bmat[col * M + col];
        for k in 0..M {
            bmat[col * M + k] *= inv_piv;
            inv[col * M + k] *= inv_piv;
        }
        for r in 0..M {
            if r != col {
                let f = bmat[r * M + col];
                if f != 0.0 {
                    for k in 0..M {
                        bmat[r * M + k] -= f * bmat[col * M + k];
                        inv[r * M + k] -= f * inv[col * M + k];
                    }
                }
            }
        }
    }
    // binv[j*M + i] = (B⁻¹)_{i,j}: column-major, as the old kernel stored it.
    let mut binv = vec![0.0; M * M];
    for i in 0..M {
        for j in 0..M {
            binv[j * M + i] = inv[i * M + j];
        }
    }

    // A sparse right-hand side — the FTRAN spike of an entering column.
    let mut rhs = vec![0.0; M];
    for _ in 0..4 {
        rhs[(unit() * M as f64) as usize % M] = 2.0 * unit() - 1.0;
    }
    let rhs_rows: Vec<usize> = (0..M).filter(|&r| rhs[r] != 0.0).collect();

    const ITERS: usize = 2_000;
    const FACTOR_ITERS: usize = 200;

    let mut x = vec![0.0; M];
    let mut support = Vec::new();
    let sparse_ns = time_min_ns(ITERS, || {
        x.copy_from_slice(&rhs);
        factor.ftran_sparse(&mut x, &rhs_rows, &mut support);
        std::hint::black_box(&x);
    });
    let mut xd = vec![0.0; M];
    let dense_ftran = |xd: &mut [f64], binv: &[f64]| {
        xd.iter_mut().for_each(|v| *v = 0.0);
        for (r, &v) in rhs.iter().enumerate() {
            if v != 0.0 {
                let col = &binv[r * M..(r + 1) * M];
                for (xi, &bi) in xd.iter_mut().zip(col) {
                    *xi += v * bi;
                }
            }
        }
    };
    let dense_ns = time_min_ns(ITERS, || {
        dense_ftran(&mut xd, &binv);
        std::hint::black_box(&xd);
    });

    // Cross-check while we are here: both kernels must agree on the solve.
    x.copy_from_slice(&rhs);
    factor.ftran_sparse(&mut x, &rhs_rows, &mut support);
    dense_ftran(&mut xd, &binv);
    for (i, (s, d)) in x.iter().zip(&xd).enumerate() {
        assert!(
            (s - d).abs() <= 1e-8 * (1.0 + s.abs().max(d.abs())),
            "kernel microbench: sparse/dense FTRAN diverge at {i}: {s} vs {d}"
        );
    }

    // Basis-update cost: what one pivot adds beyond its FTRAN. The sparse
    // kernel appends a product-form eta over the FTRAN's support (O(spike
    // nnz), as the simplex engine pushes it); the dense kernel
    // rank-one-updated all m columns of B⁻¹ (O(m²)) — the term that made
    // paper-scale pivots quadratic. Updates are measured on clones so the
    // factors used above stay pristine.
    let spike = x.clone(); // FTRAN of the entering column = the update spike
    let pivot_row = spike
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite"))
        .map(|(i, _)| i)
        .expect("nonempty spike");
    let mut factor_upd = factor.clone();
    let sparse_update_ns = time_min_ns(ITERS, || {
        std::hint::black_box(factor_upd.push_eta_sparse(pivot_row, &spike, &support));
    });
    // The eta file grew during timing; drop the clone immediately after.
    drop(factor_upd);
    let mut binv_upd = binv.clone();
    let inv_piv = 1.0 / spike[pivot_row];
    let dense_update_ns = time_min_ns(ITERS, || {
        for c in 0..M {
            let col = &mut binv_upd[c * M..(c + 1) * M];
            let t = col[pivot_row] * inv_piv;
            if t != 0.0 {
                for (i, (ci, &wi)) in col.iter_mut().zip(&spike).enumerate() {
                    if i != pivot_row {
                        *ci -= wi * t;
                    }
                }
                col[pivot_row] = t;
            }
        }
        std::hint::black_box(&binv_upd);
    });

    let pivot_sparse_ns = sparse_ns + sparse_update_ns;
    let pivot_dense_ns = dense_ns + dense_update_ns;

    // Refactorization cost, on this basis and on a slack-heavy one, each
    // through a factor that keeps its workspace between calls as the
    // simplex engine's does.
    let mut refactor = BasisFactor::default();
    let factorize_ns = time_min_ns(FACTOR_ITERS, || {
        assert!(refactor.factorize(&cols, &basis));
    });
    const SLACK_HEAVY_M: usize = 620;
    let (sh_cols, sh_basis) = slack_heavy_basis(SLACK_HEAVY_M, &mut next_u64);
    let mut sh_factor = BasisFactor::default();
    let factorize_slack_heavy_ns = time_min_ns(FACTOR_ITERS, || {
        assert!(sh_factor.factorize(&sh_cols, &sh_basis));
    });
    let mut sh_rhs = vec![0.0; SLACK_HEAVY_M];
    for _ in 0..4 {
        sh_rhs[(unit() * SLACK_HEAVY_M as f64) as usize % SLACK_HEAVY_M] = 2.0 * unit() - 1.0;
    }
    let sh_rhs_rows: Vec<usize> = (0..SLACK_HEAVY_M).filter(|&r| sh_rhs[r] != 0.0).collect();
    let mut sh_x = vec![0.0; SLACK_HEAVY_M];
    let mut sh_support = Vec::new();
    let ftran_sparse_slack_heavy_ns = time_min_ns(ITERS, || {
        // Clear the previous result through its support, as the simplex
        // engine does.
        for &i in &sh_support {
            sh_x[i] = 0.0;
        }
        for &r in &sh_rhs_rows {
            sh_x[r] = sh_rhs[r];
        }
        sh_factor.ftran_sparse(&mut sh_x, &sh_rhs_rows, &mut sh_support);
        std::hint::black_box(&sh_x);
    });
    eprintln!(
        "[introspection] kernel m={M} lu_nnz={}: ftran {sparse_ns:.0} vs {dense_ns:.0} ns, \
         update {sparse_update_ns:.0} vs {dense_update_ns:.0} ns, \
         pivot cycle {pivot_sparse_ns:.0} vs {pivot_dense_ns:.0} ns \
         ({:.1}× speedup), factorize {factorize_ns:.0} ns; slack-heavy \
         m={SLACK_HEAVY_M} lu_nnz={}: factorize {factorize_slack_heavy_ns:.0} ns, \
         ftran {ftran_sparse_slack_heavy_ns:.0} ns",
        factor.lu_nnz(),
        pivot_dense_ns / pivot_sparse_ns,
        sh_factor.lu_nnz(),
    );
    Json::Obj(vec![
        ("m".into(), Json::from(M)),
        ("basis_nnz".into(), Json::from(cols.nnz())),
        ("lu_nnz".into(), Json::from(factor.lu_nnz())),
        ("ftran_sparse_ns".into(), Json::from(sparse_ns)),
        ("ftran_dense_ns".into(), Json::from(dense_ns)),
        ("update_sparse_ns".into(), Json::from(sparse_update_ns)),
        ("update_dense_ns".into(), Json::from(dense_update_ns)),
        ("pivot_sparse_ns".into(), Json::from(pivot_sparse_ns)),
        ("pivot_dense_ns".into(), Json::from(pivot_dense_ns)),
        (
            "pivot_speedup".into(),
            Json::from(pivot_dense_ns / pivot_sparse_ns),
        ),
        ("factorize_ns".into(), Json::from(factorize_ns)),
        ("slack_heavy_m".into(), Json::from(SLACK_HEAVY_M)),
        ("slack_heavy_lu_nnz".into(), Json::from(sh_factor.lu_nnz())),
        (
            "factorize_slack_heavy_ns".into(),
            Json::from(factorize_slack_heavy_ns),
        ),
        (
            "ftran_sparse_slack_heavy_ns".into(),
            Json::from(ftran_sparse_slack_heavy_ns),
        ),
    ])
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
        ("kernel".into(), kernel_microbench(seed)),
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
