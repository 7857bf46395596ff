//! One measured run of one workload: set up several times, make a fixed
//! number of passes over the same inputs, and report.
//!
//! Every time is in reference seconds: the thread's CPU time, converted by
//! the probe of the CPU's speed just before (see `host`). Time metrics take
//! each segment of a pass (a branch-and-bound node, a sweep cell, an
//! admission epoch) at its median over the passes.
//!
//! With `--trace 1`, untraced and traced passes alternate; the per-layer
//! values come from the last traced pass, and the median segments of both
//! kinds give the tracing overhead.

use std::path::{Path, PathBuf};

use tvnep_telemetry::{chrome_trace, exact_quantile, Json, Telemetry};

use crate::host;
use crate::ledger::{self, KERNELS};
use crate::workloads::{self, Inputs, Layers, PassOutcome, Scale, Workload};

/// Set-ups in a row on one CPU.
const SETUP_BURST: usize = 10;

/// Bursts of set-ups before each pass, each on a freshly chosen and probed
/// CPU; `setup_s` is the median set-up of the run. A set-up takes
/// microseconds to a millisecond, so a run makes many of them, spread over
/// its length.
const SETUP_BURSTS: usize = 5;

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [&str; 5] = [
    "wall_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "setup_s",
    "peak_rss_mb",
];

pub struct MeasureArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Full result, for `run`.
    pub detail_out: Option<PathBuf>,
    /// Chrome trace of the traced pass.
    pub trace_out: Option<PathBuf>,
}

/// Unit of a metric, from its name.
pub fn unit(name: &str) -> &'static str {
    let suffix = |s: &str| name.ends_with(s);
    if suffix("_pct") {
        "%"
    } else if suffix("_ms") {
        "ms"
    } else if suffix("ns_per_call") {
        "ns"
    } else if suffix("_mb") {
        "MB"
    } else if suffix(".s") || suffix("_s") {
        "s"
    } else if suffix("iters_per_node") {
        "iter/node"
    } else if suffix("nodes_per_decision") {
        "node/decision"
    } else {
        "count"
    }
}

/// The timings of one untraced pass that the end-to-end metrics use.
#[derive(Debug, Clone, PartialEq)]
pub struct PassTimes {
    pub segments: Vec<f64>,
    pub decision_ms: Vec<f64>,
}

impl PassTimes {
    pub fn to_json(&self) -> Json {
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
        Json::Obj(vec![
            ("segments".into(), arr(&self.segments)),
            ("decision_ms".into(), arr(&self.decision_ms)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let arr = |k: &str| -> Option<Vec<f64>> {
            j.get(k)?.as_array()?.iter().map(Json::as_f64).collect()
        };
        Some(Self {
            segments: arr("segments")?,
            decision_ms: arr("decision_ms")?,
        })
    }
}

/// End-to-end times of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Times {
    pub wall_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    /// Open loop only: due time to the start of service, p90.
    pub queue_wait_p90_ms: f64,
}

/// End-to-end times from passes over the same inputs, each segment and
/// decision at its median over the passes, in reference time. What a
/// latency is per workload:
///
/// * `prove_deep`: the proof (one operation; p50 = p90 = `wall_s`);
/// * `sweep_shallow`: a cell, greedy plus branch and bound;
/// * `serve_saturated`: a decision's service time;
/// * `serve_open`: a request, from when it is due on the 4-per-second
///   arrival schedule until it is decided, queueing behind earlier requests
///   (Lindley's recurrence over the measured per-request times).
///
/// `wall_s` is the sum of the segments. For `serve_open` that
/// is the server's busy time; the queue's end time is fixed by the arrival
/// schedule until the server saturates, so it would hide any change in
/// service time.
pub fn times(workload: Workload, seed: u64, scale: Scale, passes: &[PassTimes]) -> Times {
    let segments = middle(passes.iter().map(|p| p.segments.as_slice()));
    let decisions = middle(passes.iter().map(|p| p.decision_ms.as_slice()));
    let total: f64 = segments.iter().sum();
    let ms = |v: &[f64], q| quantile(v, q) * 1e3;
    let (wall_s, latency_p50_ms, latency_p90_ms, queue_wait_p90_ms) = match workload {
        Workload::ProveDeep => (total, total * 1e3, total * 1e3, 0.0),
        Workload::SweepShallow => (total, ms(&segments, 0.5), ms(&segments, 0.90), 0.0),
        Workload::ServeSaturated => (
            total,
            quantile(&decisions, 0.5),
            quantile(&decisions, 0.90),
            0.0,
        ),
        Workload::ServeOpen => {
            let (latency, wait) = open_loop(&workloads::arrivals_s(seed, scale), &segments);
            (
                total,
                ms(&latency, 0.5),
                ms(&latency, 0.90),
                ms(&wait, 0.90),
            )
        }
    };
    Times {
        wall_s,
        latency_p50_ms,
        latency_p90_ms,
        queue_wait_p90_ms,
    }
}

/// A single-server queue fed on schedule: request `i` is due at `due[i]`,
/// starts once it is due and the previous one is done, and takes
/// `service[i]`. Returns each latency (due to done) and each wait (due to
/// start), seconds.
fn open_loop(due: &[f64], service: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mut free, mut latency, mut wait) = (0.0f64, Vec::new(), Vec::new());
    for (&d, &s) in due.iter().zip(service) {
        let start = d.max(free);
        free = start + s;
        latency.push(free - d);
        wait.push(start - d);
    }
    (latency, wait)
}

/// Element-wise median over equally long series.
fn middle<'a>(series: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let series: Vec<&[f64]> = series.collect();
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&series.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

/// Where passes write their WAL: under the build directory, inside the
/// checkout.
fn tmp_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("tvnep-benchmark")
}

pub fn measure(args: &MeasureArgs) -> Result<Json, String> {
    let tmp = tmp_dir();
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let result = passes(args, &tmp);
    workloads::cleanup(args.workload, &tmp);
    let _ = std::fs::remove_dir(&tmp);
    let (setups, generate_s, passes) = result?;

    let timings = |traced: bool| -> Vec<PassTimes> {
        passes
            .iter()
            .filter(|p| p.spans.is_empty() != traced)
            .map(|p| PassTimes {
                segments: p.segments.clone(),
                decision_ms: p.decision_ms.clone(),
            })
            .collect()
    };
    let untraced = timings(false);
    // Per-layer values come from the last traced pass with `--trace 1`,
    // else from the last pass.
    let report = passes
        .iter()
        .rev()
        .find(|p| p.spans.is_empty() != args.trace)
        .expect("at least one pass of each kind");
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let counts = counts(report);
    if passes.iter().any(|p| self::counts(p) != counts) {
        failures.push("exact counts differ between passes".into());
    }
    if passes.iter().any(|p| {
        p.digest != report.digest
            || p.segments.len() != report.segments.len()
            || p.decision_ms.len() != report.decision_ms.len()
    }) {
        failures.push("passes over the same inputs did different work".into());
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed = (failures.len() as u64).min(attempted);

    let t = times(args.workload, args.seed, args.scale, &untraced);
    let end_to_end = vec![
        ("wall_s", t.wall_s),
        ("latency_p50_ms", t.latency_p50_ms),
        ("latency_p90_ms", t.latency_p90_ms),
        ("setup_s", median(&setups)),
        (
            "peak_rss_mb",
            tvnep_telemetry::alloc::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1048576.0),
        ),
    ];
    let mut per_layer = outside_layers(report, median(&generate_s), t.queue_wait_p90_ms);
    per_layer.extend(
        counts
            .iter()
            .map(|&(k, v)| (k, v as f64))
            .chain(ratios(report))
            .map(|(k, v)| (k.to_string(), v)),
    );
    if args.trace {
        per_layer.extend(traced_layers(report));
        let traced = times(args.workload, args.seed, args.scale, &timings(true));
        per_layer.push((
            "tracing_overhead_pct".into(),
            (traced.wall_s / t.wall_s - 1.0) * 100.0,
        ));
        if let Some(path) = &args.trace_out {
            std::fs::write(path, chrome_trace(&report.spans).to_string())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    if let Some(path) = &args.detail_out {
        let detail = Json::Obj(vec![
            ("workload".into(), Json::from(args.workload.name())),
            ("seed".into(), Json::from(args.seed)),
            ("traced".into(), Json::from(args.trace)),
            ("attempted".into(), Json::from(attempted)),
            ("failed".into(), Json::from(failed)),
            (
                "failures".into(),
                Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect()),
            ),
            ("end_to_end".into(), metric_map(&end_to_end)),
            ("per_layer".into(), metric_map(&per_layer)),
            (
                "counts".into(),
                Json::Obj(
                    counts
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::from(v)))
                        .collect(),
                ),
            ),
            (
                "digest".into(),
                report
                    .digest
                    .map_or(Json::Null, |d| Json::from(format!("{d:016x}"))),
            ),
            (
                "passes".into(),
                Json::Arr(untraced.iter().map(PassTimes::to_json).collect()),
            ),
        ]);
        std::fs::write(path, detail.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for f in &failures {
        eprintln!("{}: FAILED {f}", args.workload.name());
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::from(failures.is_empty())),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        (
            "metrics".into(),
            if args.trace {
                metric_map(&per_layer)
            } else {
                metric_map(&end_to_end)
            },
        ),
    ]))
}

/// `{name: {"value": v, "unit": u}}`, in list order.
fn metric_map<K: AsRef<str>>(list: &[(K, f64)]) -> Json {
    Json::Obj(
        list.iter()
            .map(|(k, v)| {
                let k = k.as_ref();
                let m = Json::Obj(vec![
                    ("value".into(), Json::from(*v)),
                    ("unit".into(), Json::from(unit(k))),
                ]);
                (k.to_string(), m)
            })
            .collect(),
    )
}

type Passes = (Vec<f64>, Vec<f64>, Vec<PassOutcome>);

/// Wall seconds one pass takes at the seed commit on the reference host (2
/// vCPUs), its set-ups, probes and checks included.
fn pass_s(workload: Workload) -> f64 {
    match workload {
        Workload::ProveDeep => 6.5,
        Workload::SweepShallow | Workload::ServeOpen | Workload::ServeSaturated => 4.8,
    }
}

/// Passes in a window of `--seconds`: a number fixed by the window, not by
/// how fast the passes run, so that two versions of the program take each
/// segment's median over as many repetitions. At least one, or one
/// untraced and one traced with `--trace 1`.
fn pass_count(args: &MeasureArgs) -> usize {
    let fit = (args.seconds / pass_s(args.workload)).round() as usize;
    fit.max(if args.trace { 2 } else { 1 })
}

/// Makes [`pass_count`] passes; with `--trace 1` every second one is traced.
/// Before each pass the inputs are set up [`SETUP_BURSTS`] × [`SETUP_BURST`]
/// times, each set-up timed; the pass runs on the last of them.
fn passes(args: &MeasureArgs, tmp: &Path) -> Result<Passes, String> {
    let (mut setups, mut generate, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pass_count(args) {
        let tel = if args.trace && i % 2 == 1 {
            Telemetry::with_spans()
        } else {
            Telemetry::metrics_only()
        };
        let mut inputs = None;
        for _ in 0..SETUP_BURSTS {
            let scale = host::scale();
            for _ in 0..SETUP_BURST {
                drop(inputs.take());
                let mut layers = Layers::new(&tel);
                let t = host::cpu_s();
                inputs = Some(workloads::setup(
                    args.workload,
                    args.seed,
                    args.scale,
                    tmp,
                    &mut layers,
                ));
                setups.push((host::cpu_s() - t) * scale);
                generate.push(layers.secs(workloads::GENERATE));
            }
        }
        let inputs: Inputs = inputs.expect("at least one set-up");
        passes.push(workloads::pass(inputs, &tel).map_err(|e| format!("pass: {e}"))?);
    }
    Ok((setups, generate, passes))
}

fn counts(p: &PassOutcome) -> Vec<(&'static str, u64)> {
    let c = |name: &str| p.metrics.counter(name);
    vec![
        ("mip.nodes", c("mip.nodes")),
        ("lp.iterations", c("lp.iterations")),
        ("lp.refactorizations", c("lp.refactorizations")),
        ("lp.solves_cold", c("lp.solves") - c("lp.warm_calls")),
        ("lp.solves_warm", c("lp.warm_calls")),
        ("serve.decisions", p.decisions),
        ("serve.accepted", p.accepted),
    ]
}

fn ratios(p: &PassOutcome) -> Vec<(&'static str, f64)> {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        (
            "lp.iters_per_node",
            per(
                p.metrics.counter("lp.iterations"),
                p.metrics.counter("mip.nodes"),
            ),
        ),
        ("serve.nodes_per_decision", per(p.nodes_spent, p.decisions)),
    ]
}

/// Layers timed from outside, with the share of the pass's wall time no
/// layer covers (`model.verify` runs after the timed phase).
fn outside_layers(p: &PassOutcome, generate_s: f64, queue_wait_p90_ms: f64) -> Vec<(String, f64)> {
    use workloads::{PASS_LAYERS, SUBMIT, VERIFY};
    let l = &p.layers;
    let mut out = vec![("workloads.generate.s".to_string(), generate_s)];
    for layer in PASS_LAYERS {
        out.push((format!("{}.calls", layer.metric), l.calls(layer) as f64));
        out.push((format!("{}.s", layer.metric), l.secs(layer)));
    }
    let per_call = |calls: u64, s: f64| {
        if calls == 0 {
            0.0
        } else {
            s * 1e9 / calls as f64
        }
    };
    let live = &p.live_reservations;
    let wall = p.wall.as_secs_f64();
    let covered: f64 = PASS_LAYERS
        .iter()
        .filter(|&&layer| layer != VERIFY)
        .map(|&layer| l.secs(layer))
        .sum();
    out.extend([
        (
            "serve.submit.ns_per_call".to_string(),
            per_call(l.calls(SUBMIT), l.secs(SUBMIT)),
        ),
        ("serve.queue_wait_p90_ms".to_string(), queue_wait_p90_ms),
        (
            "serve.live_reservations_mean".to_string(),
            if live.is_empty() {
                0.0
            } else {
                live.iter().sum::<usize>() as f64 / live.len() as f64
            },
        ),
        (
            "unattributed_pct".to_string(),
            (wall - covered) / wall * 100.0,
        ),
    ]);
    out
}

/// Kernel and self times from the traced pass, each with its share of the
/// pass's wall time. `trace.residual_pct` is the share no program span
/// covers: the benchmark's own call sites and input cloning.
fn traced_layers(p: &PassOutcome) -> Vec<(String, f64)> {
    let Some(root) = p.spans.iter().find(|s| s.name == workloads::PASS_SPAN) else {
        return Vec::new();
    };
    let (from, to) = (root.start, root.start + root.dur);
    let inside: Vec<_> = p
        .spans
        .iter()
        .filter(|s| s.tid == root.tid && s.start >= from && s.start + s.dur <= to)
        .cloned()
        .collect();
    let book = ledger::ledger(&inside);
    let wall = root.dur.as_secs_f64();
    let share = |s: f64| s / wall * 100.0;
    let get = |name: &str| book.get(name).copied().unwrap_or_default();
    let mut out = Vec::new();
    for kernel in KERNELS {
        let e = get(kernel);
        let per_call = if e.calls == 0 {
            0.0
        } else {
            e.self_s * 1e9 / e.calls as f64
        };
        out.push((format!("{kernel}.calls"), e.calls as f64));
        out.push((format!("{kernel}.s"), e.self_s));
        out.push((format!("{kernel}.ns_per_call"), per_call));
        out.push((format!("{kernel}.share_pct"), share(e.self_s)));
    }
    for (layer, spans) in [
        ("lp.solve_cold", &["lp.solve"][..]),
        ("lp.solve_warm", &["lp.solve_warm"][..]),
        ("mip.node", &["mip.node"][..]),
        ("mip.solve", &["mip.solve"][..]),
        ("core.admit", &["serve.admit"][..]),
        ("core.greedy", &["greedy.solve", "greedy.iteration"][..]),
    ] {
        let s: f64 = spans.iter().map(|n| get(n).self_s).sum();
        out.push((format!("{layer}.self_s"), s));
        out.push((format!("{layer}.share_pct"), share(s)));
    }
    let residual: f64 = book
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, e)| e.self_s)
        .sum();
    out.push(("trace.residual_pct".into(), share(residual)));
    out
}

/// Nearest-rank quantile; 0 for an empty sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    exact_quantile(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn middle_takes_each_segment_at_its_median() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 5.0];
        let c = [9.0, 2.0, 5.0];
        let series = [&a[..], &b[..], &c[..]];
        assert_eq!(middle(series.into_iter()), vec![3.0, 2.0, 5.0]);
        assert_eq!(middle(series[..2].iter().copied()), vec![2.5, 2.5, 5.0]);
    }

    #[test]
    fn open_loop_requests_queue_behind_slow_ones() {
        // The second request is due while the first is still in service,
        // waits 0.2 s for it, and is decided at 0.5 s; the third arrives
        // to an idle server.
        let (latency, wait) = open_loop(&[0.1, 0.2, 1.0], &[0.3, 0.1, 0.05]);
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
        assert!(close(&latency, &[0.3, 0.3, 0.05]), "{latency:?}");
        assert!(close(&wait, &[0.0, 0.2, 0.0]), "{wait:?}");
    }
}
