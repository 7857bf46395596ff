//! `run`: three rounds of the four workloads, then one traced round, written to
//! `DIR/run.json` (plus a Chrome trace per workload under `DIR/trace/`).
//!
//! Each workload/round pair runs in a fresh child process of this binary,
//! one at a time, so every pass starts from the same allocator state and
//! reports its own peak RSS. A time metric takes each segment at its
//! median over all rounds' passes (see `measure`); the per-round values,
//! their median and quartiles are kept beside it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use tvnep_telemetry::Json;

use crate::host::calibrate_ms;
use crate::measure::{median, times, unit, PassTimes, END_TO_END};
use crate::workloads::{Scale, Workload};

pub struct RunArgs {
    pub seed: u64,
    pub out: PathBuf,
    pub smoke: bool,
}

/// Untraced rounds of a full run; a smoke run makes one.
const ROUNDS: usize = 3;

/// Window of each child, seconds: one or two passes per round, pooled over
/// the rounds. A smoke child makes one pass.
fn child_seconds(smoke: bool) -> &'static str {
    if smoke {
        "0"
    } else {
        "8"
    }
}

/// Iterations of the calibration kernel recorded per round as
/// `host.calib_ms` (about 50 ms), a diagnostic of the host's speed.
const CALIBRATION: u32 = 20_000_000;

/// Runs the benchmark; `Ok(false)` when any check failed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    for dir in ["rounds", "trace"] {
        let d = args.out.join(dir);
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let round_count = if args.smoke { 1 } else { ROUNDS };
    let mut calib = Vec::new();
    let mut rounds: Vec<Vec<Json>> = Vec::new();
    for r in 0..round_count {
        calib.push(calibrate_ms(CALIBRATION));
        let mut row = Vec::new();
        for w in Workload::ALL {
            let detail = args.out.join(format!("rounds/{r}-{}.json", w.name()));
            row.push(child(&exe, args, w, &detail, None)?);
        }
        rounds.push(row);
    }
    let traced_calib = calibrate_ms(CALIBRATION);
    let mut traced = Vec::new();
    for w in Workload::ALL {
        let detail = args.out.join(format!("rounds/traced-{}.json", w.name()));
        let trace = args.out.join(format!("trace/{}.json", w.name()));
        traced.push(child(&exe, args, w, &detail, Some(&trace))?);
    }

    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let mut workloads = Vec::new();
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let untraced: Vec<&Json> = rounds.iter().map(|row| &row[i]).collect();
        // Arrivals are monotone, so batching must not change a decision:
        // the open loop (epoch 1) and the saturated one (epoch 3) decide the
        // same stream identically.
        let service = |o: Workload| matches!(o, Workload::ServeOpen | Workload::ServeSaturated);
        let same_decisions = !service(w) || {
            let other = Workload::ALL
                .iter()
                .position(|&o| o != w && service(o))
                .expect("two service workloads");
            rounds
                .iter()
                .chain([&traced])
                .all(|row| row[i].get("digest") == row[other].get("digest"))
        };
        let entry = summary(w, args.seed, scale, &untraced, &traced[i], same_decisions);
        workloads.push((w.name().to_string(), entry));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::Obj(vec![
        ("kind".into(), Json::from("tvnep-benchmark-run")),
        ("seed".into(), Json::from(args.seed)),
        ("rounds".into(), Json::from(round_count)),
        ("smoke".into(), Json::from(args.smoke)),
        ("nproc".into(), Json::from(nproc)),
        (
            "host".into(),
            Json::Obj(vec![
                (
                    "calib_ms".into(),
                    Json::Arr(calib.iter().map(|&c| Json::from(c)).collect()),
                ),
                ("traced_calib_ms".into(), Json::from(traced_calib)),
            ]),
        ),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let path = args.out.join("run.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    print(&doc);
    Ok(passed(&doc))
}

/// True when every workload of a run document passed its checks.
fn passed(doc: &Json) -> bool {
    doc.get("workloads")
        .and_then(Json::as_object)
        .is_some_and(|ws| {
            ws.iter()
                .all(|(_, w)| w.get("correct") == Some(&Json::Bool(true)))
        })
}

/// One workload's entry in `run.json`, from its children's results: the
/// rounds', then the traced round's. Any failed check, a count that differs
/// between rounds, or decisions that differ from the other service workload
/// mark it failed.
fn summary(
    w: Workload,
    seed: u64,
    scale: Scale,
    untraced: &[&Json],
    traced: &Json,
    same_decisions: bool,
) -> Json {
    let all: Vec<&Json> = untraced.iter().copied().chain([traced]).collect();
    let mut failures: Vec<String> = all
        .iter()
        .flat_map(|d| strings(d.get("failures")))
        .collect();
    for (label, d) in all.iter().enumerate().skip(1) {
        if d.get("counts") != all[0].get("counts") {
            let label = if label == untraced.len() {
                "the traced round".to_string()
            } else {
                format!("round {label}")
            };
            failures.push(format!("exact counts differ between round 0 and {label}"));
        }
    }
    if !same_decisions {
        failures.push("decisions differ between serve_open and serve_saturated".into());
    }
    let sum = |key: &str| {
        all.iter()
            .map(|d| d.get(key).and_then(Json::as_u64).unwrap_or(0))
            .sum::<u64>()
    };
    let attempted = sum("attempted");
    let failed = sum("failed").max(u64::from(!failures.is_empty()));

    // Time metrics pool every untraced pass of every round, each segment at
    // its median; set-up time and memory are the median round's.
    let passes: Vec<PassTimes> = all
        .iter()
        .flat_map(|d| d.get("passes").and_then(Json::as_array).unwrap_or(&[]))
        .filter_map(PassTimes::from_json)
        .collect();
    let pooled = times(w, seed, scale, &passes);
    let end_to_end = END_TO_END
        .iter()
        .map(|&m| {
            let values: Vec<f64> = untraced.iter().map(|d| value(d, "end_to_end", m)).collect();
            let (q1, med, q3) = quartiles(&values);
            let v = match m {
                "wall_s" => pooled.wall_s,
                "latency_p50_ms" => pooled.latency_p50_ms,
                "latency_p90_ms" => pooled.latency_p90_ms,
                _ => med,
            };
            let entry = Json::Obj(vec![
                ("value".into(), Json::from(v)),
                ("unit".into(), Json::from(unit(m))),
                (
                    "rounds".into(),
                    Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
                ),
                ("median".into(), Json::from(med)),
                ("q1".into(), Json::from(q1)),
                ("q3".into(), Json::from(q3)),
            ]);
            (m.to_string(), entry)
        })
        .collect();
    let copy = |d: &Json, key: &str| d.get(key).cloned().unwrap_or(Json::Null);
    Json::Obj(vec![
        ("correct".into(), Json::from(failures.is_empty())),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        (
            "failures".into(),
            Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
        ("end_to_end".into(), Json::Obj(end_to_end)),
        ("counts".into(), copy(all[0], "counts")),
        ("per_layer".into(), copy(traced, "per_layer")),
        ("digest".into(), copy(all[0], "digest")),
    ])
}

/// Prints every metric of a run document as `workload metric value unit`.
fn print(doc: &Json) {
    for (name, w) in doc
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&[])
    {
        for section in ["end_to_end", "per_layer"] {
            for (metric, m) in w.get(section).and_then(Json::as_object).unwrap_or(&[]) {
                let v = m.get("value").cloned().unwrap_or(Json::Null);
                let u = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{name} {metric} {v} {u}");
            }
        }
        for f in strings(w.get("failures")) {
            println!("{name} FAILED {f}");
        }
    }
    let host = doc.get("host");
    for (r, c) in host
        .and_then(|h| h.get("calib_ms"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        println!("host host.calib_ms.round{r} {c} ms");
    }
    if let Some(c) = host.and_then(|h| h.get("traced_calib_ms")) {
        println!("host host.calib_ms.traced {c} ms");
    }
}

fn child(
    exe: &Path,
    args: &RunArgs,
    workload: Workload,
    detail: &Path,
    trace: Option<&Path>,
) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("measure")
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", child_seconds(args.smoke)])
        .args(["--trace", if trace.is_some() { "1" } else { "0" }])
        .arg("--detail-out")
        .arg(detail)
        .stdout(Stdio::null());
    if let Some(t) = trace {
        cmd.arg("--trace-out").arg(t);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!("{}: child {status}", workload.name()));
    }
    let text = std::fs::read_to_string(detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

fn value(d: &Json, section: &str, metric: &str) -> f64 {
    d.get(section)
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn strings(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// First quartile, median and third quartile, by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median(&v), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detail(nodes: u64, failures: &[&str]) -> Json {
        let failures: Vec<String> = failures.iter().map(|f| format!("{f:?}")).collect();
        Json::parse(&format!(
            r#"{{"attempted": 1, "failed": {}, "failures": [{}],
                "counts": {{"mip.nodes": {nodes}}}, "end_to_end": {{}}, "per_layer": {{}},
                "passes": [{{"segments": [0.5, 0.25], "decision_ms": []}}]}}"#,
            failures.len(),
            failures.join(", ")
        ))
        .expect("valid detail")
    }

    fn run_doc(entry: Json) -> Json {
        Json::Obj(vec![(
            "workloads".into(),
            Json::Obj(vec![("prove_deep".into(), entry)]),
        )])
    }

    #[test]
    fn a_clean_run_passes() {
        let d = detail(9, &[]);
        let s = summary(Workload::ProveDeep, 7, Scale::Smoke, &[&d, &d], &d, true);
        assert_eq!(s.get("failed").and_then(Json::as_u64), Some(0));
        assert!(passed(&run_doc(s)));
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let (good, bad) = (
            detail(9, &[]),
            detail(
                9,
                &["proof: objective Some(22.9) differs from reference 22.8"],
            ),
        );
        let s = summary(
            Workload::ProveDeep,
            7,
            Scale::Smoke,
            &[&good, &bad],
            &good,
            true,
        );
        assert_eq!(s.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(s.get("failed").and_then(Json::as_u64), Some(1));
        assert!(!passed(&run_doc(s)));
    }

    #[test]
    fn counts_that_change_between_rounds_fail_the_run() {
        let (a, b) = (detail(9, &[]), detail(10, &[]));
        let s = summary(Workload::ProveDeep, 7, Scale::Smoke, &[&a], &b, true);
        assert!(strings(s.get("failures"))[0].contains("the traced round"));
        assert!(!passed(&run_doc(s)));
        let s = summary(Workload::ServeOpen, 7, Scale::Smoke, &[&a], &a, false);
        assert!(strings(s.get("failures"))[0].contains("decisions differ"));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
