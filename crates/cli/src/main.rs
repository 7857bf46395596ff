//! `tvnep-cli` — solve temporal VNet embedding problems from JSON files.
//!
//! ```text
//! tvnep-cli generate --preset small --seed 1 --flex 2.0 -o instance.json
//! tvnep-cli solve instance.json --formulation csigma --objective access \
//!           --time-limit 30 -o solution.json --metrics-out metrics.json --trace
//! tvnep-cli greedy instance.json -o solution.json --metrics-out metrics.json
//! tvnep-cli verify instance.json solution.json
//! tvnep-cli info instance.json
//! ```
//!
//! Exit codes: 0 success / verified; 1 usage error; 2 infeasible,
//! verification failure, or a flag the subcommand does not read.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tvnep_bench::campaign::{
    bench_doc, csv_from_records, expand_labels, fig7_csv, fig9_csv, run_campaign, selects_ablation,
    CampaignOptions, PAPER_SCALE_LABEL,
};
use tvnep_bench::compare::{compare_docs, render_report, Tolerances};
use tvnep_bench::{ablation_csv, HarnessConfig};
use tvnep_core::{
    explain_solution, greedy_csigma, solve_tvnep, BuildOptions, Formulation, GreedyOptions,
    GreedyOutcome, Objective,
};
use tvnep_harness::format::{InstanceDoc, SolutionDoc};
use tvnep_harness::oracle::OracleOptions;
use tvnep_harness::{run_fuzz, FuzzConfig, FuzzReport};
use tvnep_mip::{MipOptions, MipStatus, ProgressRecorder, ProgressSummary, SearchTree};
use tvnep_model::tol::VERIFY_TOL;
use tvnep_model::{verify_with_tol, Instance, TemporalSolution, Violation};
use tvnep_serve::loadgen::LoadConfig;
use tvnep_serve::{EpochRunner, ServeOptions};
use tvnep_telemetry::{render_spans, Json, Telemetry};
use tvnep_workloads::{generate, WorkloadConfig};

/// Heap accounting behind `--alloc` and the `campaign` peak-memory column.
/// Counting is off by default; the disabled path is one relaxed load.
#[global_allocator]
static ALLOC: tvnep_telemetry::CountingAlloc = tvnep_telemetry::CountingAlloc;

/// Each subcommand with its usage: the positional arguments and, in
/// brackets, every flag it reads (`-o FILE` is the `output` flag).
/// `usage()` prints these specs and `main` refuses any flag outside them,
/// so the two cannot drift.
const COMMANDS: &[(&str, &str)] = &[
    (
        "generate",
        "[--preset tiny|small|medium|paper] [--seed N] [--flex H] [-o FILE]",
    ),
    (
        "solve",
        "INSTANCE [--formulation delta|sigma|csigma] \
         [--objective access|earliness|load|links|makespan] [--time-limit SECS] [--threads N] \
         [-o FILE] [--metrics-out FILE] [--trace] [--chrome-trace FILE] [--alloc] \
         [--tree-out FILE] [--progress-out FILE] [--blackbox] [--blackbox-out FILE] \
         [--watchdog-ms N]",
    ),
    (
        "greedy",
        "INSTANCE [--time-limit SECS] [--threads N] [-o FILE] [--metrics-out FILE] [--trace] \
         [--chrome-trace FILE] [--alloc]",
    ),
    ("explain", "INSTANCE SOLUTION [-o FILE]"),
    ("verify", "INSTANCE SOLUTION [--json] [-o FILE]"),
    ("info", "INSTANCE"),
    (
        "fuzz",
        "[--seed N] [--cases N] [--time-cap SECS] [--solve-time-limit SECS] [--threads N] \
         [--corpus-dir DIR]",
    ),
    (
        "campaign",
        "[SELECTOR] [--preset tiny|small|medium|paper] [--seeds N] [--flexes 0,1,2] \
         [--time-limit SECS] [--threads N] [--out-dir DIR] [--bench-out FILE] [--fresh] \
         [--quiet] [--paper-scale]",
    ),
    (
        "bench-compare",
        "BASELINE.json CANDIDATE.json [--wall-tol-pct P] [--mem-tol-pct P] [--ttfi-tol-pct P] \
         [--pi-tol-pct P] [--p99-tol-pct P]",
    ),
    (
        "serve",
        "[--instance FILE] [--wal FILE] [--listen ADDR] [--tick-ms N] [--epoch N] \
         [--max-pending N] [--slo FILE] [--blackbox] [--blackbox-out FILE] [--watchdog-ms N] \
         [--fault-panic-epoch N]",
    ),
    (
        "load",
        "[--seed N] [--rate R] [--duration H] [--flex H] [--preset tiny|small|medium|paper] \
         [--epoch N] [--tick-budget-ms N] [--max-pending N] [--wal FILE] [--util-out FILE] \
         [-o FILE] [--metrics-out FILE] [--trace] [--chrome-trace FILE]",
    ),
    ("top", "ADDR [--interval-ms N] [--frames N] [--raw]"),
    ("postmortem", "DUMP.json [--raw]"),
];

/// The flags a usage spec names, each with whether it takes a value.
fn spec_flags(spec: &str) -> impl Iterator<Item = (&str, bool)> {
    spec.split('[').filter_map(|t| {
        let (token, _) = t.split_once(']')?;
        let (name, value) = token
            .split_once(' ')
            .map_or((token, false), |(n, _)| (n, true));
        let name = if name == "-o" {
            "output"
        } else {
            name.strip_prefix("--")?
        };
        Some((name, value))
    })
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    for (name, spec) in COMMANDS {
        eprintln!("  tvnep-cli {name} {spec}");
    }
    ExitCode::from(1)
}

/// Reads the JSON document at `path`.
fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn read_instance(path: &str) -> Result<Instance, String> {
    let doc =
        InstanceDoc::from_json(&read_json(path)?).map_err(|e| format!("parse {path}: {e}"))?;
    doc.into_instance().map_err(|e| e.to_string())
}

fn read_solution(path: &str) -> Result<TemporalSolution, String> {
    let doc =
        SolutionDoc::from_json(&read_json(path)?).map_err(|e| format!("parse {path}: {e}"))?;
    Ok(doc.into_solution())
}

fn write_or_print(value: &Json, out: Option<&str>) -> Result<(), String> {
    let json = value.pretty();
    match out {
        Some(path) => std::fs::write(path, json).map_err(|e| format!("write {path}: {e}")),
        None => {
            println!("{json}");
            Ok(())
        }
    }
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    /// The value of `--key` parsed as a `T`, if the flag is given.
    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.flags
            .get(key)
            .map(|s| s.parse().map_err(|e| format!("--{key}: {e}")))
            .transpose()
    }
}

fn parse_args(raw: &[String]) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        if let Some(name) = a.strip_prefix("--") {
            // A flag that no usage spec gives a value takes none.
            let boolean = COMMANDS
                .iter()
                .flat_map(|(_, spec)| spec_flags(spec))
                .any(|f| f == (name, false));
            if boolean {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = raw.get(i + 1).cloned().unwrap_or_default();
                flags.insert(name.to_string(), value);
                i += 2;
            }
        } else if a == "-o" {
            let value = raw.get(i + 1).cloned().unwrap_or_default();
            flags.insert("output".to_string(), value);
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Args { positional, flags }
}

/// `value`, given as `--key`, if the model accepts it: finite, and above 0
/// when `positive`, at least 0 otherwise.
fn in_range(key: &str, value: f64, positive: bool) -> Result<f64, String> {
    let (ok, bound) = if positive {
        (value > 0.0, "> 0")
    } else {
        (value >= 0.0, ">= 0")
    };
    if ok && value.is_finite() {
        Ok(value)
    } else {
        Err(format!("--{key}: {value} is not a finite number {bound}"))
    }
}

/// `--threads N` (0 = all cores). The CLI defaults to all available
/// parallelism; the library default stays 1 (deterministic sequential).
fn threads_for(args: &Args) -> Result<usize, String> {
    Ok(args.parsed("threads")?.unwrap_or(0))
}

/// `--preset tiny|small|medium|paper`, or `default` when the flag is
/// absent: the preset's name and its workload.
fn preset_for<'a>(args: &'a Args, default: &'a str) -> Result<(&'a str, WorkloadConfig), String> {
    let preset = args.flags.get("preset").map_or(default, String::as_str);
    let workload = match preset {
        "tiny" => WorkloadConfig::tiny(),
        "small" => WorkloadConfig::small(),
        "medium" => WorkloadConfig::medium(),
        "paper" => WorkloadConfig::paper(),
        other => return Err(format!("unknown preset {other}")),
    };
    Ok((preset, workload))
}

/// Builds the telemetry handle requested by `--metrics-out`, `--trace` and
/// `--chrome-trace`. Spans are only recorded when something will print or
/// write them.
fn telemetry_for(args: &Args) -> Telemetry {
    if args.flags.contains_key("trace") || args.flags.contains_key("chrome-trace") {
        Telemetry::with_spans()
    } else if args.flags.contains_key("metrics-out") {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    }
}

/// Prints the spans (`--trace`, one line each, to stderr), writes the Chrome
/// trace and the metrics snapshot after a run. `extra` appends
/// command-specific sections to the exported object.
fn finish_telemetry(
    args: &Args,
    telemetry: &Telemetry,
    extra: Vec<(String, Json)>,
) -> Result<(), String> {
    if args.flags.contains_key("trace") {
        eprint!("{}", render_spans(&telemetry.spans()));
    }
    if let Some(path) = args.flags.get("chrome-trace") {
        let doc = telemetry.export_chrome_trace();
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = args.flags.get("metrics-out") {
        let mut doc = telemetry.export_json();
        if let Json::Obj(fields) = &mut doc {
            fields.extend(extra);
            if args.flags.contains_key("alloc") {
                fields.push(("alloc".into(), tvnep_telemetry::alloc::stats().to_json()));
            }
        }
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}

/// `--alloc` turns heap accounting on for the whole command so the
/// `alloc` section of `--metrics-out` reflects the full solve.
fn enable_alloc_if_requested(args: &Args) {
    if args.flags.contains_key("alloc") {
        tvnep_telemetry::alloc::set_counting(true);
    }
}

/// The always-on crash diagnostics rig behind `--blackbox`,
/// `--blackbox-out` and `--watchdog-ms` (any of the three enables it).
/// Installs the panic hook and SIGTERM flag so a dying process still writes
/// its dump; the watchdog (when requested) lives as long as the rig.
struct BlackboxRig {
    rec: Arc<tvnep_telemetry::FlightRecorder>,
    handle: tvnep_telemetry::FlightHandle,
    /// Held for its `Drop` only: stops and joins the monitor thread.
    _watchdog: Option<tvnep_telemetry::Watchdog>,
}

fn blackbox_for(args: &Args, telemetry: &Telemetry) -> Result<Option<BlackboxRig>, String> {
    let wanted = args.flags.contains_key("blackbox")
        || args.flags.contains_key("blackbox-out")
        || args.flags.contains_key("watchdog-ms");
    if !wanted {
        return Ok(None);
    }
    let rec = tvnep_telemetry::FlightRecorder::new(tvnep_telemetry::blackbox::DEFAULT_RING_CAP);
    if let Some(path) = args.flags.get("blackbox-out") {
        rec.set_dump_path(path.clone());
    }
    tvnep_telemetry::blackbox::install_current(&rec);
    tvnep_telemetry::blackbox::install_panic_hook();
    tvnep_telemetry::blackbox::sigterm::install();
    let watchdog = args.parsed::<u64>("watchdog-ms")?.map(|ms| {
        tvnep_telemetry::Watchdog::spawn(
            Arc::clone(&rec),
            Duration::from_millis(ms.max(1)),
            telemetry.clone(),
        )
    });
    let handle = rec.handle(0);
    Ok(Some(BlackboxRig {
        rec,
        handle,
        _watchdog: watchdog,
    }))
}

fn greedy_section(outcome: &GreedyOutcome) -> Json {
    Json::Obj(vec![
        ("iterations".into(), Json::from(outcome.iterations)),
        (
            "accepted".into(),
            Json::from(outcome.accepted.iter().filter(|&&a| a).count()),
        ),
        ("total_nodes".into(), Json::from(outcome.total_nodes)),
        (
            "runtime_s".into(),
            Json::from(outcome.runtime.as_secs_f64()),
        ),
        (
            "per_iteration".into(),
            Json::Arr(
                outcome
                    .per_iteration
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("request".into(), Json::from(r.request)),
                            ("accepted".into(), Json::from(r.accepted)),
                            ("model_rows".into(), Json::from(r.model_rows)),
                            ("model_cols".into(), Json::from(r.model_cols)),
                            ("nodes".into(), Json::from(r.nodes)),
                            ("runtime_s".into(), Json::from(r.runtime.as_secs_f64())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One-character-per-node utilization heatline (0 → blank, 1 → full block).
fn heatline(peaks: &[f64]) -> String {
    const RAMP: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    peaks
        .iter()
        .map(|&v| RAMP[(v.clamp(0.0, 1.0) * 8.0).round() as usize])
        .collect()
}

/// Renders one `top` frame from a `metrics` event.
fn render_top_frame(m: &Json) -> String {
    let num = |section: &str, key: &str| -> f64 {
        m.get(section)
            .and_then(|o| o.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut s = String::new();
    s.push_str(&format!(
        "tvnep-serve  epoch {}  reservations {}  water mark {:.2}h  collected {}\n",
        num("funnel", "epochs"),
        m.get("reservations").and_then(Json::as_f64).unwrap_or(0.0),
        m.get("water_mark").and_then(Json::as_f64).unwrap_or(0.0),
        m.get("collected_total")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    ));
    s.push_str(&format!(
        "funnel   submitted {}  queued {}  decided {}  accepted {}  rejected {}  shed {}\n",
        num("funnel", "submitted"),
        num("funnel", "queued"),
        num("funnel", "decided"),
        num("funnel", "accepted"),
        num("funnel", "rejected"),
        num("funnel", "shed"),
    ));
    s.push_str(&format!(
        "latency  p50 {:.1}ms  p90 {:.1}ms  p99 {:.1}ms  mean {:.1}ms  ({} decisions)\n",
        num("latency_ms", "p50"),
        num("latency_ms", "p90"),
        num("latency_ms", "p99"),
        num("latency_ms", "mean"),
        num("latency_ms", "count"),
    ));
    s.push_str(&format!(
        "window   acceptance {:.1}%  over {} epoch(s)\n",
        num("window", "acceptance_ratio") * 100.0,
        num("window", "epochs"),
    ));
    if m.get("slo").is_some() {
        s.push_str(&format!(
            "slo      acceptance burn {:.2}x  latency burn {:.2}x\n",
            num("slo", "acceptance_burn"),
            num("slo", "latency_burn"),
        ));
    }
    let peaks: Vec<f64> = m
        .get("util")
        .and_then(|u| u.get("node_peaks"))
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    s.push_str(&format!(
        "util     node max {:.0}%  edge p95 {:.0}%  headroom {:.0}%  [{}]\n",
        num("util", "node_max") * 100.0,
        num("util", "edge_p95") * 100.0,
        num("util", "headroom_next") * 100.0,
        heatline(&peaks),
    ));
    s.push_str(&format!(
        "wal      enabled {}  records {}\n",
        m.get("wal")
            .and_then(|w| w.get("enabled"))
            .and_then(Json::as_bool)
            .unwrap_or(false),
        num("wal", "records"),
    ));
    s
}

/// One visible "reconnecting" notice per retry, in both `--raw` (stderr
/// line, stdout stays parseable) and dashboard (redrawn frame) modes.
fn show_reconnecting(addr: &str, why: &str, backoff: Duration, raw: bool) {
    use std::io::Write;
    if raw {
        eprintln!("tvnep-top: reconnecting to {addr} ({why}); retrying in {backoff:?}");
    } else {
        print!("\x1b[2J\x1b[Htvnep-top: reconnecting to {addr}\n{why}; retrying in {backoff:?}\n");
        std::io::stdout().flush().ok();
    }
}

/// `tvnep-cli top ADDR`: polls a live server's `metrics` verb over one
/// persistent protocol connection and redraws a terminal dashboard.
/// `--frames N --raw` prints N raw JSON snapshots instead (CI mode).
///
/// A restarting or momentarily absent server does not kill the dashboard:
/// every connect/send/read failure shows a "reconnecting" state and retries
/// with exponential backoff (200ms doubling to 5s). Interactive mode
/// retries forever; CI mode (`--frames > 0`) gives up after enough
/// consecutive failed connects to cover a server restart.
fn run_top(addr: &str, interval: Duration, frames: u64, raw: bool) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    const BACKOFF_START: Duration = Duration::from_millis(200);
    const BACKOFF_MAX: Duration = Duration::from_secs(5);
    let mut shown = 0u64;
    let mut backoff = BACKOFF_START;
    let mut failed_connects = 0u32;
    'reconnect: loop {
        let stream = match std::net::TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                failed_connects += 1;
                if frames > 0 && failed_connects >= 25 {
                    return Err(format!(
                        "connect {addr}: {e} (gave up after {failed_connects} attempts)"
                    ));
                }
                show_reconnecting(addr, &format!("connect: {e}"), backoff, raw);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        failed_connects = 0;
        backoff = BACKOFF_START;
        let mut out = match stream.try_clone() {
            Ok(o) => o,
            Err(e) => return Err(e.to_string()),
        };
        let mut lines = BufReader::new(stream).lines();
        loop {
            if let Err(e) = out
                .write_all(b"{\"op\":\"metrics\"}\n")
                .and_then(|()| out.flush())
            {
                show_reconnecting(addr, &format!("send: {e}"), backoff, raw);
                std::thread::sleep(backoff);
                continue 'reconnect;
            }
            // Skip protocol chatter (hello, epoch summaries) until the snapshot.
            let m = loop {
                let line = match lines.next() {
                    Some(Ok(l)) => l,
                    Some(Err(e)) => {
                        show_reconnecting(addr, &format!("read: {e}"), backoff, raw);
                        std::thread::sleep(backoff);
                        continue 'reconnect;
                    }
                    None => {
                        show_reconnecting(addr, "server closed the connection", backoff, raw);
                        std::thread::sleep(backoff);
                        continue 'reconnect;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                let ev = Json::parse(&line).map_err(|e| format!("parse event: {e}"))?;
                if ev.get("event").and_then(Json::as_str) == Some("metrics") {
                    break ev;
                }
            };
            if raw {
                println!("{m}");
            } else {
                // Clear the screen and redraw in place.
                print!("\x1b[2J\x1b[H{}", render_top_frame(&m));
            }
            std::io::stdout().flush().ok();
            shown += 1;
            if frames > 0 && shown >= frames {
                return Ok(());
            }
            std::thread::sleep(interval);
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(&(cmd, spec)) = raw
        .first()
        .and_then(|name| COMMANDS.iter().find(|(c, _)| c == name))
    else {
        return usage();
    };
    let args = parse_args(&raw[1..]);
    let unknown = args
        .flags
        .keys()
        .filter(|f| !spec_flags(spec).any(|(name, _)| name == f.as_str()))
        .min();
    if let Some(flag) = unknown {
        eprintln!(
            "error: `tvnep-cli {cmd}` does not take --{flag} (usage: tvnep-cli {cmd} {spec})"
        );
        return ExitCode::from(2);
    }
    match run(cmd, &args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(cmd: &str, args: &Args) -> Result<ExitCode, String> {
    match cmd {
        "generate" => {
            let (_, cfg) = preset_for(args, "small")?;
            let seed: u64 = args.parsed("seed")?.unwrap_or(1);
            let flex = in_range("flex", args.parsed("flex")?.unwrap_or(0.0), false)?;
            let inst = generate(&cfg, seed).with_flexibility_after(flex);
            write_or_print(
                &InstanceDoc::from_instance(&inst).to_json(),
                args.flags.get("output").map(String::as_str),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        "solve" => {
            enable_alloc_if_requested(args);
            let path = args.positional.first().ok_or("missing INSTANCE path")?;
            let inst = read_instance(path)?;
            let formulation = match args
                .flags
                .get("formulation")
                .map_or("csigma", String::as_str)
            {
                "delta" => Formulation::Delta,
                "sigma" => Formulation::Sigma,
                "csigma" => Formulation::CSigma,
                other => return Err(format!("unknown formulation {other}")),
            };
            let objective = match args.flags.get("objective").map_or("access", String::as_str) {
                "access" => Objective::AccessControl,
                "earliness" => Objective::MaxEarliness,
                "load" => Objective::BalanceNodeLoad { fraction: 0.5 },
                "links" => Objective::DisableLinks,
                "makespan" => Objective::MinMakespan,
                other => return Err(format!("unknown objective {other}")),
            };
            let secs: u64 = args.parsed("time-limit")?.unwrap_or(60);
            let telemetry = telemetry_for(args);
            let mut mip_opts = MipOptions::with_time_limit(Duration::from_secs(secs));
            mip_opts.telemetry = telemetry.clone();
            mip_opts.threads = threads_for(args)?;
            let blackbox = blackbox_for(args, &telemetry)?;
            mip_opts.blackbox = blackbox.as_ref().map(|b| b.handle.clone());
            let tree = args
                .flags
                .get("tree-out")
                .map(|_| Arc::new(SearchTree::new()));
            mip_opts.tree = tree.clone();
            // Anytime convergence stream: JSONL (deterministic at
            // `--threads 1`) plus a gap-timeline CSV next to it.
            let progress = args
                .flags
                .get("progress-out")
                .map(|_| ProgressRecorder::new());
            mip_opts.progress_events = progress.clone();
            let out = solve_tvnep(
                &inst,
                formulation,
                objective,
                BuildOptions::default_for(formulation),
                &mip_opts,
            );
            if let Some(bb) = &blackbox {
                // Normal completion: persist the final dump (verdict
                // `Clean`) so the flight history survives for post-mortems
                // even when nothing went wrong.
                bb.rec
                    .write_dump("exit", "Clean", "solve completed")
                    .map_err(|e| format!("blackbox dump: {e}"))?;
            }
            if let (Some(tree), Some(path)) = (&tree, args.flags.get("tree-out")) {
                let text = if path.ends_with(".dot") {
                    tree.to_dot()
                } else {
                    tree.to_json().pretty()
                };
                std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
            }
            if let (Some(rec), Some(path)) = (&progress, args.flags.get("progress-out")) {
                let mut jsonl = Vec::new();
                rec.write_jsonl(&mut jsonl)
                    .map_err(|e| format!("progress stream: {e}"))?;
                std::fs::write(path, &jsonl).map_err(|e| format!("write {path}: {e}"))?;
                let csv_path = match path.strip_suffix(".jsonl") {
                    Some(base) => format!("{base}.csv"),
                    None => format!("{path}.csv"),
                };
                let mut csv = Vec::new();
                rec.write_gap_csv(&mut csv)
                    .map_err(|e| format!("gap timeline: {e}"))?;
                std::fs::write(&csv_path, &csv).map_err(|e| format!("write {csv_path}: {e}"))?;
            }
            eprintln!(
                "status: {:?}; objective: {:?}; bound: {:.4}; nodes: {}; time: {:?}",
                out.mip.status,
                out.mip.objective,
                out.mip.best_bound,
                out.mip.nodes,
                out.mip.runtime
            );
            let result_section = Json::Obj(vec![
                ("status".into(), Json::from(out.mip.status.as_str())),
                (
                    "objective".into(),
                    out.mip.objective.map(Json::from).unwrap_or(Json::Null),
                ),
                ("best_bound".into(), Json::from(out.mip.best_bound)),
                ("nodes".into(), Json::from(out.mip.nodes)),
                (
                    "runtime_s".into(),
                    Json::from(out.mip.runtime.as_secs_f64()),
                ),
            ]);
            let mut extra = vec![("result".into(), result_section)];
            if let Some(rec) = &progress {
                let s = rec.summary(out.mip.runtime, out.mip.status == MipStatus::Optimal);
                extra.push(("progress".into(), progress_summary_json(&s)));
            }
            if let Some(sol) = &out.solution {
                extra.push(("explain".into(), explain_solution(&inst, sol).to_json()));
            }
            finish_telemetry(args, &telemetry, extra)?;
            match out.solution {
                Some(mut sol) => {
                    sol.reported_objective = out.mip.objective;
                    write_or_print(
                        &SolutionDoc::from_solution(&sol).to_json(),
                        args.flags.get("output").map(String::as_str),
                    )?;
                    Ok(ExitCode::SUCCESS)
                }
                None => {
                    eprintln!("no feasible solution found");
                    Ok(ExitCode::from(2))
                }
            }
        }
        "greedy" => {
            enable_alloc_if_requested(args);
            let path = args.positional.first().ok_or("missing INSTANCE path")?;
            let inst = read_instance(path)?;
            let secs: u64 = args.parsed("time-limit")?.unwrap_or(30);
            let telemetry = telemetry_for(args);
            let mut subproblem = MipOptions::with_time_limit(Duration::from_secs(secs));
            subproblem.telemetry = telemetry.clone();
            subproblem.threads = threads_for(args)?;
            let opts = GreedyOptions { subproblem };
            let outcome = if inst.fixed_node_mappings.is_some() {
                greedy_csigma(&inst, &opts)
            } else {
                tvnep_core::greedy_with_lp_mappings(&inst, &opts)
            };
            eprintln!(
                "greedy: accepted {}/{} in {:?} ({} subproblem nodes)",
                outcome.solution.accepted_count(),
                inst.num_requests(),
                outcome.runtime,
                outcome.total_nodes
            );
            finish_telemetry(
                args,
                &telemetry,
                vec![
                    ("greedy".into(), greedy_section(&outcome)),
                    (
                        "explain".into(),
                        explain_solution(&inst, &outcome.solution).to_json(),
                    ),
                ],
            )?;
            write_or_print(
                &SolutionDoc::from_solution(&outcome.solution).to_json(),
                args.flags.get("output").map(String::as_str),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        "explain" => {
            let ipath = args.positional.first().ok_or("missing INSTANCE path")?;
            let spath = args.positional.get(1).ok_or("missing SOLUTION path")?;
            let inst = read_instance(ipath)?;
            let sol = read_solution(spath)?;
            // The narrative reads one entry per request, each lasting its
            // duration, with an embedding of the right shape on each
            // accepted one.
            let malformed = verify_with_tol(&inst, &sol, VERIFY_TOL)
                .into_iter()
                .find(|v| {
                    matches!(
                        v,
                        Violation::ShapeMismatch
                            | Violation::MissingEmbedding { .. }
                            | Violation::WrongDuration { .. }
                    )
                });
            if let Some(v) = malformed {
                return Err(format!("{spath} does not fit {ipath}: {v:?}"));
            }
            let explanation = explain_solution(&inst, &sol);
            match args.flags.get("output") {
                Some(path) => {
                    std::fs::write(path, explanation.to_json().pretty())
                        .map_err(|e| format!("write {path}: {e}"))?;
                }
                None => print!("{}", explanation.render()),
            }
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let ipath = args.positional.first().ok_or("missing INSTANCE path")?;
            let spath = args.positional.get(1).ok_or("missing SOLUTION path")?;
            let inst = read_instance(ipath)?;
            let sol = read_solution(spath)?;
            let violations = verify_with_tol(&inst, &sol, VERIFY_TOL);
            if args.flags.contains_key("json") {
                let doc = Json::Obj(vec![
                    ("feasible".into(), Json::from(violations.is_empty())),
                    ("tolerance".into(), Json::from(VERIFY_TOL)),
                    (
                        "violations".into(),
                        Json::Arr(
                            violations
                                .iter()
                                .map(tvnep_harness::format::violation_to_json)
                                .collect(),
                        ),
                    ),
                ]);
                write_or_print(&doc, args.flags.get("output").map(String::as_str))?;
            } else if violations.is_empty() {
                println!("OK: solution satisfies Definition 2.1");
            } else {
                println!("INFEASIBLE: {} violation(s)", violations.len());
                for v in violations.iter().take(20) {
                    println!("  {v:?}");
                }
            }
            if violations.is_empty() {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(2))
            }
        }
        "info" => {
            let path = args.positional.first().ok_or("missing INSTANCE path")?;
            let inst = read_instance(path)?;
            println!(
                "substrate: {} nodes, {} links",
                inst.substrate.num_nodes(),
                inst.substrate.num_edges()
            );
            println!("horizon: {:.2}", inst.horizon);
            println!(
                "requests: {} (total revenue {:.2})",
                inst.num_requests(),
                inst.total_revenue()
            );
            for r in &inst.requests {
                println!(
                    "  {}: |V|={} |E|={} window [{:.2}, {:.2}] d={:.2} flex={:.2}",
                    r.name,
                    r.num_nodes(),
                    r.num_edges(),
                    r.earliest_start,
                    r.latest_end,
                    r.duration,
                    r.flexibility()
                );
            }
            println!(
                "node mappings: {}",
                if inst.fixed_node_mappings.is_some() {
                    "pinned"
                } else {
                    "free"
                }
            );
            Ok(ExitCode::SUCCESS)
        }
        "campaign" => {
            let selector = args.positional.first().map(String::as_str).unwrap_or("all");
            let mut labels = expand_labels(selector)?;
            // Opt-in paper-scale appendix cell (one full-size cΣ instance).
            if args.flags.contains_key("paper-scale")
                && !labels.iter().any(|l| l == PAPER_SCALE_LABEL)
            {
                labels.push(PAPER_SCALE_LABEL.to_string());
            }
            let mut cfg = HarnessConfig {
                workload: preset_for(args, "small")?.1,
                ..HarnessConfig::default()
            };
            if let Some(n) = args.parsed::<u64>("seeds")? {
                cfg.seeds = (1..=n).collect();
            }
            if let Some(list) = args.flags.get("flexes") {
                cfg.flexibilities = list
                    .split(',')
                    .map(|s| {
                        let flex = s.trim().parse().map_err(|e| format!("--flexes: {e}"))?;
                        in_range("flexes", flex, false)
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
            }
            if let Some(secs) = args.parsed("time-limit")? {
                cfg.time_limit = Duration::from_secs(secs);
            }
            cfg.threads = threads_for(args)?;
            let out_dir = PathBuf::from(
                args.flags
                    .get("out-dir")
                    .map(String::as_str)
                    .unwrap_or("campaign-out"),
            );
            std::fs::create_dir_all(&out_dir)
                .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
            let write = |name: &str, text: &str| {
                let path = out_dir.join(name);
                std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
            };
            tvnep_telemetry::alloc::set_counting(true);
            let opts = CampaignOptions {
                cfg,
                labels,
                journal_path: out_dir.join("journal.jsonl"),
                quiet: args.flags.contains_key("quiet"),
            };
            let mut written = Vec::new();
            // `ablation` alone runs no cells and leaves the journal alone.
            if !opts.labels.is_empty() {
                if args.flags.contains_key("fresh") {
                    let _ = std::fs::remove_file(&opts.journal_path);
                }
                let summary = run_campaign(&opts).map_err(|e| format!("campaign: {e}"))?;
                let records = &summary.records;
                write("results.csv", &csv_from_records(records))?;
                written.push("results.csv");
                for (name, table) in [
                    ("fig7.csv", fig7_csv(records)),
                    ("fig9.csv", fig9_csv(records)),
                ] {
                    if let Some(table) = table {
                        write(name, &table)?;
                        written.push(name);
                    }
                }
                let bench_path = args
                    .flags
                    .get("bench-out")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| out_dir.join("BENCH_campaign.json"));
                std::fs::write(&bench_path, bench_doc(&summary, &opts).pretty())
                    .map_err(|e| format!("write {}: {e}", bench_path.display()))?;
                eprintln!(
                    "campaign: {} cells ({} resumed, {} run) in {:.1}s -> {}",
                    records.len(),
                    summary.resumed,
                    summary.ran,
                    summary.wall.as_secs_f64(),
                    bench_path.display()
                );
            }
            if selects_ablation(selector) {
                write("ablation.csv", &ablation_csv(&opts.cfg))?;
                written.push("ablation.csv");
            }
            eprintln!(
                "campaign: wrote {} in {}",
                written.join(", "),
                out_dir.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        "bench-compare" => {
            let bpath = args.positional.first().ok_or("missing BASELINE path")?;
            let cpath = args.positional.get(1).ok_or("missing CANDIDATE path")?;
            let baseline = read_json(bpath)?;
            let candidate = read_json(cpath)?;
            let d = Tolerances::default();
            let tol = Tolerances {
                wall_pct: args.parsed("wall-tol-pct")?.unwrap_or(d.wall_pct),
                mem_pct: args.parsed("mem-tol-pct")?.unwrap_or(d.mem_pct),
                ttfi_pct: args.parsed("ttfi-tol-pct")?.unwrap_or(d.ttfi_pct),
                pi_pct: args.parsed("pi-tol-pct")?.unwrap_or(d.pi_pct),
                p99_pct: args.parsed("p99-tol-pct")?.unwrap_or(d.p99_pct),
            };
            let report = compare_docs(&baseline, &candidate, &tol)?;
            print!("{}", render_report(&report, &tol));
            if report.is_regression() {
                Ok(ExitCode::from(2))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "serve" => {
            let slo = args
                .flags
                .get("slo")
                .map(|path| -> Result<tvnep_serve::SloDoc, String> {
                    tvnep_serve::SloDoc::from_json(&read_json(path)?)
                        .map_err(|e| format!("{path}: {e}"))
                })
                .transpose()?;
            let blackbox = blackbox_for(args, &Telemetry::disabled())?;
            let fault_panic_epoch = args.parsed("fault-panic-epoch")?;
            let opts = ServeOptions {
                service: tvnep_core::ServiceOptions {
                    subproblem: tvnep_core::SubproblemHandles {
                        blackbox: blackbox.as_ref().map(|b| b.handle.clone()),
                        ..Default::default()
                    },
                    leak_every: None,
                },
                epoch_size: args.parsed("epoch")?.unwrap_or(4),
                max_pending: args.parsed("max-pending")?.unwrap_or(1024),
                keep_log: false,
                slo,
                fault_panic_epoch,
            };
            let fresh = || {
                let ipath = args
                    .flags
                    .get("instance")
                    .ok_or("--instance FILE required to start a fresh service")?;
                read_instance(ipath)
            };
            let mut runner = match args.flags.get("wal") {
                // A WAL with records means a previous incarnation: recover
                // from it instead of starting fresh (the instance file is not
                // needed — the WAL header is self-contained). The one pass
                // over the WAL tells which.
                Some(path) => {
                    let path = Path::new(path);
                    let (runner, report) = EpochRunner::open(path, opts, || {
                        fresh()
                            .map(|inst| (inst.substrate, inst.horizon))
                            .map_err(io::Error::other)
                    })
                    .map_err(|e| format!("serve: {e}"))?;
                    if let Some(report) = report {
                        eprintln!(
                            "tvnep-serve: recovered from {} — {} decision(s) replayed, \
                             {} reservation(s) restored, {} submission(s) re-queued",
                            path.display(),
                            report.decisions_replayed,
                            report.reservations_restored,
                            report.requeued
                        );
                    }
                    runner
                }
                None => {
                    let inst = fresh()?;
                    EpochRunner::new(inst.substrate, inst.horizon, opts, None)
                        .map_err(|e| format!("serve: {e}"))?
                }
            };
            match args.flags.get("listen") {
                Some(addr) => {
                    let tick_ms: u64 = args.parsed("tick-ms")?.unwrap_or(1000);
                    tvnep_serve::server::run_tcp(&mut runner, addr, Duration::from_millis(tick_ms))
                        .map_err(|e| format!("serve: {e}"))?;
                }
                None => {
                    tvnep_serve::server::run_pipe(&mut runner)
                        .map_err(|e| format!("serve: {e}"))?;
                }
            }
            if let Some(bb) = &blackbox {
                bb.rec
                    .write_dump("exit", "Clean", "server shut down")
                    .map_err(|e| format!("blackbox dump: {e}"))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "load" => {
            let (preset, workload) = preset_for(args, "tiny")?;
            let defaults = LoadConfig::slo_default();
            let cfg = LoadConfig {
                seed: args.parsed("seed")?.unwrap_or(defaults.seed),
                rate: in_range("rate", args.parsed("rate")?.unwrap_or(defaults.rate), true)?,
                duration: in_range(
                    "duration",
                    args.parsed("duration")?.unwrap_or(defaults.duration),
                    true,
                )?,
                flex: in_range("flex", args.parsed("flex")?.unwrap_or(defaults.flex), false)?,
                workload,
                preset: preset.to_string(),
                epoch_size: args.parsed("epoch")?.unwrap_or(defaults.epoch_size),
                tick_budget_ms: args.parsed("tick-budget-ms")?.or(defaults.tick_budget_ms),
                max_pending: args.parsed("max-pending")?.unwrap_or(defaults.max_pending),
                wal: args.flags.get("wal").map(PathBuf::from),
                util_out: args.flags.get("util-out").map(PathBuf::from),
                telemetry: telemetry_for(args),
            };
            let report = tvnep_serve::loadgen::run(&cfg).map_err(|e| format!("load: {e}"))?;
            eprintln!(
                "load: {} submitted, {} decided, {} accepted ({:.1}%), {} shed, \
                 {} epoch(s), {} overrun(s), p50 {:.1}ms p90 {:.1}ms p99 {:.1}ms, \
                 {} LP solves, {} violation(s), {:.2}s wall",
                report.submitted,
                report.decisions,
                report.accepted,
                report.acceptance_ratio * 100.0,
                report.shed,
                report.epochs,
                report.overruns,
                report.p50_ms,
                report.p90_ms,
                report.p99_ms,
                report.total_nodes,
                report.violations,
                report.wall_s
            );
            finish_telemetry(args, &cfg.telemetry, Vec::new())?;
            write_or_print(
                &tvnep_serve::loadgen::slo_doc(&cfg, &report),
                args.flags.get("output").map(String::as_str),
            )?;
            if report.violations > 0 {
                eprintln!("FAIL: accepted schedules violate Definition 2.1");
                return Ok(ExitCode::from(2));
            }
            Ok(ExitCode::SUCCESS)
        }
        "top" => {
            let addr = args
                .positional
                .first()
                .ok_or("top ADDR required (the --listen address of a live serve)")?;
            let interval = args.parsed::<u64>("interval-ms")?.unwrap_or(1000);
            let frames: u64 = args.parsed("frames")?.unwrap_or(0);
            run_top(
                addr,
                Duration::from_millis(interval),
                frames,
                args.flags.contains_key("raw"),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        "fuzz" => {
            let seed = args.parsed::<u64>("seed")?.unwrap_or(0);
            let cases = args.parsed::<u64>("cases")?.unwrap_or(20);
            let time_cap = args.parsed("time-cap")?.map(Duration::from_secs);
            let solve_limit = args.parsed::<u64>("solve-time-limit")?.unwrap_or(10);
            let threads = threads_for(args)?;
            let corpus_dir = args
                .flags
                .get("corpus-dir")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("tests/corpus"));
            let mut oracle = OracleOptions {
                solve_time_limit: Duration::from_secs(solve_limit),
                ..OracleOptions::default()
            };
            if threads > 1 {
                oracle.threads_alt = threads;
            }
            let config = FuzzConfig {
                seed,
                cases,
                time_cap,
                oracle,
                corpus_dir: Some(corpus_dir),
                on_case: Some(|idx, case, rep| {
                    eprintln!(
                        "case {idx:>3} [{:<22}] |R|={} solves={} violations={} inconclusive={}",
                        case.family.as_str(),
                        case.instance.num_requests(),
                        rep.solves,
                        rep.violations.len(),
                        rep.inconclusive.len()
                    );
                }),
                ..FuzzConfig::default()
            };
            let report = run_fuzz(&config);
            print_fuzz_report(&report);
            if report.clean() {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(2))
            }
        }
        "postmortem" => {
            let path = args.positional.first().ok_or("missing DUMP path")?;
            let dump = read_json(path)?;
            let schema = dump.get("schema").and_then(Json::as_str).unwrap_or("");
            if !schema.starts_with("tvnep.blackbox") {
                return Err(format!("{path}: not a black-box dump (schema '{schema}')"));
            }
            if args.flags.contains_key("raw") {
                print!("{}", tvnep_telemetry::render_raw(&dump));
            } else {
                print!("{}", postmortem_narrative(path, &dump));
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

/// The watchdog monitor's ring id inside a dump; excluded from the
/// deterministic `--raw` projection, narrated otherwise.
const WATCHDOG_TID: u64 = tvnep_telemetry::blackbox::WATCHDOG_TID as u64;

/// Workers of a dump, sorted by tid (dumps store rings in creation order).
fn dump_workers(dump: &Json) -> Vec<Json> {
    let mut ws: Vec<Json> = dump
        .get("workers")
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    ws.sort_by_key(|w| w.get("tid").and_then(Json::as_u64).unwrap_or(0));
    ws
}

/// A dump field as deterministic text (`null` when absent): numbers render
/// through the in-repo writer, so reruns agree byte for byte.
fn jnum(j: Option<&Json>) -> String {
    j.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
}

/// One flight-recorder event as a human sentence (kind + payload decode —
/// the inverse of the encodings in `tvnep_telemetry::blackbox::EventKind`).
fn describe_event(e: &Json) -> String {
    let kind = e.get("kind").and_then(Json::as_str).unwrap_or("?");
    let a = e.get("a").and_then(Json::as_u64).unwrap_or(0);
    let b_u = e.get("b").and_then(Json::as_u64);
    let b = jnum(e.get("b"));
    match kind {
        "lp_solve" => {
            let status = match b_u {
                Some(0) => "optimal",
                Some(1) => "infeasible",
                Some(2) => "unbounded",
                Some(3) => "iteration limit",
                Some(4) => "time limit",
                Some(5) => "numerical failure",
                _ => "unknown status",
            };
            format!("LP solved: {a} iteration(s), {status}")
        }
        "lp_milestone" => {
            let phase = match b_u {
                Some(0) => "dual",
                Some(1) => "phase 1",
                Some(2) => "phase 2",
                _ => "?",
            };
            format!("LP milestone: {a} cumulative iteration(s) ({phase})")
        }
        "refactor" => {
            let cause = match a {
                0 => "scheduled",
                1 => "instability",
                2 => "singular recovery",
                _ => "?",
            };
            format!("basis refactorization #{b} ({cause})")
        }
        "node_open" => format!("node #{a} opened (bound {b})"),
        "node_close" => {
            let outcome = match b_u {
                Some(0) => "branched",
                Some(1) => "pruned by bound",
                Some(2) => "infeasible",
                Some(3) => "integral",
                Some(4) => "time limit",
                Some(5) => "numerical",
                Some(6) => "unbounded",
                _ => "?",
            };
            format!("node #{a} closed: {outcome}")
        }
        "incumbent" => format!("new incumbent at node #{a}: objective {b}"),
        "bound" => format!("bound update at node #{a}: {b}"),
        "epoch_tick" => format!("admission epoch {a} closed ({b} decision(s))"),
        "wal_fsync" => format!("WAL append (record {b} total)"),
        "admit" => format!(
            "request {a} {}",
            if b_u == Some(1) {
                "accepted"
            } else {
                "rejected"
            }
        ),
        "stall" => format!("WATCHDOG: stall #{a}, no progress for {b} ms"),
        other => format!("{other} a={a} b={b}"),
    }
}

/// Likely-culprit heuristics over a dump: keyed on the health verdict,
/// refactorization causes, LP solve statuses (the pricing/degeneracy
/// proxy), node-close outcomes, and the stall counter. Advisory, not a
/// diagnosis — each line names the evidence it fired on.
fn postmortem_culprits(dump: &Json, merged: &[(u64, u64, Json)]) -> Vec<String> {
    let count = |kind: &str, pred: &dyn Fn(&Json) -> bool| -> usize {
        merged
            .iter()
            .filter(|(_, _, e)| e.get("kind").and_then(Json::as_str) == Some(kind) && pred(e))
            .count()
    };
    let b_is = |v: u64| move |e: &Json| e.get("b").and_then(Json::as_u64) == Some(v);
    let mut out = Vec::new();
    let verdict = dump.get("verdict").and_then(Json::as_str).unwrap_or("");
    let health = dump
        .get("health")
        .and_then(Json::as_str)
        .unwrap_or("unknown");

    if verdict == "Stalled" {
        let last = merged
            .iter()
            .rev()
            .find(|(_, tid, _)| *tid != WATCHDOG_TID)
            .map(|(_, _, e)| describe_event(e))
            .unwrap_or_else(|| "no recorded events".into());
        out.push(format!(
            "the watchdog saw no LP/node/epoch progress past its threshold \
             while workers were busy; last recorded activity: {last}"
        ));
    }
    if verdict == "Panicked" {
        let spans: Vec<&str> = dump
            .get("span_stack")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        let site = spans
            .last()
            .map(|s| format!("inside span '{s}'"))
            .unwrap_or_else(|| "outside any recorded span".into());
        out.push(format!("the process panicked {site} (see reason above)"));
    }
    let forced = count("refactor", &|e| {
        e.get("a").and_then(Json::as_u64).is_some_and(|c| c != 0)
    });
    if forced > 0 || (health != "stable" && health != "unknown") {
        out.push(format!(
            "numerical pressure: LP health '{health}', {forced} forced \
             (instability/singular) refactorization(s)"
        ));
    }
    let numerical_nodes = count("node_close", &b_is(5));
    if numerical_nodes > 0 {
        out.push(format!(
            "{numerical_nodes} node(s) closed 'numerical' — the simplex \
             gave up and nodes were re-queued or abandoned"
        ));
    }
    let lp_iter_limit = count("lp_solve", &b_is(3));
    if lp_iter_limit > 0 {
        out.push(format!(
            "{lp_iter_limit} LP solve(s) hit the iteration limit — devex \
             pricing may be cycling on a degenerate basis"
        ));
    }
    let deadline_nodes = count("node_close", &b_is(4));
    if deadline_nodes > 0 {
        out.push(format!(
            "{deadline_nodes} node(s) closed on the time limit — the solve \
             was out of budget, not wrong"
        ));
    }
    if out.is_empty() {
        out.push(
            "no anomaly signatures: health stable, no forced refactorizations, \
             no numerical or stalled nodes"
                .into(),
        );
    }
    out
}

/// The human narrative of a dump: final state, per-worker summary, merged
/// last-events timeline, likely culprits.
fn postmortem_narrative(path: &str, dump: &Json) -> String {
    let sstr = |k: &str| {
        dump.get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut s = String::new();
    s.push_str(&format!("== black-box post-mortem: {path} ==\n"));
    s.push_str(&format!(
        "verdict   {} (trigger: {})\n",
        sstr("verdict"),
        sstr("trigger")
    ));
    s.push_str(&format!("reason    {}\n", sstr("reason")));
    let t_s = dump
        .get("t_ns")
        .and_then(Json::as_u64)
        .map(|t| t as f64 / 1e9)
        .unwrap_or(0.0);
    s.push_str(&format!(
        "captured  t+{:.3}s  health {}  stall reports {}\n",
        t_s,
        dump.get("health")
            .and_then(Json::as_str)
            .unwrap_or("unknown"),
        jnum(dump.get("stall_reports")),
    ));
    s.push_str(&format!(
        "solution  incumbent {}  bound {}\n",
        jnum(dump.get("incumbent")),
        jnum(dump.get("bound"))
    ));
    let pulse = |k: &str| jnum(dump.get("pulse").and_then(|p| p.get(k)));
    s.push_str(&format!(
        "progress  {} LP iteration(s), {} node(s), {} epoch(s), {} busy worker(s)\n",
        pulse("lp_iters"),
        pulse("nodes"),
        pulse("epochs"),
        pulse("busy"),
    ));
    let spans: Vec<&str> = dump
        .get("span_stack")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    if !spans.is_empty() {
        s.push_str(&format!(
            "spans     {}  (dumping thread)\n",
            spans.join(" > ")
        ));
    }

    let workers = dump_workers(dump);
    s.push_str(&format!("\nworkers ({}):\n", workers.len()));
    let mut merged: Vec<(u64, u64, Json)> = Vec::new();
    for w in &workers {
        let tid = w.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let name = match tid {
            0 => "driver".to_string(),
            WATCHDOG_TID => "watchdog".to_string(),
            n => format!("worker {}", n - 1),
        };
        let events = w
            .get("events")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        let last = events
            .last()
            .map(describe_event)
            .unwrap_or_else(|| "no events".into());
        s.push_str(&format!(
            "  tid {tid:>2} ({name})  recorded {}  kept {}  dropped {}  last: {last}\n",
            jnum(w.get("recorded")),
            events.len(),
            jnum(w.get("dropped")),
        ));
        for e in events {
            let t = e.get("t_ns").and_then(Json::as_u64).unwrap_or(0);
            merged.push((t, tid, e));
        }
    }

    // Merged tail: wall-clock order across threads (seq breaks ties within
    // one ring; rings never share a t_ns-identical pair in practice).
    merged.sort_by_key(|(t, tid, e)| (*t, *tid, e.get("seq").and_then(Json::as_u64)));
    let tail = merged.len().saturating_sub(32);
    s.push_str(&format!(
        "\nlast events ({} of {}, oldest first):\n",
        merged.len() - tail,
        merged.len()
    ));
    for (t, tid, e) in &merged[tail..] {
        s.push_str(&format!(
            "  [tid {tid}] t+{:.3}s  {}\n",
            *t as f64 / 1e9,
            describe_event(e)
        ));
    }

    s.push_str("\nlikely culprits:\n");
    for c in postmortem_culprits(dump, &merged) {
        s.push_str(&format!("  - {c}\n"));
    }
    s
}

/// The derived anytime scalars as a `--metrics-out` section.
fn progress_summary_json(s: &ProgressSummary) -> Json {
    let opt = |v: Option<f64>| v.map(Json::from).unwrap_or(Json::Null);
    Json::Obj(vec![
        ("incumbents".into(), Json::from(s.incumbents)),
        ("bound_updates".into(), Json::from(s.bound_updates)),
        (
            "time_to_first_incumbent_s".into(),
            opt(s.time_to_first_incumbent_s),
        ),
        ("time_to_proof_s".into(), opt(s.time_to_proof_s)),
        ("primal_integral".into(), Json::from(s.primal_integral)),
        ("dual_integral".into(), Json::from(s.dual_integral)),
    ])
}

fn print_fuzz_report(report: &FuzzReport) {
    println!(
        "fuzz: {} case(s) run, {} skipped (time cap), {} solve(s), \
         {} inconclusive oracle(s), {} violation(s) in {:.1?}",
        report.cases_run,
        report.cases_skipped,
        report.solves,
        report.inconclusive,
        report.bugs.len(),
        report.runtime
    );
    for bug in &report.bugs {
        println!(
            "VIOLATION case {} [{}] oracle {}: {}",
            bug.case_index,
            bug.family.as_str(),
            bug.case.oracle,
            bug.case.detail
        );
        println!(
            "  minimized to {} request(s) ({} shrink evals, {} accepted)",
            bug.case.instance.requests.len(),
            bug.shrink.evals,
            bug.shrink.accepted
        );
        match &bug.saved_to {
            Some(path) => println!("  reproducer: {}", path.display()),
            None => println!("  reproducer not written (no corpus dir)"),
        }
    }
}
