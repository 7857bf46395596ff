//! Resumable experiment campaigns.
//!
//! A *campaign* is a planned list of cells — `(label, seed, flexibility)`
//! triples — executed in a fixed deterministic order with an append-only
//! JSONL journal (see [`crate::journal`]) recording every completed cell.
//! Killing the process (including `kill -9`) and re-running the same command
//! resumes at the first unfinished cell; the final CSV is a pure function of
//! the journal, so a resumed run reproduces the uninterrupted CSV byte for
//! byte on every deterministic column.
//!
//! Journal grammar (one JSON object per line):
//!
//! ```text
//! {"event":"campaign_started","version":1,"config":{...},"host":{...}}
//! {"event":"cell_started","cell":"csigma_access/seed=1/flex=0"}
//! {"event":"cell_finished","cell":"...","record":{...}}   // one per cell
//! {"event":"campaign_finished","cells":N,"wall_s":...}
//! ```
//!
//! A `cell_started` without a matching `cell_finished` marks the cell that
//! was in flight when the process died; it is simply re-run. Resume refuses
//! to continue a journal whose recorded config differs from the current
//! invocation (different grids would silently mix incomparable cells).

use std::io::{self, IsTerminal, Write as _};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tvnep_core::{Formulation, Objective};
use tvnep_telemetry::{alloc, Json};

use crate::journal;
use crate::{run_formulation_cell, run_greedy_cell, run_objective_cell, HarnessConfig, CSV_HEADER};

/// What a cell runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellKind {
    /// One formulation under the access-control objective.
    Formulation(Formulation),
    /// The cΣ-Model under a fixed-request-set objective.
    Objective(Objective),
    /// The greedy cΣᴳ_A heuristic.
    Greedy,
    /// One full-size paper instance (cΣ, access control) regardless of the
    /// campaign's workload preset. Opt-in via the `paper_scale` label /
    /// `tvnep-cli campaign --paper-scale`; never part of `all`.
    PaperScale,
}

/// Canonical cell labels in output order.
pub const LABELS: &[&str] = &[
    "csigma_access",
    "sigma_access",
    "delta_access",
    "csigma_earliness",
    "csigma_nodeload",
    "csigma_disable",
    "csigma_makespan",
    "greedy_access",
];

/// The runner behind a canonical label.
pub fn kind_for(label: &str) -> Option<CellKind> {
    Some(match label {
        "csigma_access" => CellKind::Formulation(Formulation::CSigma),
        "sigma_access" => CellKind::Formulation(Formulation::Sigma),
        "delta_access" => CellKind::Formulation(Formulation::Delta),
        "csigma_earliness" => CellKind::Objective(Objective::MaxEarliness),
        "csigma_nodeload" => CellKind::Objective(Objective::BalanceNodeLoad { fraction: 0.5 }),
        "csigma_disable" => CellKind::Objective(Objective::DisableLinks),
        "csigma_makespan" => CellKind::Objective(Objective::MinMakespan),
        "greedy_access" => CellKind::Greedy,
        "paper_scale" => CellKind::PaperScale,
        _ => return None,
    })
}

/// The opt-in paper-scale label: a single cΣ cell on the unscaled §VI
/// workload, gated behind an explicit selector (or `--paper-scale` in the
/// CLI) because one cell costs what a whole tiny-preset campaign does.
pub const PAPER_SCALE_LABEL: &str = "paper_scale";

/// The selector that asks for the ablation tables ([`crate::ablation_csv`]).
/// It names no cells, so a campaign of `ablation` alone runs none and
/// writes no journal.
pub const ABLATION: &str = "ablation";

/// Whether a selector names [`ABLATION`].
pub fn selects_ablation(spec: &str) -> bool {
    spec.split(',').any(|p| p.trim() == ABLATION)
}

/// Expands a comma-separated selector into canonical labels (in canonical
/// order, deduplicated). Accepts exact labels plus the groups `all`,
/// `formulations` (the three access-control series), `objectives` (the four
/// fixed-set series), `csigma`, `sigma`, `delta`, and `greedy`; the figure
/// targets `fig3`/`fig4` (= `formulations`), `fig5`/`fig6` (= `objectives`),
/// `fig7` (= `csigma,greedy`) and `fig8`/`fig9` (= `csigma`); and
/// [`ABLATION`], which adds no label.
pub fn expand_labels(spec: &str) -> Result<Vec<String>, String> {
    let mut wanted: Vec<&str> = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part {
            "all" => wanted.extend_from_slice(LABELS),
            "formulations" | "fig3" | "fig4" => {
                wanted.extend_from_slice(&["csigma_access", "sigma_access", "delta_access"])
            }
            "objectives" | "fig5" | "fig6" => wanted.extend_from_slice(&[
                "csigma_earliness",
                "csigma_nodeload",
                "csigma_disable",
                "csigma_makespan",
            ]),
            "fig7" => wanted.extend_from_slice(&["csigma_access", "greedy_access"]),
            "csigma" | "fig8" | "fig9" => wanted.push("csigma_access"),
            "sigma" => wanted.push("sigma_access"),
            "delta" => wanted.push("delta_access"),
            "greedy" => wanted.push("greedy_access"),
            ABLATION => {}
            // Opt-in only: deliberately not part of `all`.
            PAPER_SCALE_LABEL => wanted.push(PAPER_SCALE_LABEL),
            other if kind_for(other).is_some() => wanted.push(
                LABELS
                    .iter()
                    .find(|l| **l == other)
                    .expect("canonical label"),
            ),
            other => {
                return Err(format!(
                    "unknown cell selector '{other}' (labels: {}, {PAPER_SCALE_LABEL}; groups: \
                     all, formulations, objectives, csigma, sigma, delta, greedy; figures: \
                     fig3 to fig9, {ABLATION})",
                    LABELS.join(", ")
                ))
            }
        }
    }
    let mut out = Vec::new();
    for l in LABELS {
        if wanted.contains(l) {
            out.push((*l).to_string());
        }
    }
    // Paper-scale sorts last: it is an appendix to the canonical series.
    if wanted.contains(&PAPER_SCALE_LABEL) {
        out.push(PAPER_SCALE_LABEL.to_string());
    }
    if out.is_empty() && !selects_ablation(spec) {
        return Err("empty cell selection".into());
    }
    Ok(out)
}

/// One planned unit of work.
#[derive(Debug, Clone)]
pub struct PlannedCell {
    pub label: String,
    pub seed: u64,
    pub flex: f64,
}

impl PlannedCell {
    /// Stable journal/CSV identity of the cell.
    pub fn id(&self) -> String {
        format!("{}/seed={}/flex={}", self.label, self.seed, self.flex)
    }
}

/// The full deterministic execution plan: label-major, then seed, then
/// flexibility — the row order of `results.csv`.
pub fn plan(labels: &[String], cfg: &HarnessConfig) -> Vec<PlannedCell> {
    let mut cells = Vec::new();
    for label in labels {
        // The paper-scale appendix is a single cell, not a grid: one cell at
        // this size costs what a whole tiny-preset campaign does, and one
        // end-to-end completion is what the un-gating milestone asks for.
        if label == PAPER_SCALE_LABEL {
            cells.push(PlannedCell {
                label: label.clone(),
                seed: 1,
                flex: 1.0,
            });
            continue;
        }
        for &seed in &cfg.seeds {
            for &flex in &cfg.flexibilities {
                cells.push(PlannedCell {
                    label: label.clone(),
                    seed,
                    flex,
                });
            }
        }
    }
    cells
}

/// One finished cell as run and journaled: the cell identity plus the
/// solver run's quantities, flattened to JSON-representable primitives.
/// `skipped` marks objective cells whose greedy pass accepted nothing (no
/// CSV row, but journaled so resume does not re-run them).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    pub label: String,
    pub seed: u64,
    pub flex: f64,
    pub skipped: bool,
    pub runtime_s: f64,
    /// `Debug` rendering of the final [`tvnep_mip::MipStatus`].
    pub status: String,
    pub objective: Option<f64>,
    /// NaN when the run reports no bound (greedy cells).
    pub best_bound: f64,
    pub gap: Option<f64>,
    pub accepted: Option<u64>,
    pub nodes: u64,
    pub lp_iterations: u64,
    pub verified: Option<bool>,
    pub threads: u64,
    pub peak_bytes: u64,
    /// Seconds to the first solver-found incumbent; `None` for greedy cells
    /// (and for journals written before this column existed).
    pub time_to_first_incumbent_s: Option<f64>,
    /// Primal integral of the convergence stream; `None` for greedy cells
    /// and pre-column journals.
    pub primal_integral: Option<f64>,
}

impl CellRecord {
    /// A journaled placeholder for a skipped cell.
    pub fn skipped(cell: &PlannedCell) -> Self {
        Self {
            label: cell.label.clone(),
            seed: cell.seed,
            flex: cell.flex,
            skipped: true,
            runtime_s: 0.0,
            status: "Skipped".into(),
            objective: None,
            best_bound: f64::NAN,
            gap: None,
            accepted: None,
            nodes: 0,
            lp_iterations: 0,
            verified: None,
            threads: 0,
            peak_bytes: 0,
            time_to_first_incumbent_s: None,
            primal_integral: None,
        }
    }

    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::from);
        Json::Obj(vec![
            ("label".into(), Json::from(self.label.as_str())),
            ("seed".into(), Json::from(self.seed)),
            ("flex".into(), Json::from(self.flex)),
            ("skipped".into(), Json::from(self.skipped)),
            ("runtime_s".into(), Json::from(self.runtime_s)),
            ("status".into(), Json::from(self.status.as_str())),
            ("objective".into(), opt_num(self.objective)),
            ("best_bound".into(), Json::from(self.best_bound)),
            ("gap".into(), opt_num(self.gap)),
            ("accepted".into(), opt_num(self.accepted.map(|a| a as f64))),
            ("nodes".into(), Json::from(self.nodes)),
            ("lp_iters".into(), Json::from(self.lp_iterations)),
            (
                "verified".into(),
                self.verified.map_or(Json::Null, Json::from),
            ),
            ("threads".into(), Json::from(self.threads)),
            ("peak_bytes".into(), Json::from(self.peak_bytes)),
            ("ttfi_s".into(), opt_num(self.time_to_first_incumbent_s)),
            ("primal_integral".into(), opt_num(self.primal_integral)),
        ])
    }

    /// Parses a journaled record. `None` on any missing required member.
    pub fn from_json(doc: &Json) -> Option<Self> {
        let opt_num = |key: &str| match doc.get(key) {
            None | Some(Json::Null) => None,
            Some(v) => v.as_f64(),
        };
        Some(Self {
            label: doc.get("label")?.as_str()?.to_string(),
            seed: doc.get("seed")?.as_u64()?,
            flex: doc.get("flex")?.as_f64()?,
            skipped: doc.get("skipped")?.as_bool()?,
            runtime_s: doc.get("runtime_s")?.as_f64()?,
            status: doc.get("status")?.as_str()?.to_string(),
            objective: opt_num("objective"),
            // Non-finite numbers serialize as null: NaN is the in-memory
            // representation of "no bound".
            best_bound: match doc.get("best_bound") {
                Some(Json::Num(v)) => *v,
                _ => f64::NAN,
            },
            gap: opt_num("gap"),
            accepted: opt_num("accepted").map(|a| a as u64),
            nodes: doc.get("nodes")?.as_u64()?,
            lp_iterations: doc.get("lp_iters")?.as_u64()?,
            verified: doc.get("verified").and_then(Json::as_bool),
            threads: doc.get("threads")?.as_u64()?,
            peak_bytes: doc.get("peak_bytes")?.as_u64()?,
            // Lenient: journals written before these columns existed parse
            // with `None` here and print NA in the CSV.
            time_to_first_incumbent_s: opt_num("ttfi_s"),
            primal_integral: opt_num("primal_integral"),
        })
    }

    /// Cell identity, matching [`PlannedCell::id`].
    pub fn cell_id(&self) -> String {
        format!("{}/seed={}/flex={}", self.label, self.seed, self.flex)
    }

    /// The CSV row for this record — the single source of truth for row
    /// formatting, shared by live runs and journal replay so both produce
    /// identical bytes. `None` for skipped cells (they print no row).
    pub fn csv_row(&self) -> Option<String> {
        if self.skipped {
            return None;
        }
        Some(format!(
            "{},{},{},{:.3},{},{},{:.4},{},{},{},{},{},{},{},{},{}",
            self.label,
            self.seed,
            self.flex,
            self.runtime_s,
            self.status,
            self.objective.map_or("NA".into(), |o| format!("{o:.4}")),
            self.best_bound,
            self.gap.map_or("inf".into(), |g| format!("{g:.4}")),
            self.accepted.map_or("NA".into(), |a| a.to_string()),
            self.nodes,
            self.lp_iterations,
            self.verified.map_or("NA".into(), |v| v.to_string()),
            self.threads,
            self.peak_bytes,
            self.time_to_first_incumbent_s
                .map_or("NA".into(), |t| format!("{t:.4}")),
            self.primal_integral
                .map_or("NA".into(), |p| format!("{p:.4}")),
        ))
    }
}

/// Renders header plus one row per non-skipped record.
pub fn csv_from_records(records: &[CellRecord]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in records {
        if let Some(row) = r.csv_row() {
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// The finished records of `label`, in plan order.
fn series<'a>(records: &'a [CellRecord], label: &'a str) -> impl Iterator<Item = &'a CellRecord> {
    records
        .iter()
        .filter(move |r| r.label == label && !r.skipped)
}

/// Fig 7's table: the greedy cΣᴳ_A revenue relative to the exact cΣ one,
/// `1 − greedy/exact`, per (seed, flexibility) cell where the exact revenue
/// is positive. `None` unless the records hold both series.
pub fn fig7_csv(records: &[CellRecord]) -> Option<String> {
    series(records, "csigma_access").next()?;
    series(records, "greedy_access").next()?;
    let mut out =
        String::from("# fig7_relative: label,seed,flex_h,greedy_rev,exact_rev,shortfall\n");
    for g in series(records, "greedy_access") {
        let exact = series(records, "csigma_access").find(|e| e.seed == g.seed && e.flex == g.flex);
        if let (Some(gr), Some(er)) = (g.objective, exact.and_then(|e| e.objective)) {
            if er > 1e-9 {
                out += &format!(
                    "fig7,{},{},{gr:.4},{er:.4},{:.4}\n",
                    g.seed,
                    g.flex,
                    1.0 - gr / er
                );
            }
        }
    }
    Some(out)
}

/// Fig 9's table: the exact cΣ access-control revenue relative to the same
/// seed's at zero flexibility. `None` unless the records hold that series.
pub fn fig9_csv(records: &[CellRecord]) -> Option<String> {
    series(records, "csigma_access").next()?;
    let mut out =
        String::from("# fig9_relative: label,seed,flex_h,objective,improvement_vs_flex0\n");
    for r in series(records, "csigma_access") {
        let base = series(records, "csigma_access")
            .find(|b| b.seed == r.seed && b.flex == 0.0)
            .and_then(|b| b.objective);
        if let (Some(base), Some(o)) = (base, r.objective) {
            let improvement = if base > 1e-9 {
                o / base - 1.0
            } else {
                f64::NAN
            };
            out += &format!("fig9,{},{},{o:.4},{improvement:.4}\n", r.seed, r.flex);
        }
    }
    Some(out)
}

/// Campaign invocation.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    pub cfg: HarnessConfig,
    /// Canonical labels to run (see [`expand_labels`]).
    pub labels: Vec<String>,
    /// JSONL journal path; created if missing, resumed if present.
    pub journal_path: PathBuf,
    /// Suppress the live status line / per-cell progress on stderr.
    pub quiet: bool,
}

/// What a finished (or fully resumed) campaign hands back.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// One record per planned cell, in plan order (skipped cells included).
    pub records: Vec<CellRecord>,
    /// Cells answered from the journal without re-running.
    pub resumed: usize,
    /// Cells executed in this process.
    pub ran: usize,
    /// Wall time of this process's share of the campaign.
    pub wall: Duration,
}

/// Stable fingerprint of everything that affects cell outcomes. A resume
/// against a journal with a different fingerprint is refused.
fn config_json(opts: &CampaignOptions) -> Json {
    Json::Obj(vec![
        (
            "labels".into(),
            Json::Arr(opts.labels.iter().map(|l| Json::from(l.as_str())).collect()),
        ),
        (
            "seeds".into(),
            Json::Arr(opts.cfg.seeds.iter().map(|&s| Json::from(s)).collect()),
        ),
        (
            "flexes".into(),
            Json::Arr(
                opts.cfg
                    .flexibilities
                    .iter()
                    .map(|&f| Json::from(f))
                    .collect(),
            ),
        ),
        (
            "time_limit_s".into(),
            Json::from(opts.cfg.time_limit.as_secs_f64()),
        ),
        ("threads".into(), Json::from(opts.cfg.threads)),
        (
            "workload".into(),
            Json::from(format!("{:?}", opts.cfg.workload)),
        ),
    ])
}

/// Host metadata recorded once per campaign (informational; not part of the
/// resume fingerprint).
pub fn host_json() -> Json {
    Json::Obj(vec![
        ("os".into(), Json::from(std::env::consts::OS)),
        ("arch".into(), Json::from(std::env::consts::ARCH)),
        (
            "parallelism".into(),
            Json::from(
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1),
            ),
        ),
    ])
}

fn fmt_eta(d: Duration) -> String {
    let s = d.as_secs();
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

/// Live progress: a sticky status line when stderr is a terminal, one line
/// per cell otherwise (CI logs).
struct Progress {
    total: usize,
    started: Instant,
    sticky: bool,
    quiet: bool,
}

impl Progress {
    fn new(total: usize, quiet: bool) -> Self {
        Self {
            total,
            started: Instant::now(),
            sticky: std::io::stderr().is_terminal(),
            quiet,
        }
    }

    fn report(&self, done: usize, ran: usize, current: &str) {
        if self.quiet {
            return;
        }
        let eta = if ran > 0 && done > 0 {
            let per_cell = self.started.elapsed() / ran as u32;
            fmt_eta(per_cell * (self.total - done) as u32)
        } else {
            "--:--:--".into()
        };
        let rss = alloc::peak_rss_bytes()
            .map(|b| format!("{} MiB", b / (1 << 20)))
            .unwrap_or_else(|| "n/a".into());
        if self.sticky {
            eprint!(
                "\r[campaign] {done}/{} cells | eta {eta} | peak rss {rss} | {current}\x1b[K",
                self.total
            );
            let _ = std::io::stderr().flush();
        } else {
            eprintln!(
                "[campaign] {done}/{} cells | eta {eta} | peak rss {rss} | {current}",
                self.total
            );
        }
    }

    fn finish(&self) {
        if self.sticky && !self.quiet {
            eprintln!();
        }
    }
}

fn run_cell(cfg: &HarnessConfig, cell: &PlannedCell) -> CellRecord {
    match kind_for(&cell.label).expect("planned labels are canonical") {
        CellKind::Formulation(f) => run_formulation_cell(cfg, f, cell),
        CellKind::Objective(o) => run_objective_cell(cfg, o, cell),
        CellKind::Greedy => run_greedy_cell(cfg, cell),
        CellKind::PaperScale => {
            // Same time limit, threads and greedy cutoff, full-size workload.
            let paper_cfg = HarnessConfig {
                workload: tvnep_workloads::WorkloadConfig::paper(),
                ..cfg.clone()
            };
            run_formulation_cell(&paper_cfg, Formulation::CSigma, cell)
        }
    }
}

/// Runs (or resumes) a campaign. Every completed cell is journaled and
/// fsynced before the next one starts; re-invoking with the same options
/// after a crash picks up at the first unfinished cell.
pub fn run_campaign(opts: &CampaignOptions) -> io::Result<CampaignSummary> {
    let t0 = Instant::now();
    let cells = plan(&opts.labels, &opts.cfg);
    let config = config_json(opts);

    // Replay the journal: finished records by cell id, and whether the
    // campaign already ran to completion.
    let mut started = false;
    let mut finished: Vec<(String, CellRecord)> = Vec::new();
    let mut was_complete = false;
    let refuse = |why: &str| {
        let msg = format!("{}: {why}", opts.journal_path.display());
        Err(io::Error::new(io::ErrorKind::InvalidData, msg))
    };
    let mut journal = journal::open(&opts.journal_path, |ev| {
        if !started {
            started = true;
            if ev.get("event").and_then(Json::as_str) != Some("campaign_started") {
                return refuse("not a campaign journal");
            }
            if ev.get("config").unwrap_or(&Json::Null) != &config {
                return refuse(
                    "journal was recorded with a different campaign config; \
                     use a fresh journal path or rerun with the original grid",
                );
            }
            return Ok(());
        }
        match ev.get("event").and_then(Json::as_str) {
            Some("cell_finished") => {
                if let Some(rec) = ev.get("record").and_then(CellRecord::from_json) {
                    let id = rec.cell_id();
                    if !finished.iter().any(|(i, _)| *i == id) {
                        finished.push((id, rec));
                    }
                }
            }
            Some("campaign_finished") => was_complete = true,
            _ => {}
        }
        Ok(())
    })?;
    if !started {
        journal.write(&Json::Obj(vec![
            ("event".into(), Json::from("campaign_started")),
            ("version".into(), Json::from(1u64)),
            ("config".into(), config),
            ("host".into(), host_json()),
        ]))?;
    }

    let progress = Progress::new(cells.len(), opts.quiet);
    let mut records = Vec::with_capacity(cells.len());
    let mut resumed = 0usize;
    let mut ran = 0usize;
    for cell in &cells {
        let id = cell.id();
        if let Some((_, rec)) = finished.iter().find(|(i, _)| *i == id) {
            records.push(rec.clone());
            resumed += 1;
            continue;
        }
        progress.report(records.len(), ran, &id);
        journal.write(&Json::Obj(vec![
            ("event".into(), Json::from("cell_started")),
            ("cell".into(), Json::from(id.as_str())),
        ]))?;
        let rec = run_cell(&opts.cfg, cell);
        journal.write(&Json::Obj(vec![
            ("event".into(), Json::from("cell_finished")),
            ("cell".into(), Json::from(id.as_str())),
            ("record".into(), rec.to_json()),
        ]))?;
        records.push(rec);
        ran += 1;
        progress.report(records.len(), ran, &id);
    }
    progress.finish();

    if !was_complete {
        let mut fields = vec![
            ("event".into(), Json::from("campaign_finished")),
            ("cells".into(), Json::from(records.len())),
            ("wall_s".into(), Json::from(t0.elapsed().as_secs_f64())),
        ];
        if let Some(rss) = alloc::peak_rss_bytes() {
            fields.push(("peak_rss_bytes".into(), Json::from(rss)));
        }
        journal.write(&Json::Obj(fields))?;
    }

    Ok(CampaignSummary {
        records,
        resumed,
        ran,
        wall: t0.elapsed(),
    })
}

/// Renders the regression-gate benchmark document (`BENCH_campaign.json`)
/// for a finished campaign: config fingerprint, host metadata, and one entry
/// per cell with the quantities `bench-compare` gates on.
pub fn bench_doc(summary: &CampaignSummary, opts: &CampaignOptions) -> Json {
    let cells: Vec<Json> = summary
        .records
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("cell".into(), Json::from(r.cell_id())),
                ("skipped".into(), Json::from(r.skipped)),
                ("wall_s".into(), Json::from(r.runtime_s)),
                ("status".into(), Json::from(r.status.as_str())),
                (
                    "objective".into(),
                    r.objective.map_or(Json::Null, Json::from),
                ),
                ("nodes".into(), Json::from(r.nodes)),
                ("lp_iters".into(), Json::from(r.lp_iterations)),
                ("threads".into(), Json::from(r.threads)),
                ("peak_bytes".into(), Json::from(r.peak_bytes)),
                (
                    "ttfi_s".into(),
                    r.time_to_first_incumbent_s.map_or(Json::Null, Json::from),
                ),
                (
                    "primal_integral".into(),
                    r.primal_integral.map_or(Json::Null, Json::from),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("bench".into(), Json::from("campaign")),
        ("schema_version".into(), Json::from(1u64)),
        ("config".into(), config_json(opts)),
        ("host".into(), host_json()),
        (
            "total_wall_s".into(),
            Json::from(summary.wall.as_secs_f64()),
        ),
        ("cells".into(), Json::Arr(cells)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_all_have_kinds_and_expand() {
        for l in LABELS {
            assert!(kind_for(l).is_some(), "{l}");
        }
        assert_eq!(expand_labels("all").unwrap().len(), LABELS.len());
        assert_eq!(
            expand_labels("greedy,csigma").unwrap(),
            vec!["csigma_access".to_string(), "greedy_access".to_string()],
            "expansion is canonical-order, not input-order"
        );
        assert_eq!(expand_labels("formulations").unwrap().len(), 3);
        assert_eq!(expand_labels("objectives").unwrap().len(), 4);
        assert!(expand_labels("bogus").is_err());
        assert!(expand_labels("").is_err());

        // Each figure target names the series its figure plots.
        let formulations = ["csigma_access", "sigma_access", "delta_access"];
        let objectives = [
            "csigma_earliness",
            "csigma_nodeload",
            "csigma_disable",
            "csigma_makespan",
        ];
        for (target, labels) in [
            ("fig3", &formulations[..]),
            ("fig4", &formulations[..]),
            ("fig5", &objectives[..]),
            ("fig6", &objectives[..]),
            ("fig7", &["csigma_access", "greedy_access"][..]),
            ("fig8", &["csigma_access"][..]),
            ("fig9", &["csigma_access"][..]),
        ] {
            assert_eq!(expand_labels(target).unwrap(), labels, "{target}");
        }
        // `ablation` names no cell, alone or next to a figure.
        assert_eq!(expand_labels("ablation").unwrap(), Vec::<String>::new());
        assert_eq!(
            expand_labels("fig7,ablation").unwrap(),
            expand_labels("fig7").unwrap()
        );
        assert!(selects_ablation("fig7, ablation"));
        assert!(!selects_ablation("all"));
    }

    #[test]
    fn paper_scale_is_opt_in_and_plans_one_cell() {
        // `all` must not pull the paper-scale cell in.
        assert!(!expand_labels("all")
            .unwrap()
            .contains(&PAPER_SCALE_LABEL.to_string()));
        // Explicit selection works and sorts last.
        let labels = expand_labels("paper_scale,csigma").unwrap();
        assert_eq!(labels, vec!["csigma_access", "paper_scale"]);
        assert_eq!(kind_for(PAPER_SCALE_LABEL), Some(CellKind::PaperScale));
        // The grid does not multiply the appendix cell.
        let cfg = HarnessConfig {
            seeds: vec![1, 2, 3],
            flexibilities: vec![0.0, 1.0, 2.0],
            ..Default::default()
        };
        let cells = plan(&labels, &cfg);
        assert_eq!(cells.len(), 9 + 1);
        let paper: Vec<_> = cells.iter().filter(|c| c.label == "paper_scale").collect();
        assert_eq!(paper.len(), 1);
        assert_eq!(paper[0].id(), "paper_scale/seed=1/flex=1");
    }

    #[test]
    fn plan_order_is_label_seed_flex() {
        let cfg = HarnessConfig {
            seeds: vec![1, 2],
            flexibilities: vec![0.0, 1.0],
            ..Default::default()
        };
        let cells = plan(&["csigma_access".into(), "greedy_access".into()], &cfg);
        let ids: Vec<String> = cells.iter().map(PlannedCell::id).collect();
        assert_eq!(
            ids,
            [
                "csigma_access/seed=1/flex=0",
                "csigma_access/seed=1/flex=1",
                "csigma_access/seed=2/flex=0",
                "csigma_access/seed=2/flex=1",
                "greedy_access/seed=1/flex=0",
                "greedy_access/seed=1/flex=1",
                "greedy_access/seed=2/flex=0",
                "greedy_access/seed=2/flex=1",
            ]
        );
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = CellRecord {
            label: "csigma_access".into(),
            seed: 7,
            flex: 1.5,
            skipped: false,
            runtime_s: 0.123456789,
            status: "Optimal".into(),
            objective: Some(42.75),
            best_bound: 42.75,
            gap: Some(0.0),
            accepted: Some(3),
            nodes: 17,
            lp_iterations: 998,
            verified: Some(true),
            threads: 1,
            peak_bytes: 1 << 20,
            time_to_first_incumbent_s: Some(0.0125),
            primal_integral: Some(0.04),
        };
        let text = rec.to_json().to_string();
        let back = CellRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.csv_row(), rec.csv_row());

        // Journals written before the convergence columns existed (no
        // ttfi_s/primal_integral members) still parse, with NA in the CSV.
        let mut legacy = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut legacy {
            fields.retain(|(k, _)| k != "ttfi_s" && k != "primal_integral");
        }
        let back = CellRecord::from_json(&legacy).unwrap();
        assert_eq!(back.time_to_first_incumbent_s, None);
        assert_eq!(back.primal_integral, None);
        assert!(back.csv_row().unwrap().ends_with(",NA,NA"));

        // NaN bound and absent optionals survive (greedy-style row).
        let greedy = CellRecord {
            best_bound: f64::NAN,
            objective: None,
            gap: None,
            accepted: None,
            verified: None,
            time_to_first_incumbent_s: None,
            primal_integral: None,
            ..rec
        };
        let back =
            CellRecord::from_json(&Json::parse(&greedy.to_json().to_string()).unwrap()).unwrap();
        assert!(back.best_bound.is_nan());
        assert_eq!(back.objective, None);
        let row = back.csv_row().unwrap();
        assert!(row.contains(",NaN,"), "NaN bound must print as NaN: {row}");

        // Skipped records round-trip and emit no CSV row.
        let skipped = CellRecord::skipped(&PlannedCell {
            label: "csigma_earliness".into(),
            seed: 1,
            flex: 0.0,
        });
        let back =
            CellRecord::from_json(&Json::parse(&skipped.to_json().to_string()).unwrap()).unwrap();
        assert!(back.skipped);
        assert_eq!(back.csv_row(), None);
    }
}
