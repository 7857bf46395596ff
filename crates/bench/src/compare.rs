//! Benchmark regression gate: diffs two benchmark documents (baseline vs
//! candidate) with per-metric tolerances. Two document kinds are gated —
//! `campaign` (solver campaign cells) and `serve_slo` (online-service load
//! runs); both sides must be the same kind.
//!
//! The gate distinguishes two metric classes:
//!
//! * **Timing and memory** (`wall_s`, `peak_bytes`, latency percentiles)
//!   are noisy across hosts and runs; they get *percentage* tolerances with
//!   absolute floors so microsecond cells cannot trip the gate on scheduler
//!   jitter.
//! * **Search-effort counts** (`nodes`, `lp_iters` for campaigns;
//!   `decisions`, `accepted`, `shed`, `violations`, `total_nodes`, `epochs`
//!   for service runs), plus status and objective, are **exactly
//!   reproducible** for fixed seeds at `threads = 1` — the sequential
//!   branch-and-bound path is deterministic and an admission's effort is
//!   its scan over candidate starts, not a wall clock — so any drift there
//!   is a real behavioral change, not noise. These are compared exactly
//!   whenever both runs used one thread.
//!
//! A `serve_slo` candidate with nonzero `violations` always fails,
//! regardless of the baseline: accepted schedules breaking Definition 2.1
//! is a correctness bug, not a regression relative to anything.

use tvnep_telemetry::Json;

/// Per-metric tolerances of the wall-derived gates. Deterministic counts
/// (and status/objective) are always gated exactly when both runs are
/// single-threaded.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Allowed wall-clock slowdown per cell, percent of baseline.
    pub wall_pct: f64,
    /// Allowed peak-heap growth per cell, percent of baseline.
    pub mem_pct: f64,
    /// Allowed time-to-first-incumbent slowdown per cell, percent of
    /// baseline. Wall-derived, so as noisy as `wall_pct`.
    pub ttfi_pct: f64,
    /// Allowed primal-integral growth per cell, percent of baseline.
    pub pi_pct: f64,
    /// Allowed tail-latency (`p99_ms`) growth per cell, percent of
    /// baseline. Wall-derived (`serve_slo` documents), so noisy.
    pub p99_pct: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            wall_pct: 20.0,
            mem_pct: 25.0,
            ttfi_pct: 25.0,
            pi_pct: 25.0,
            p99_pct: 50.0,
        }
    }
}

/// Absolute floor under which wall-time differences are ignored (seconds):
/// sub-50ms cells are all scheduler noise.
const WALL_FLOOR_S: f64 = 0.05;
/// Absolute floor under which peak-heap differences are ignored (bytes).
const MEM_FLOOR_BYTES: f64 = (1 << 20) as f64;
/// Absolute floor for the wall-derived convergence scalars
/// (time-to-first-incumbent and primal integral), seconds.
const CONV_FLOOR_S: f64 = 0.05;
/// Absolute floor for latency percentiles (milliseconds): sub-25ms
/// admissions are dominated by scheduler noise.
const LATENCY_FLOOR_MS: f64 = 25.0;

/// Outcome of a comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Human-readable regression descriptions; non-empty ⇒ gate fails.
    pub regressions: Vec<String>,
    /// Noteworthy improvements (informational).
    pub improvements: Vec<String>,
    /// Cells present in both documents and checked.
    pub checked: usize,
}

impl CompareReport {
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }
}

fn cell_map(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("document has no 'cells' array")?;
    cells
        .iter()
        .map(|c| {
            c.get("cell")
                .and_then(Json::as_str)
                .map(|id| (id, c))
                .ok_or_else(|| "cell entry without 'cell' id".to_string())
        })
        .collect()
}

fn num(cell: &Json, key: &str) -> Option<f64> {
    cell.get(key).and_then(Json::as_f64)
}

/// Compares a candidate campaign document against a baseline. Returns an
/// error (not a regression) when either document is structurally not a
/// campaign benchmark.
pub fn compare_docs(
    baseline: &Json,
    candidate: &Json,
    tol: &Tolerances,
) -> Result<CompareReport, String> {
    let mut kinds = [""; 2];
    for (i, (name, doc)) in [("baseline", baseline), ("candidate", candidate)]
        .into_iter()
        .enumerate()
    {
        match doc.get("bench").and_then(Json::as_str) {
            Some(k @ ("campaign" | "serve_slo")) => kinds[i] = k,
            Some(other) => {
                return Err(format!(
                    "{name} is a '{other}' benchmark document; bench-compare gates \
                     'campaign' and 'serve_slo' documents"
                ))
            }
            None => return Err(format!("{name} has no 'bench' discriminator")),
        }
    }
    if kinds[0] != kinds[1] {
        return Err(format!(
            "benchmark kinds differ: baseline is '{}', candidate is '{}'",
            kinds[0], kinds[1]
        ));
    }
    let serve = kinds[0] == "serve_slo";

    let base_cells = cell_map(baseline)?;
    let cand_cells = cell_map(candidate)?;
    let mut report = CompareReport::default();

    for (id, base) in &base_cells {
        let Some((_, cand)) = cand_cells.iter().find(|(cid, _)| cid == id) else {
            report
                .regressions
                .push(format!("{id}: cell missing from candidate"));
            continue;
        };
        report.checked += 1;

        let base_skip = base.get("skipped").and_then(Json::as_bool).unwrap_or(false);
        let cand_skip = cand.get("skipped").and_then(Json::as_bool).unwrap_or(false);
        if base_skip != cand_skip {
            report.regressions.push(format!(
                "{id}: skipped changed {base_skip} -> {cand_skip} (cell population drifted)"
            ));
            continue;
        }
        if base_skip {
            continue;
        }

        // Wall clock: percentage tolerance with an absolute floor.
        if let (Some(bw), Some(cw)) = (num(base, "wall_s"), num(cand, "wall_s")) {
            let slack = (bw * tol.wall_pct / 100.0).max(WALL_FLOOR_S);
            if cw > bw + slack {
                report.regressions.push(format!(
                    "{id}: wall {bw:.3}s -> {cw:.3}s (+{:.1}%, tolerance {:.1}%)",
                    (cw - bw) / bw.max(1e-9) * 100.0,
                    tol.wall_pct
                ));
            } else if cw < bw - slack {
                report.improvements.push(format!(
                    "{id}: wall {bw:.3}s -> {cw:.3}s (-{:.1}%)",
                    (bw - cw) / bw.max(1e-9) * 100.0
                ));
            }
        }

        // Peak heap: same scheme; 0 means "not measured", never gated.
        if let (Some(bm), Some(cm)) = (num(base, "peak_bytes"), num(cand, "peak_bytes")) {
            if bm > 0.0 && cm > 0.0 {
                let slack = (bm * tol.mem_pct / 100.0).max(MEM_FLOOR_BYTES);
                if cm > bm + slack {
                    report.regressions.push(format!(
                        "{id}: peak heap {:.1} MiB -> {:.1} MiB (+{:.1}%, tolerance {:.1}%)",
                        bm / (1 << 20) as f64,
                        cm / (1 << 20) as f64,
                        (cm - bm) / bm * 100.0,
                        tol.mem_pct
                    ));
                } else if cm < bm - slack {
                    report.improvements.push(format!(
                        "{id}: peak heap {:.1} MiB -> {:.1} MiB (-{:.1}%)",
                        bm / (1 << 20) as f64,
                        cm / (1 << 20) as f64,
                        (bm - cm) / bm * 100.0
                    ));
                }
            }
        }

        // Convergence scalars: wall-derived, so gated like wall time. A
        // side that lacks the column (old documents, greedy cells) is never
        // gated — only both-present pairs are compared.
        for (key, label, pct) in [
            ("ttfi_s", "time-to-first-incumbent", tol.ttfi_pct),
            ("primal_integral", "primal integral", tol.pi_pct),
        ] {
            if let (Some(b), Some(c)) = (num(base, key), num(cand, key)) {
                let slack = (b * pct / 100.0).max(CONV_FLOOR_S);
                if c > b + slack {
                    report.regressions.push(format!(
                        "{id}: {label} {b:.3}s -> {c:.3}s (+{:.1}%, tolerance {:.1}%)",
                        (c - b) / b.max(1e-9) * 100.0,
                        pct
                    ));
                } else if c < b - slack {
                    report
                        .improvements
                        .push(format!("{id}: {label} {b:.3}s -> {c:.3}s"));
                }
            }
        }

        // Tail latency (`serve_slo`): percentage tolerance with a floor,
        // like wall time. Gated only when both sides report it.
        if let (Some(b), Some(c)) = (num(base, "p99_ms"), num(cand, "p99_ms")) {
            let slack = (b * tol.p99_pct / 100.0).max(LATENCY_FLOOR_MS);
            if c > b + slack {
                report.regressions.push(format!(
                    "{id}: p99 admission latency {b:.1}ms -> {c:.1}ms (+{:.1}%, tolerance {:.1}%)",
                    (c - b) / b.max(1e-9) * 100.0,
                    tol.p99_pct
                ));
            } else if c < b - slack {
                report
                    .improvements
                    .push(format!("{id}: p99 admission latency {b:.1}ms -> {c:.1}ms"));
            }
        }

        // Correctness backstop: a service run that over-committed capacity
        // fails no matter what the baseline says.
        if serve {
            if let Some(v) = num(cand, "violations") {
                if v > 0.0 {
                    report.regressions.push(format!(
                        "{id}: {v} Definition-2.1 violation(s) in accepted schedules"
                    ));
                }
            }
        }

        // Deterministic quantities: exact for single-threaded pairs.
        let both_seq = num(base, "threads") == Some(1.0) && num(cand, "threads") == Some(1.0);
        if serve && both_seq {
            // Service decisions are a pure function of the seed and the
            // load configuration: any drift in what was decided, accepted,
            // shed, or how many LP solves it took is a behavioral change.
            for key in [
                "decisions",
                "accepted",
                "shed",
                "violations",
                "total_nodes",
                "epochs",
            ] {
                if let (Some(b), Some(c)) = (num(base, key), num(cand, key)) {
                    if b != c {
                        report.regressions.push(format!(
                            "{id}: {key} changed {b} -> {c} (deterministic at threads=1)"
                        ));
                    }
                }
            }
        }
        if !serve && both_seq {
            let bs = base.get("status").and_then(Json::as_str).unwrap_or("");
            let cs = cand.get("status").and_then(Json::as_str).unwrap_or("");
            if bs != cs {
                report
                    .regressions
                    .push(format!("{id}: status changed {bs} -> {cs}"));
            }
            for key in ["nodes", "lp_iters"] {
                if let (Some(b), Some(c)) = (num(base, key), num(cand, key)) {
                    if b != c {
                        report.regressions.push(format!(
                            "{id}: {key} changed {b} -> {c} (deterministic at threads=1)"
                        ));
                    }
                }
            }
            let bo = num(base, "objective");
            let co = num(cand, "objective");
            match (bo, co) {
                (Some(b), Some(c)) if (b - c).abs() > 1e-9 * b.abs().max(1.0) => {
                    report
                        .regressions
                        .push(format!("{id}: objective changed {b} -> {c}"));
                }
                (Some(b), None) => report
                    .regressions
                    .push(format!("{id}: objective {b} lost (candidate found none)")),
                _ => {}
            }
        }
    }
    Ok(report)
}

/// Renders the report for the CLI.
pub fn render_report(report: &CompareReport, tol: &Tolerances) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bench-compare: {} cells checked (wall ±{}%, mem ±{}%, ttfi ±{}%, \
         primal-integral ±{}%, p99 ±{}%, exact counts at threads=1)\n",
        report.checked, tol.wall_pct, tol.mem_pct, tol.ttfi_pct, tol.pi_pct, tol.p99_pct
    ));
    for i in &report.improvements {
        out.push_str(&format!("  improved  {i}\n"));
    }
    for r in &report.regressions {
        out.push_str(&format!("  REGRESSED {r}\n"));
    }
    if report.regressions.is_empty() {
        out.push_str("PASS: no regressions\n");
    } else {
        out.push_str(&format!(
            "FAIL: {} regression(s)\n",
            report.regressions.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cells: &[(&str, f64, u64, u64, &str, f64)]) -> Json {
        // (id, wall_s, nodes, lp_iters, status, objective)
        let cells: Vec<Json> = cells
            .iter()
            .map(|(id, wall, nodes, iters, status, obj)| {
                Json::Obj(vec![
                    ("cell".into(), Json::from(*id)),
                    ("skipped".into(), Json::from(false)),
                    ("wall_s".into(), Json::from(*wall)),
                    ("status".into(), Json::from(*status)),
                    ("objective".into(), Json::from(*obj)),
                    ("nodes".into(), Json::from(*nodes)),
                    ("lp_iters".into(), Json::from(*iters)),
                    ("threads".into(), Json::from(1u64)),
                    ("peak_bytes".into(), Json::from(100u64 << 20)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("bench".into(), Json::from("campaign")),
            ("cells".into(), Json::Arr(cells)),
        ])
    }

    #[test]
    fn identical_docs_pass() {
        let d = doc(&[("a/seed=1/flex=0", 1.0, 10, 100, "Optimal", 5.0)]);
        let r = compare_docs(&d, &d, &Tolerances::default()).unwrap();
        assert!(!r.is_regression());
        assert_eq!(r.checked, 1);
    }

    #[test]
    fn wall_regression_beyond_tolerance_fails() {
        let base = doc(&[("a/seed=1/flex=0", 1.0, 10, 100, "Optimal", 5.0)]);
        let cand = doc(&[("a/seed=1/flex=0", 1.5, 10, 100, "Optimal", 5.0)]);
        let r = compare_docs(&base, &cand, &Tolerances::default()).unwrap();
        assert!(r.is_regression());
        assert!(r.regressions[0].contains("wall"));
        // Same 50% slowdown passes with a 60% tolerance.
        let loose = Tolerances {
            wall_pct: 60.0,
            ..Default::default()
        };
        assert!(!compare_docs(&base, &cand, &loose).unwrap().is_regression());
    }

    #[test]
    fn tiny_cells_are_shielded_by_the_absolute_floor() {
        // 3ms -> 9ms is +200% but far below the 50ms floor.
        let base = doc(&[("a/seed=1/flex=0", 0.003, 10, 100, "Optimal", 5.0)]);
        let cand = doc(&[("a/seed=1/flex=0", 0.009, 10, 100, "Optimal", 5.0)]);
        assert!(!compare_docs(&base, &cand, &Tolerances::default())
            .unwrap()
            .is_regression());
    }

    #[test]
    fn node_count_drift_is_exact_at_one_thread() {
        let base = doc(&[("a/seed=1/flex=0", 1.0, 10, 100, "Optimal", 5.0)]);
        let cand = doc(&[("a/seed=1/flex=0", 1.0, 11, 100, "Optimal", 5.0)]);
        let r = compare_docs(&base, &cand, &Tolerances::default()).unwrap();
        assert!(r.is_regression());
        assert!(r.regressions[0].contains("nodes"));
    }

    #[test]
    fn missing_cell_and_status_change_fail() {
        let base = doc(&[
            ("a/seed=1/flex=0", 1.0, 10, 100, "Optimal", 5.0),
            ("a/seed=2/flex=0", 1.0, 10, 100, "Optimal", 5.0),
        ]);
        let cand = doc(&[("a/seed=1/flex=0", 1.0, 10, 100, "Feasible", 5.0)]);
        let r = compare_docs(&base, &cand, &Tolerances::default()).unwrap();
        assert_eq!(r.regressions.len(), 2);
        assert!(r.regressions.iter().any(|m| m.contains("missing")));
        assert!(r.regressions.iter().any(|m| m.contains("status")));
    }

    fn with_convergence(doc: &Json, ttfi: f64, pi: f64) -> Json {
        let mut doc = doc.clone();
        if let Json::Obj(top) = &mut doc {
            for (k, v) in top.iter_mut() {
                if k != "cells" {
                    continue;
                }
                if let Json::Arr(cells) = v {
                    for cell in cells {
                        if let Json::Obj(fields) = cell {
                            fields.push(("ttfi_s".into(), Json::from(ttfi)));
                            fields.push(("primal_integral".into(), Json::from(pi)));
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn convergence_scalars_gate_when_both_present() {
        let base = doc(&[("a/seed=1/flex=0", 1.0, 10, 100, "Optimal", 5.0)]);
        // Missing on both sides: never gated.
        assert!(!compare_docs(&base, &base, &Tolerances::default())
            .unwrap()
            .is_regression());
        // Missing on one side (old baseline vs new candidate): never gated.
        let cand = with_convergence(&base, 2.0, 1.5);
        assert!(!compare_docs(&base, &cand, &Tolerances::default())
            .unwrap()
            .is_regression());
        // Present on both and beyond tolerance + floor: regression.
        let slow = with_convergence(&base, 4.0, 1.5);
        let r = compare_docs(&cand, &slow, &Tolerances::default()).unwrap();
        assert!(r.is_regression());
        assert!(r.regressions[0].contains("time-to-first-incumbent"));
        // A looser percentage lets it through.
        let loose = Tolerances {
            ttfi_pct: 150.0,
            ..Default::default()
        };
        assert!(!compare_docs(&cand, &slow, &loose).unwrap().is_regression());
        // Sub-floor drift on tiny cells is shielded.
        let tiny_base = with_convergence(&base, 0.004, 0.002);
        let tiny_cand = with_convergence(&base, 0.03, 0.04);
        assert!(
            !compare_docs(&tiny_base, &tiny_cand, &Tolerances::default())
                .unwrap()
                .is_regression()
        );
    }

    #[test]
    fn non_campaign_docs_are_rejected() {
        let other = Json::Obj(vec![("bench".into(), Json::from("parallel_baseline"))]);
        let d = doc(&[]);
        assert!(compare_docs(&other, &d, &Tolerances::default()).is_err());
        assert!(compare_docs(&d, &other, &Tolerances::default()).is_err());
        assert!(compare_docs(&Json::Null, &d, &Tolerances::default()).is_err());
    }

    // (decisions, accepted, shed, violations, total_nodes, epochs, p99_ms)
    fn serve_doc(cell: (u64, u64, u64, u64, u64, u64, f64)) -> Json {
        let (decisions, accepted, shed, violations, total_nodes, epochs, p99) = cell;
        Json::Obj(vec![
            ("bench".into(), Json::from("serve_slo")),
            (
                "cells".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("cell".into(), Json::from("load/preset=tiny/seed=7")),
                    ("threads".into(), Json::from(1u64)),
                    ("decisions".into(), Json::from(decisions)),
                    ("accepted".into(), Json::from(accepted)),
                    ("shed".into(), Json::from(shed)),
                    ("violations".into(), Json::from(violations)),
                    ("total_nodes".into(), Json::from(total_nodes)),
                    ("epochs".into(), Json::from(epochs)),
                    ("p99_ms".into(), Json::from(p99)),
                    ("wall_s".into(), Json::from(1.0)),
                ])]),
            ),
        ])
    }

    #[test]
    fn serve_slo_identical_docs_pass() {
        let d = serve_doc((53, 15, 0, 0, 1617, 18, 160.0));
        let r = compare_docs(&d, &d, &Tolerances::default()).unwrap();
        assert!(!r.is_regression());
        assert_eq!(r.checked, 1);
    }

    #[test]
    fn serve_slo_count_drift_is_exact() {
        let base = serve_doc((53, 15, 0, 0, 1617, 18, 160.0));
        for (cand, key) in [
            (serve_doc((53, 14, 0, 0, 1617, 18, 160.0)), "accepted"),
            (serve_doc((53, 15, 1, 0, 1617, 18, 160.0)), "shed"),
            (serve_doc((53, 15, 0, 0, 1618, 18, 160.0)), "total_nodes"),
            (serve_doc((52, 15, 0, 0, 1617, 18, 160.0)), "decisions"),
        ] {
            let r = compare_docs(&base, &cand, &Tolerances::default()).unwrap();
            assert!(r.is_regression(), "{key} drift must gate");
            assert!(r.regressions[0].contains(key), "{:?}", r.regressions);
        }
    }

    #[test]
    fn serve_slo_violations_always_fail() {
        // Even against an equally-bad baseline, with every count equal, a
        // candidate with violations is a correctness failure.
        let bad = serve_doc((53, 15, 0, 3, 1617, 18, 160.0));
        let r = compare_docs(&bad, &bad, &Tolerances::default()).unwrap();
        assert!(r.is_regression());
        assert!(r.regressions[0].contains("Definition-2.1"));
    }

    #[test]
    fn serve_slo_p99_gates_with_tolerance_and_floor() {
        let base = serve_doc((53, 15, 0, 0, 1617, 18, 100.0));
        // +30% is inside the default 50% tolerance.
        let ok = serve_doc((53, 15, 0, 0, 1617, 18, 130.0));
        assert!(!compare_docs(&base, &ok, &Tolerances::default())
            .unwrap()
            .is_regression());
        // +120% is not.
        let slow = serve_doc((53, 15, 0, 0, 1617, 18, 220.0));
        let r = compare_docs(&base, &slow, &Tolerances::default()).unwrap();
        assert!(r.is_regression());
        assert!(r.regressions[0].contains("p99"));
        // A looser percentage lets it through.
        let loose = Tolerances {
            p99_pct: 200.0,
            ..Default::default()
        };
        assert!(!compare_docs(&base, &slow, &loose).unwrap().is_regression());
        // Sub-floor cells (5ms -> 20ms) are shielded from jitter.
        let tiny_base = serve_doc((53, 15, 0, 0, 1617, 18, 5.0));
        let tiny_cand = serve_doc((53, 15, 0, 0, 1617, 18, 20.0));
        assert!(
            !compare_docs(&tiny_base, &tiny_cand, &Tolerances::default())
                .unwrap()
                .is_regression()
        );
    }

    #[test]
    fn mixed_kinds_are_rejected() {
        let campaign = doc(&[("a/seed=1/flex=0", 1.0, 10, 100, "Optimal", 5.0)]);
        let serve = serve_doc((53, 15, 0, 0, 1617, 18, 160.0));
        let err = compare_docs(&campaign, &serve, &Tolerances::default()).unwrap_err();
        assert!(err.contains("kinds differ"), "{err}");
    }
}
