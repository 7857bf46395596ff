//! Deterministic Poisson load generator for the embedding service.
//!
//! Drives an in-process [`EpochRunner`] with the same arrival process as
//! the paper's workload generator (§VI-A: Poisson arrivals, Weibull
//! durations, star requests with uniform demands and a-priori random
//! mappings), streamed instead of batched: requests arrive until the
//! configured duration elapses, epochs close every `epoch_size`
//! submissions, and each decision's latency is recorded.
//!
//! The run is a pure function of the seed and configuration — each
//! admission is an exact scan over the candidate's possible starts, with no
//! budget and no wall clock — so acceptance counts, LP solves ("nodes"), and
//! the decision log are bit-reproducible and can be gated in CI
//! (`bench-compare` on the emitted `serve_slo` document).
//! Wall-clock quantities (latency percentiles, epoch overruns) are measured
//! honestly and gated only with loose tolerances.
//!
//! At the end every accepted schedule is re-checked by the independent
//! Definition-2.1 verifier over the full submitted stream; any violation
//! means the service over-committed capacity and fails the run. The same
//! audit instance and solution give the `util_out` utilization timeline.

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::{EpochRunner, ServeOptions};
use tvnep_core::{util_jsonl, util_points, ServiceOptions};
use tvnep_graph::{grid, star, NodeId, StarDirection};
use tvnep_harness::format::RequestDoc;
use tvnep_mip::MipOptions;
use tvnep_model::tol::VERIFY_TOL;
use tvnep_model::{
    verify_with_tol, Instance, Request, ScheduledRequest, Substrate, TemporalSolution,
};
use tvnep_telemetry::{Json, Telemetry};
use tvnep_workloads::{rng::Rng, WorkloadConfig};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// RNG seed; same seed ⇒ same arrival stream and decisions.
    pub seed: u64,
    /// Mean arrival rate, requests per hour.
    pub rate: f64,
    /// Length of the arrival window, hours.
    pub duration: f64,
    /// Temporal flexibility added to each request's window, hours.
    pub flex: f64,
    /// Substrate and request shapes (grid size, star leaves, demands,
    /// Weibull duration parameters).
    pub workload: WorkloadConfig,
    /// Name of the workload preset, used in the benchmark cell id.
    pub preset: String,
    /// Submissions per admission epoch.
    pub epoch_size: usize,
    /// Epoch wall budget in milliseconds; longer epochs count as overruns.
    pub tick_budget_ms: Option<u64>,
    /// Pending-queue bound (overload shedding).
    pub max_pending: usize,
    /// Optional WAL path (exercises the journal in load runs).
    pub wal: Option<PathBuf>,
    /// Write the run's utilization timeline as JSONL to this path: one line
    /// per event interval of every accepted decision, computed from the
    /// end-of-run audit.
    pub util_out: Option<PathBuf>,
    /// Telemetry sink for the admission LPs' counters and the `serve.admit`
    /// spans; the service's own counts are in the [`LoadReport`].
    pub telemetry: Telemetry,
}

impl LoadConfig {
    /// The CI SLO-gate configuration: tiny substrate, fixed seed, modest
    /// stream — small enough to finish in seconds, large enough to exercise
    /// reservations, GC, and rejections.
    pub fn slo_default() -> Self {
        Self {
            seed: 7,
            rate: 8.0,
            duration: 6.0,
            flex: 2.0,
            workload: WorkloadConfig::tiny(),
            preset: "tiny".into(),
            epoch_size: 3,
            tick_budget_ms: Some(30_000),
            max_pending: 1024,
            wal: None,
            util_out: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub submitted: u64,
    pub decisions: u64,
    pub accepted: u64,
    pub shed: u64,
    pub acceptance_ratio: f64,
    /// Definition-2.1 violations across all accepted schedules (must be 0).
    pub violations: usize,
    /// Total LP solves across all admissions, one per candidate start that
    /// passes the node check (`AdmitDecision::nodes`; deterministic).
    pub total_nodes: u64,
    pub epochs: u64,
    pub overruns: u64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub wall_s: f64,
}

/// One synthetic arrival: the request document plus its a-priori mapping.
fn synth_request(
    i: usize,
    arrival: f64,
    cfg: &LoadConfig,
    rng: &mut Rng,
    num_substrate_nodes: usize,
) -> (RequestDoc, Vec<usize>) {
    let w = &cfg.workload;
    let duration = rng.weibull(w.weibull_scale, w.weibull_shape).max(0.25);
    let direction = if rng.chance(0.5) {
        StarDirection::TowardsCenter
    } else {
        StarDirection::AwayFromCenter
    };
    let graph = star(w.star_leaves, direction);
    let node_demands: Vec<f64> = (0..graph.num_nodes())
        .map(|_| rng.range_f64(w.demand_range.0, w.demand_range.1))
        .collect();
    let edge_demands: Vec<f64> = (0..graph.num_edges())
        .map(|_| rng.range_f64(w.demand_range.0, w.demand_range.1))
        .collect();
    let mapping: Vec<usize> = (0..graph.num_nodes())
        .map(|_| rng.below(num_substrate_nodes))
        .collect();
    let edges = graph
        .edge_ids()
        .map(|e| {
            let (a, b) = graph.endpoints(e);
            [a.0, b.0]
        })
        .collect();
    (
        RequestDoc {
            name: format!("L{i}"),
            num_nodes: graph.num_nodes(),
            edges,
            node_demands,
            edge_demands,
            earliest_start: arrival,
            latest_end: arrival + duration + cfg.flex,
            duration,
        },
        mapping,
    )
}

/// Runs the generator end to end: synthesize the stream, drive the epochs,
/// verify every accepted schedule, aggregate the SLO metrics.
pub fn run(cfg: &LoadConfig) -> io::Result<LoadReport> {
    assert!(
        cfg.rate > 0.0 && cfg.duration > 0.0,
        "rate and duration must be positive"
    );
    let mut rng = Rng::new(cfg.seed);
    let substrate = Substrate::uniform(
        grid(cfg.workload.grid_rows, cfg.workload.grid_cols),
        cfg.workload.node_capacity,
        cfg.workload.edge_capacity,
    );

    // Synthesize the full arrival stream first so the horizon is a pure
    // function of the seed (the runner needs it up front).
    let mut stream: Vec<(RequestDoc, Vec<usize>)> = Vec::new();
    let mean_interarrival = 1.0 / cfg.rate;
    let mut arrival = rng.exp(mean_interarrival);
    while arrival <= cfg.duration {
        let item = synth_request(stream.len(), arrival, cfg, &mut rng, substrate.num_nodes());
        stream.push(item);
        arrival += rng.exp(mean_interarrival);
    }
    let horizon = stream
        .iter()
        .map(|(d, _)| d.latest_end)
        .fold(0.0f64, f64::max)
        + 1.0;

    let opts = ServeOptions {
        service: ServiceOptions {
            subproblem: MipOptions {
                telemetry: cfg.telemetry.clone(),
                ..MipOptions::default()
            },
            leak_every: None,
        },
        epoch_size: cfg.epoch_size,
        max_pending: cfg.max_pending,
        keep_log: true,
        slo: None,
        fault_panic_epoch: None,
    };
    let mut runner = EpochRunner::new(substrate.clone(), horizon, opts, cfg.wal.as_deref())?;
    runner.tick_budget = cfg.tick_budget_ms.map(Duration::from_millis);

    let clock = Instant::now();
    for (doc, mapping) in &stream {
        // The stream is synthesized valid; submit can only shed on overload.
        let _ = runner.submit(doc.clone(), mapping.clone())?;
        if runner.epoch_due() {
            runner.run_epoch()?;
        }
    }
    runner.run_epoch()?; // final partial epoch
    let wall_s = clock.elapsed().as_secs_f64();

    // Ground-truth audit: the decided schedules, replayed over the original
    // windows, must satisfy Definition 2.1 on the shared substrate.
    let mut requests: Vec<Request> = Vec::new();
    let mut mappings: Vec<Vec<NodeId>> = Vec::new();
    let mut scheduled: Vec<ScheduledRequest> = Vec::new();
    let mut log: Vec<&crate::DecisionRecord> = runner.decision_log().iter().collect();
    log.sort_by_key(|r| r.id);
    for rec in &log {
        let (doc, mapping) = &stream[rec.id as usize];
        requests.push(doc.to_request().expect("synthesized valid"));
        mappings.push(mapping.iter().map(|&n| NodeId(n)).collect());
        scheduled.push(ScheduledRequest {
            accepted: rec.accepted,
            start: rec.start,
            end: rec.end,
            embedding: rec.embedding.clone(),
        });
    }
    let audit = Instance::new(substrate, requests, horizon, Some(mappings));
    let solution = TemporalSolution {
        scheduled,
        reported_objective: None,
    };
    let violations = verify_with_tol(&audit, &solution, VERIFY_TOL);
    if let Some(path) = &cfg.util_out {
        let points = util_points(&audit, &solution);
        std::fs::write(path, util_jsonl(&audit.substrate, &points))?;
    }

    // Latency percentiles come from the shared telemetry histogram: bounded
    // relative error (≤ 3.125%), same math as every other `*_ms` in the repo.
    let hist = runner.admit_hist();
    let stats = runner.stats();
    let decisions = stats.decided;
    let accepted = stats.accepted;

    Ok(LoadReport {
        submitted: stats.submitted,
        decisions,
        accepted,
        shed: stats.shed,
        acceptance_ratio: if decisions > 0 {
            accepted as f64 / decisions as f64
        } else {
            0.0
        },
        violations: violations.len(),
        total_nodes: stats.nodes_spent,
        epochs: stats.epochs,
        overruns: stats.overruns,
        p50_ms: hist.quantile(0.50),
        p90_ms: hist.quantile(0.90),
        p99_ms: hist.quantile(0.99),
        mean_ms: hist.mean(),
        wall_s,
    })
}

/// Serializes a report as a `serve_slo` benchmark document for the
/// `bench-compare` regression gate. Deterministic columns (decisions,
/// accepted, shed, violations, total_nodes) gate exactly; latency columns
/// get percentage tolerances with floors.
pub fn slo_doc(cfg: &LoadConfig, report: &LoadReport) -> Json {
    let cell = format!(
        "load/preset={}/seed={}/rate={}/flex={}",
        cfg.preset, cfg.seed, cfg.rate, cfg.flex
    );
    let cell_obj = Json::Obj(vec![
        ("cell".into(), Json::from(cell.as_str())),
        ("threads".into(), Json::from(1u64)),
        ("decisions".into(), Json::from(report.decisions)),
        ("accepted".into(), Json::from(report.accepted)),
        ("shed".into(), Json::from(report.shed)),
        (
            "acceptance_ratio".into(),
            Json::from(report.acceptance_ratio),
        ),
        ("violations".into(), Json::from(report.violations)),
        ("total_nodes".into(), Json::from(report.total_nodes)),
        ("epochs".into(), Json::from(report.epochs)),
        ("overruns".into(), Json::from(report.overruns)),
        ("p50_ms".into(), Json::from(report.p50_ms)),
        ("p90_ms".into(), Json::from(report.p90_ms)),
        ("p99_ms".into(), Json::from(report.p99_ms)),
        ("mean_ms".into(), Json::from(report.mean_ms)),
        ("wall_s".into(), Json::from(report.wall_s)),
    ]);
    Json::Obj(vec![
        ("bench".into(), Json::from("serve_slo")),
        (
            "config".into(),
            Json::Obj(vec![
                ("seed".into(), Json::from(cfg.seed)),
                ("rate".into(), Json::from(cfg.rate)),
                ("duration".into(), Json::from(cfg.duration)),
                ("flex".into(), Json::from(cfg.flex)),
                ("preset".into(), Json::from(cfg.preset.as_str())),
                ("epoch_size".into(), Json::from(cfg.epoch_size)),
            ]),
        ),
        ("cells".into(), Json::Arr(vec![cell_obj])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> LoadConfig {
        LoadConfig {
            seed,
            rate: 1.5,
            duration: 4.0,
            flex: 1.0,
            ..LoadConfig::slo_default()
        }
    }

    #[test]
    fn deterministic_and_verified() {
        let cfg = quick_cfg(11);
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert!(a.decisions > 0, "stream must produce work");
        assert_eq!(a.violations, 0, "accepted schedules must verify");
        // Deterministic columns are bit-identical across reruns.
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.total_nodes, b.total_nodes);
        assert_eq!(a.shed, b.shed);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&quick_cfg(1)).unwrap();
        let b = run(&quick_cfg(2)).unwrap();
        assert!(
            a.decisions != b.decisions || a.total_nodes != b.total_nodes,
            "seeds should produce distinct streams"
        );
    }

    #[test]
    fn slo_doc_shape() {
        let cfg = quick_cfg(3);
        let r = run(&cfg).unwrap();
        let doc = slo_doc(&cfg, &r);
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("serve_slo"));
        let cells = doc.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert!(c
            .get("cell")
            .and_then(Json::as_str)
            .unwrap()
            .contains("seed=3"));
        assert_eq!(c.get("violations").and_then(Json::as_u64), Some(0));
        assert_eq!(c.get("decisions").and_then(Json::as_u64), Some(r.decisions));
    }

    /// Regression: with free flow variables for live reservations the
    /// admission MIP could re-route a reservation's virtual links to make
    /// room for a candidate, over-committing edges relative to the flows
    /// actually reserved. The contended SLO stream (rate 8 on the tiny 2×2
    /// grid) produced three Definition-2.1 edge-capacity violations before
    /// reservation flows were pinned. The scan pins them by construction —
    /// it subtracts the reserved flows from the capacities — so this now
    /// guards the residual computation.
    #[test]
    fn contended_stream_respects_reserved_flows() {
        let r = run(&LoadConfig::slo_default()).unwrap();
        assert!(r.decisions > 40, "contended stream should be sizable");
        assert!(
            r.accepted < r.decisions,
            "contention should force rejections"
        );
        assert_eq!(r.violations, 0, "reserved flows must never be re-routed");
    }

    #[test]
    fn report_percentiles_come_from_histogram() {
        let cfg = quick_cfg(5);
        let r = run(&cfg).unwrap();
        assert!(r.p50_ms <= r.p90_ms && r.p90_ms <= r.p99_ms);
        assert!(r.p99_ms > 0.0, "decisions take nonzero time");
        // p50/p99 sandwich the mean of a positive sample only loosely, but
        // all must lie within the observed range.
        assert!(r.mean_ms > 0.0);
    }

    #[test]
    fn util_out_writes_consistent_timeline() {
        use tvnep_bench::journal::read_journal;
        use tvnep_harness::format::embedding_from_json;

        let dir = std::env::temp_dir().join(format!("tvnep-loadgen-util-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (path, wal) = (dir.join("util.jsonl"), dir.join("load.wal"));
        let cfg = LoadConfig {
            util_out: Some(path.clone()),
            wal: Some(wal.clone()),
            ..quick_cfg(9)
        };
        let r = run(&cfg).unwrap();
        assert_eq!(r.violations, 0);

        // The run's audit, rebuilt from its WAL: every submitted request
        // with its decided schedule, in id order.
        let (mut requests, mut scheduled) = (Vec::new(), Vec::new());
        for ev in read_journal(&wal).unwrap() {
            let id = ev.get("id").and_then(Json::as_u64);
            match ev.get("event").and_then(Json::as_str) {
                Some("submitted") => {
                    let doc = RequestDoc::from_json(ev.get("request").unwrap()).unwrap();
                    requests.push((id, doc.to_request().unwrap()));
                }
                Some("decision") => scheduled.push((
                    id,
                    ScheduledRequest {
                        accepted: ev.get("accepted").and_then(Json::as_bool).unwrap(),
                        start: ev.get("start").and_then(Json::as_f64).unwrap(),
                        end: ev.get("end").and_then(Json::as_f64).unwrap(),
                        embedding: embedding_from_json(&ev).unwrap(),
                    },
                )),
                _ => {}
            }
        }
        requests.sort_by_key(|(id, _)| *id);
        scheduled.sort_by_key(|(id, _)| *id);
        assert_eq!(requests.len() as u64, r.decisions);
        assert_eq!(scheduled.len() as u64, r.decisions);
        let solution = TemporalSolution {
            scheduled: scheduled.into_iter().map(|(_, s)| s).collect(),
            reported_objective: None,
        };
        let load_at = |t: f64, alloc: &dyn Fn(&tvnep_model::Embedding, &Request) -> f64| -> f64 {
            solution
                .scheduled
                .iter()
                .zip(requests.iter().map(|(_, r)| r))
                .filter(|(s, _)| s.accepted && s.start < t && t < s.end)
                .filter_map(|(s, r)| s.embedding.as_ref().map(|e| alloc(e, r)))
                .sum()
        };

        // A header, then one line per event interval of the whole run, each
        // carrying the loads recomputed here.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("kind").and_then(Json::as_str),
            Some("tvnep-util-timeline")
        );
        let floats = |v: &Json, key: &str| -> Vec<f64> {
            let arr = v.get(key).and_then(Json::as_array).unwrap();
            arr.iter().map(|x| x.as_f64().unwrap()).collect()
        };
        let points: Vec<Json> = lines.map(|l| Json::parse(l).unwrap()).collect();
        let intervals = solution.event_intervals();
        assert!(intervals.len() > 1);
        assert_eq!(points.len(), intervals.len());
        for (p, &(lo, hi)) in points.iter().zip(&intervals) {
            let t = 0.5 * (lo + hi);
            assert_eq!(floats(p, "interval"), [lo, hi]);
            assert_eq!(p.get("t").and_then(Json::as_f64), Some(t));
            let nodes = floats(p, "node_load");
            assert_eq!(nodes.len(), floats(&header, "node_caps").len());
            for (n, &load) in nodes.iter().enumerate() {
                let want = load_at(t, &|e, r| e.node_allocation(r, NodeId(n)));
                assert_eq!(load, want, "node {n} at t={t}");
            }
            let edges = floats(p, "edge_load");
            assert_eq!(edges.len(), floats(&header, "edge_caps").len());
            for (e, &load) in edges.iter().enumerate() {
                let want = load_at(t, &|em, r| em.edge_allocation(r, tvnep_graph::EdgeId(e)));
                assert_eq!(load, want, "edge {e} at t={t}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
