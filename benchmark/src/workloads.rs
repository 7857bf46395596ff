//! The four workloads: how each one's inputs are made from the seed, what one
//! pass over them does, and which layers the benchmark times from outside.
//!
//! Every call into the program goes through [`Layers::time`], which records
//! a call count and wall time per layer and, on a traced pass, a
//! `bench.<layer>` span around the call, so the Chrome trace shows where the
//! benchmark handed control to the program.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tvnep_core::{build_model, greedy_csigma, BuildOptions, Formulation, GreedyOptions, Objective};
use tvnep_graph::NodeId;
use tvnep_harness::format::{InstanceDoc, RequestDoc};
use tvnep_mip::{solve_with, MipOptions, MipProgress};
use tvnep_model::tol::VERIFY_TOL;
use tvnep_model::{
    verify_with_tol, Instance, Request, ScheduledRequest, Substrate, TemporalSolution,
};
use tvnep_serve::{protocol::request_from_doc, EpochRunner, ServeOptions};
use tvnep_telemetry::{SpanRecord, Telemetry};
use tvnep_workloads::{generate, WorkloadConfig};

use crate::checks;
use crate::host::Clock;

/// Every workload's inputs are generated from this instance seed, unless
/// the benchmark seed is [`HOLD_OUT_SEED`].
const DEFAULT_SEED: u64 = 7;

/// The hold-out seed: a change is tuned on the default inputs and must also
/// hold on these.
const HOLD_OUT_SEED: u64 = 4;

/// The instance seed the inputs are generated from. The inputs are pinned,
/// not drawn from the benchmark seed, because the work they make varies far
/// more than any bound the metrics could have: across instance seeds, one
/// deep proof takes 0.01–13.7 s (`small`, +1 h, seeds 0–15), the shallow
/// sweep 3.0–4.9 s, and a 200-request stream 4.6–12.4 s of service time.
fn input_seed(seed: u64) -> u64 {
    if seed == HOLD_OUT_SEED {
        HOLD_OUT_SEED
    } else {
        DEFAULT_SEED
    }
}

/// Cap on one proof; never reached by the measured cells (the deepest takes
/// under 10 s), so a run that hits it is a failure, not a data point.
const PROOF_CAP: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProveDeep,
    SweepShallow,
    ServeOpen,
    ServeSaturated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProveDeep,
        Workload::SweepShallow,
        Workload::ServeOpen,
        Workload::ServeSaturated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProveDeep => "prove_deep",
            Workload::SweepShallow => "sweep_shallow",
            Workload::ServeOpen => "serve_open",
            Workload::ServeSaturated => "serve_saturated",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the measured ones, or toy ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The deep proof of `prove_deep`: a `small` instance with +1 h flexibility
/// (none in the smoke test) and the optimum the proof must reach.
#[derive(Debug, Clone, Copy)]
pub struct ProveCell {
    seed: u64,
    flex: f64,
    objective: f64,
}

fn prove_cell(seed: u64, scale: Scale) -> ProveCell {
    let seed = input_seed(seed);
    let (flex, objective) = match (scale, seed) {
        (Scale::Full, DEFAULT_SEED) => (1.0, 22.802982182306607),
        (Scale::Full, _) => (1.0, 14.737433502177154),
        (Scale::Smoke, DEFAULT_SEED) => (0.0, 17.166142961543887),
        (Scale::Smoke, _) => (0.0, 14.737433502177154),
    };
    ProveCell {
        seed,
        flex,
        objective,
    }
}

/// Flexibilities of the shallow sweep (the +2 h cell of `small` takes
/// 53–80 s and is left out; on `tiny` every cell is shallow).
const SWEEP_FLEX: [f64; 3] = [0.0, 1.0, 2.0];

/// Instance seeds of the sweep: a block of 128 (6 in the smoke test),
/// disjoint between the default and the hold-out inputs.
fn sweep_seeds(seed: u64, scale: Scale) -> std::ops::Range<u64> {
    let n = match scale {
        Scale::Full => 128,
        Scale::Smoke => 6,
    };
    let first = input_seed(seed) * n;
    first..first + n
}

/// Wall seconds per simulated hour of the open loop's arrival schedule:
/// 4 requests per second at the mean inter-arrival of 0.125 h. At 8 per
/// second the server is busy often enough that queueing multiplies any
/// slowdown: ten runs of identical code spread 26–56% in p90 latency while
/// their service times spread 9–19%.
const SECONDS_PER_HOUR: f64 = 2.0;

/// The request stream of both service workloads: `tiny`, 100 requests (24
/// in the smoke test) arriving every 0.125 h on average, +2 h flexibility.
fn stream_instance(seed: u64, scale: Scale) -> Instance {
    let config = WorkloadConfig {
        num_requests: match scale {
            Scale::Full => 100,
            Scale::Smoke => 24,
        },
        mean_interarrival: 0.125,
        ..WorkloadConfig::tiny()
    };
    generate(&config, input_seed(seed)).with_flexibility_after(2.0)
}

/// When each request of the stream is due on the open loop's wall clock,
/// seconds from the stream's start.
pub fn arrivals_s(seed: u64, scale: Scale) -> Vec<f64> {
    stream_instance(seed, scale)
        .requests
        .iter()
        .map(|r| r.earliest_start * SECONDS_PER_HOUR)
        .collect()
}

/// A layer the benchmark times from outside: its metric prefix and the span
/// name recorded around each call on a traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    pub metric: &'static str,
    span: &'static str,
}

pub const GENERATE: Layer = Layer {
    metric: "workloads.generate",
    span: "bench.workloads.generate",
};
pub const BUILD: Layer = Layer {
    metric: "core.build",
    span: "bench.core.build",
};
pub const GREEDY: Layer = Layer {
    metric: "core.greedy",
    span: "bench.core.greedy",
};
pub const SOLVE: Layer = Layer {
    metric: "mip.solve",
    span: "bench.mip.solve",
};
pub const EXTRACT: Layer = Layer {
    metric: "core.extract",
    span: "bench.core.extract",
};
pub const VERIFY: Layer = Layer {
    metric: "model.verify",
    span: "bench.model.verify",
};
pub const START: Layer = Layer {
    metric: "serve.start",
    span: "bench.serve.start",
};
pub const SUBMIT: Layer = Layer {
    metric: "serve.submit",
    span: "bench.serve.submit",
};
pub const RUN_EPOCH: Layer = Layer {
    metric: "serve.run_epoch",
    span: "bench.serve.run_epoch",
};

/// The layers called during a pass, in report order.
pub const PASS_LAYERS: [Layer; 8] = [
    BUILD, GREEDY, SOLVE, EXTRACT, VERIFY, START, SUBMIT, RUN_EPOCH,
];

/// Name of the span around a whole pass on a traced pass.
pub const PASS_SPAN: &str = "bench.pass";

/// Calls and wall time per outside-timed layer.
#[derive(Debug, Default)]
pub struct Layers {
    tel: Telemetry,
    entries: Vec<(Layer, u64, Duration)>,
}

impl Layers {
    pub fn new(tel: &Telemetry) -> Self {
        Self {
            tel: tel.clone(),
            entries: Vec::new(),
        }
    }

    /// Runs `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let span = self.tel.span(layer.span);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        drop(span);
        match self.entries.iter_mut().find(|(l, _, _)| *l == layer) {
            Some((_, calls, total)) => {
                *calls += 1;
                *total += dt;
            }
            None => self.entries.push((layer, 1, dt)),
        }
        out
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.entries
            .iter()
            .find(|(l, _, _)| *l == layer)
            .map_or(0, |e| e.1)
    }

    pub fn secs(&self, layer: Layer) -> f64 {
        self.entries
            .iter()
            .find(|(l, _, _)| *l == layer)
            .map_or(0.0, |e| e.2.as_secs_f64())
    }
}

/// Inputs of one pass, generated from the seed by [`setup`].
pub enum Inputs {
    Prove {
        cell: ProveCell,
        instance: Instance,
    },
    Sweep {
        cells: Vec<(u64, f64, Instance)>,
    },
    Serve {
        stream: Stream,
        epoch_size: usize,
        wal: PathBuf,
    },
}

/// A request stream: the documents a client submits, their a-priori
/// mappings and arrival times, plus the audit instance's substrate.
pub struct Stream {
    substrate: Substrate,
    horizon: f64,
    arrivals: Vec<(RequestDoc, Vec<usize>)>,
}

/// What a pass hands back: timings, counts, and the check verdicts.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Wall time of the timed phase, probes included.
    pub wall: Duration,
    /// The timed phase cut into consecutive pieces at points every pass
    /// reaches in the same order, reference seconds (see `host`): the model
    /// build, each branch-and-bound node and the extraction of a proof; each
    /// sweep cell; each admission epoch.
    pub segments: Vec<f64>,
    /// Service time of each decision in id order, milliseconds.
    pub decision_ms: Vec<f64>,
    pub layers: Layers,
    /// Live reservations after each epoch.
    pub live_reservations: Vec<usize>,
    pub decisions: u64,
    pub accepted: u64,
    pub nodes_spent: u64,
    /// Hash of the decision log (service workloads).
    pub digest: Option<u64>,
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub spans: Vec<SpanRecord>,
    pub metrics: tvnep_telemetry::MetricsSnapshot,
}

/// Generates the workload's inputs from `seed`, ready for one pass. The
/// service workloads' pass starts the runner, with its WAL under `tmp`.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: Scale,
    tmp: &Path,
    layers: &mut Layers,
) -> Inputs {
    match workload {
        Workload::ProveDeep => {
            let cell = prove_cell(seed, scale);
            let instance = layers.time(GENERATE, || {
                generate(&WorkloadConfig::small(), cell.seed).with_flexibility_after(cell.flex)
            });
            Inputs::Prove { cell, instance }
        }
        Workload::SweepShallow => {
            let config = WorkloadConfig::tiny();
            let cells = layers.time(GENERATE, || {
                let mut cells = Vec::new();
                for s in sweep_seeds(seed, scale) {
                    let base = generate(&config, s);
                    for flex in SWEEP_FLEX {
                        cells.push((s, flex, base.with_flexibility_after(flex)));
                    }
                }
                cells
            });
            Inputs::Sweep { cells }
        }
        Workload::ServeOpen | Workload::ServeSaturated => {
            let inst = layers.time(GENERATE, || stream_instance(seed, scale));
            let doc = InstanceDoc::from_instance(&inst);
            let maps = doc
                .fixed_node_mappings
                .expect("the generator fixes node mappings");
            let stream = Stream {
                substrate: inst.substrate,
                horizon: inst.horizon,
                arrivals: doc.requests.into_iter().zip(maps).collect(),
            };
            let epoch_size = if workload == Workload::ServeOpen {
                1
            } else {
                3
            };
            Inputs::Serve {
                stream,
                epoch_size,
                wal: wal_path(tmp, workload),
            }
        }
    }
}

fn wal_path(tmp: &Path, workload: Workload) -> PathBuf {
    tmp.join(format!("{}-{}.wal", workload.name(), std::process::id()))
}

/// Removes what the passes left on disk.
pub fn cleanup(workload: Workload, tmp: &Path) {
    let _ = std::fs::remove_file(wal_path(tmp, workload));
}

fn new_runner(
    stream: &Stream,
    epoch_size: usize,
    wal: &Path,
    tel: &Telemetry,
) -> std::io::Result<EpochRunner> {
    // A runner appends to an existing WAL; every pass starts from an empty one.
    match std::fs::remove_file(wal) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    // The default service options bound each decision by nodes, not wall
    // time, so decisions are deterministic.
    let mut service = tvnep_core::ServiceOptions::default();
    service.subproblem.telemetry = tel.clone();
    let opts = ServeOptions {
        service,
        epoch_size,
        keep_log: true,
        ..ServeOptions::default()
    };
    EpochRunner::new(stream.substrate.clone(), stream.horizon, opts, Some(wal))
}

/// Runs one pass over `inputs`. Only the pass itself is timed; the checks
/// run afterwards and are timed as `model.verify`.
pub fn pass(inputs: Inputs, tel: &Telemetry) -> std::io::Result<PassOutcome> {
    let mut out = PassOutcome {
        layers: Layers::new(tel),
        ..PassOutcome::default()
    };
    // A traced pass probes only here, before its root span opens: a probe
    // or a move later would land inside some span.
    let clock = Clock::start(!tel.spans_enabled());
    let root = tel.span(PASS_SPAN);
    let t0 = Instant::now();
    let check = match inputs {
        Inputs::Prove { cell, instance } => prove(cell, instance, tel, &mut out, &clock),
        Inputs::Sweep { cells } => sweep(cells, tel, &mut out, &clock),
        Inputs::Serve {
            stream,
            epoch_size,
            wal,
        } => serve(stream, epoch_size, &wal, tel, &mut out, &clock)?,
    };
    out.wall = t0.elapsed();
    drop(root);
    out.segments = clock.segments();
    let mut layers = std::mem::take(&mut out.layers);
    layers.time(VERIFY, || check(&mut out));
    out.layers = layers;
    out.metrics = tel.snapshot();
    out.spans = tel.spans();
    Ok(out)
}

type Check = Box<dyn FnOnce(&mut PassOutcome)>;

fn prove(
    cell: ProveCell,
    instance: Instance,
    tel: &Telemetry,
    out: &mut PassOutcome,
    clock: &Clock,
) -> Check {
    let built = out.layers.time(BUILD, || {
        build_model(
            &instance,
            Formulation::CSigma,
            Objective::AccessControl,
            BuildOptions::default_for(Formulation::CSigma),
        )
    });
    clock.cut();
    // The solver reports each node as it opens it: the proof is cut into
    // one segment per node.
    let node_clock = clock.clone();
    let opts = MipOptions {
        time_limit: Some(PROOF_CAP),
        telemetry: tel.clone(),
        log_every: Some(1),
        progress: Some(Arc::new(move |_: &MipProgress| {
            node_clock.cut();
        })),
        ..MipOptions::default()
    };
    let result = out.layers.time(SOLVE, || solve_with(&built.mip, &opts));
    clock.cut();
    let solution = result.x.as_ref().map(|x| {
        out.layers
            .time(EXTRACT, || built.extract_solution(&instance, x))
    });
    clock.cut();
    Box::new(move |out: &mut PassOutcome| {
        out.attempted += 1;
        let violations = solution
            .as_ref()
            .map(|s| verify_with_tol(&instance, s, VERIFY_TOL));
        let failures = checks::proof(
            result.status,
            result.objective,
            cell.objective,
            violations.as_deref(),
        );
        if !failures.is_empty() {
            out.failures.push(format!("proof: {}", failures.join("; ")));
        }
    })
}

fn sweep(
    cells: Vec<(u64, f64, Instance)>,
    tel: &Telemetry,
    out: &mut PassOutcome,
    clock: &Clock,
) -> Check {
    // As the campaign's formulation cell: greedy first, then cΣ branch and
    // bound searching only for strictly better solutions.
    let greedy_opts = GreedyOptions {
        subproblem: MipOptions {
            time_limit: Some(PROOF_CAP / 4),
            telemetry: tel.clone(),
            ..MipOptions::default()
        },
    };
    let mut runs = Vec::with_capacity(cells.len());
    for (seed, flex, instance) in cells {
        let greedy = out
            .layers
            .time(GREEDY, || greedy_csigma(&instance, &greedy_opts));
        let revenue = greedy.solution.revenue(&instance);
        let built = out.layers.time(BUILD, || {
            build_model(
                &instance,
                Formulation::CSigma,
                Objective::AccessControl,
                BuildOptions::default_for(Formulation::CSigma),
            )
        });
        let opts = MipOptions {
            time_limit: Some(PROOF_CAP),
            telemetry: tel.clone(),
            cutoff: Some(revenue - 1e-6),
            ..MipOptions::default()
        };
        let result = out.layers.time(SOLVE, || solve_with(&built.mip, &opts));
        let solution = result.x.as_ref().map(|x| {
            out.layers
                .time(EXTRACT, || built.extract_solution(&instance, x))
        });
        clock.cut();
        runs.push((
            seed,
            flex,
            instance,
            greedy.solution,
            revenue,
            result,
            solution,
        ));
    }
    Box::new(move |out: &mut PassOutcome| {
        for (seed, flex, instance, greedy, revenue, result, solution) in runs {
            out.attempted += 1;
            let greedy_violations = verify_with_tol(&instance, &greedy, VERIFY_TOL);
            let violations = solution
                .as_ref()
                .map(|s| verify_with_tol(&instance, s, VERIFY_TOL));
            let failures = checks::sweep_cell(
                result.status,
                result.objective,
                revenue,
                &greedy_violations,
                violations.as_deref(),
            );
            if !failures.is_empty() {
                out.failures.push(format!(
                    "cell seed={seed} flex={flex}: {}",
                    failures.join("; ")
                ));
            }
        }
    })
}

/// Starts a runner with an empty WAL, submits the stream back to back and
/// closes an epoch whenever one is due. One segment per epoch: its
/// submissions and its decisions, the first one also the start.
fn serve(
    stream: Stream,
    epoch_size: usize,
    wal: &Path,
    tel: &Telemetry,
    out: &mut PassOutcome,
    clock: &Clock,
) -> std::io::Result<Check> {
    // Starting the service creates and fsyncs its WAL: disk latency, which
    // on a shared host varies far more than the set-up's computation, so it
    // is timed here rather than in `setup_s`.
    let mut runner = out
        .layers
        .time(START, || new_runner(&stream, epoch_size, wal, tel))?;
    let mut refused = Vec::new();
    let mut io_errors = Vec::new();
    // (id, service time in reference milliseconds): the service times each
    // decision by the wall clock; its epoch's segment converts it.
    let mut decision_ms = Vec::new();
    for (i, (doc, mapping)) in stream.arrivals.iter().enumerate() {
        match out
            .layers
            .time(SUBMIT, || runner.submit(doc.clone(), mapping.clone()))
        {
            Ok(Ok(_)) => {}
            Ok(Err(reason)) => refused.push(format!("request {i} refused: {reason}")),
            Err(e) => io_errors.push(format!("request {i}: WAL write failed: {e}")),
        }
        let last = i + 1 == stream.arrivals.len();
        if runner.epoch_due() || (last && runner.pending_len() > 0) {
            if let Err(e) = out.layers.time(RUN_EPOCH, || runner.run_epoch()) {
                io_errors.push(format!("epoch: WAL write failed: {e}"));
            }
            let scale = clock.cut();
            let log = runner.decision_log();
            decision_ms.extend(
                log[decision_ms.len()..]
                    .iter()
                    .map(|d| (d.id, d.runtime.as_secs_f64() * 1e3 * scale)),
            );
            out.live_reservations
                .push(runner.core().reservations().len());
        }
    }
    decision_ms.sort_by_key(|&(id, _)| id);
    out.decision_ms = decision_ms.into_iter().map(|(_, ms)| ms).collect();
    let mut log: Vec<tvnep_serve::DecisionRecord> = runner.decision_log().to_vec();
    log.sort_by_key(|d| d.id);
    let stats = runner.stats();
    out.decisions = stats.decided;
    out.accepted = stats.accepted;
    out.nodes_spent = stats.nodes_spent;
    out.digest = Some(digest(&log));
    Ok(Box::new(move |out: &mut PassOutcome| {
        out.attempted += stream.arrivals.len() as u64;
        out.failures.extend(refused);
        out.failures.extend(io_errors);
        let (instance, solution) = audit_instance(&stream, &log);
        let violations = verify_with_tol(&instance, &solution, VERIFY_TOL);
        out.failures.extend(checks::service(
            stream.arrivals.len(),
            log.len(),
            &violations,
        ));
    }))
}

/// The audit the load generator runs: every decided schedule, replayed over
/// the submitted windows, must satisfy Definition 2.1 on the shared
/// substrate.
fn audit_instance(
    stream: &Stream,
    log: &[tvnep_serve::DecisionRecord],
) -> (Instance, TemporalSolution) {
    let mut requests: Vec<Request> = Vec::new();
    let mut mappings = Vec::new();
    let mut scheduled = Vec::new();
    for d in log {
        let (doc, mapping) = &stream.arrivals[d.id as usize];
        requests.push(request_from_doc(doc).expect("generated requests are valid"));
        mappings.push(mapping.iter().map(|&n| NodeId(n)).collect());
        scheduled.push(ScheduledRequest {
            accepted: d.accepted,
            start: d.start,
            end: d.end,
            embedding: d.embedding.clone(),
        });
    }
    (
        Instance::new(
            stream.substrate.clone(),
            requests,
            stream.horizon,
            Some(mappings),
        ),
        TemporalSolution {
            scheduled,
            reported_objective: None,
        },
    )
}

/// FNV-1a over each decision's id, verdict and exact schedule.
fn digest(log: &[tvnep_serve::DecisionRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in log {
        eat(d.id);
        eat(d.accepted as u64);
        eat(d.start.to_bits());
        eat(d.end.to_bits());
    }
    h
}
