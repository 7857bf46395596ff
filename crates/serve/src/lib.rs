//! # tvnep-serve — the online embedding service
//!
//! Turns the paper's batch machinery into a long-running admission system:
//!
//! * [`protocol`] — line-delimited JSON ops/events with submission
//!   validation at the trust boundary;
//! * [`EpochRunner`] — batches submissions into **admission epochs** and
//!   decides them through a [`tvnep_core::ServiceCore`] (the greedy cΣᴳ_A
//!   per-iteration step with previously accepted schedules fixed as
//!   substrate-capacity reservations, solved as a scan over the candidate's
//!   possible starts with one LP per start that the pinned node capacities
//!   do not rule out), journaling every decision to a
//!   **write-ahead log** before it is emitted;
//! * [`recover`](EpochRunner::recover) — rebuilds the exact reservation
//!   state from the WAL after a crash, so the continued decision log is
//!   byte-identical to an uninterrupted run;
//! * [`server`] — the event loop over stdin/stdout or TCP;
//! * [`loadgen`] — a deterministic Poisson load generator measuring
//!   acceptance ratio, admission-latency percentiles, and epoch-deadline
//!   overruns into an SLO benchmark document.
//!
//! ## Mapping to the paper
//!
//! An epoch is one run of the greedy's outer loop over the requests that
//! arrived since the previous tick, in earliest-arrival order (the greedy's
//! processing order). A reservation is an accepted request with its window
//! collapsed to the scheduled `[t⁺, t⁻]` — Constraints (24)/(25). The WAL
//! reuses the campaign journal format (`tvnep-bench`): append-only JSONL,
//! fsync per record, torn tails tolerated on replay.

pub mod loadgen;
pub mod protocol;
pub mod server;

use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use tvnep_bench::journal::{read_journal, JournalWriter};
use tvnep_core::{node_peaks, util_points, util_summary, Reservation, ServiceCore, ServiceOptions};
use tvnep_graph::NodeId;
use tvnep_harness::format::{embedding_from_json, InstanceDoc, RequestDoc};
use tvnep_model::{
    check_window, verify, Embedding, Instance, NodeMapping, Request, ScheduledRequest, Substrate,
    TemporalSolution,
};
use tvnep_telemetry::{prom, Json, LogHistogram};

/// Configuration of the epoch runner.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Admission options; each candidate start that passes the node check
    /// is one LP solved under `service.subproblem`, and every decision is
    /// deterministic.
    pub service: ServiceOptions,
    /// Close an epoch automatically once this many submissions are pending
    /// (`0` = epochs close only on explicit `tick`/EOF/shutdown).
    pub epoch_size: usize,
    /// Pending-queue bound; submissions beyond it are shed with an
    /// `error` event (graceful rejection under overload).
    pub max_pending: usize,
    /// Keep an in-memory decision log (the load generator and tests use it
    /// for end-of-run verification; servers leave it off).
    pub keep_log: bool,
    /// Service-level objectives the funnel's rolling window burns against
    /// (`None` = track the window with [`SloDoc::default`] targets but
    /// report no burn rates).
    pub slo: Option<SloDoc>,
    /// Fault injection: panic deliberately while the Nth epoch (1-based) is
    /// mid-decision. Exercises the black-box panic dump path end to end
    /// (CI's `blackbox` job drives it via `--fault-panic-epoch`).
    pub fault_panic_epoch: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            service: ServiceOptions::default(),
            epoch_size: 4,
            max_pending: 1024,
            keep_log: false,
            slo: None,
            fault_panic_epoch: None,
        }
    }
}

/// Service-level objectives for the admission funnel: what fraction of
/// decisions must be accepted over the rolling window and how slow the p99
/// admission may get. Loaded from a JSON doc (`tvnep-cli serve --slo FILE`).
#[derive(Debug, Clone, PartialEq)]
pub struct SloDoc {
    /// Rolling-window length, in epochs.
    pub window_epochs: usize,
    /// Minimum acceptance ratio over the window (error budget is
    /// `1 − acceptance_ratio_min`).
    pub acceptance_ratio_min: f64,
    /// Maximum p99 admission latency, milliseconds.
    pub p99_ms_max: f64,
}

impl Default for SloDoc {
    fn default() -> Self {
        Self {
            window_epochs: 16,
            acceptance_ratio_min: 0.5,
            p99_ms_max: 250.0,
        }
    }
}

impl SloDoc {
    /// Parses an SLO doc; absent keys keep their defaults so a doc can
    /// override only what it cares about, and unknown keys are ignored.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let d = Self::default();
        Ok(Self {
            window_epochs: match v.get("window_epochs") {
                Some(x) => x.as_usize().ok_or("slo: bad window_epochs")?.max(1),
                None => d.window_epochs,
            },
            acceptance_ratio_min: match v.get("acceptance_ratio_min") {
                Some(x) => x.as_f64().ok_or("slo: bad acceptance_ratio_min")?,
                None => d.acceptance_ratio_min,
            },
            p99_ms_max: match v.get("p99_ms_max") {
                Some(x) => x.as_f64().ok_or("slo: bad p99_ms_max")?,
                None => d.p99_ms_max,
            },
        })
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("window_epochs".into(), Json::from(self.window_epochs)),
            (
                "acceptance_ratio_min".into(),
                Json::from(self.acceptance_ratio_min),
            ),
            ("p99_ms_max".into(), Json::from(self.p99_ms_max)),
        ])
    }
}

/// One epoch's contribution to the funnel's rolling window.
#[derive(Debug, Clone, Copy, Default)]
struct EpochEntry {
    decided: u64,
    accepted: u64,
    nodes: u64,
}

/// A queued submission awaiting its epoch, validated when it was queued.
#[derive(Debug, Clone)]
struct PendingSubmission {
    id: u64,
    request: Request,
    mapping: NodeMapping,
}

/// One decided request, kept when [`ServeOptions::keep_log`] is on.
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    pub id: u64,
    pub accepted: bool,
    pub start: f64,
    pub end: f64,
    pub embedding: Option<Embedding>,
    pub runtime: Duration,
}

/// What a WAL replay reconstructed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Decision records replayed from the WAL.
    pub decisions_replayed: usize,
    /// Reservations re-installed (accepted and not yet expired).
    pub reservations_restored: usize,
    /// Submissions that were journaled but never decided — re-queued.
    pub requeued: usize,
}

/// Service counters behind the `metrics` event's funnel.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    pub submitted: u64,
    pub decided: u64,
    pub accepted: u64,
    pub shed: u64,
    pub epochs: u64,
    pub overruns: u64,
    /// LP solves spent across all decisions, one per candidate start that
    /// passes the node check (`AdmitDecision::nodes`; deterministic effort,
    /// the funnel budgets against it).
    pub nodes_spent: u64,
    pub last_epoch_wall: Duration,
}

/// The admission-epoch engine shared by the server, the load generator, and
/// the tests. See the crate docs.
pub struct EpochRunner {
    core: ServiceCore,
    opts: ServeOptions,
    pending: Vec<PendingSubmission>,
    wal: Option<JournalWriter>,
    next_id: u64,
    stats: ServeStats,
    log: Vec<DecisionRecord>,
    /// Admission latencies in milliseconds — the single percentile source
    /// for the load generator, the metrics wire, and `top`.
    admit_hist: LogHistogram,
    /// Rolling per-epoch funnel window (length bounded by the SLO doc).
    window: VecDeque<EpochEntry>,
    /// Records written to (or recovered from) the WAL.
    wal_records: u64,
    /// Epoch wall budget; epochs running longer count as overruns (the
    /// deterministic-solve analogue of a deadline miss).
    pub tick_budget: Option<Duration>,
}

impl EpochRunner {
    /// Creates a runner over `substrate`/`horizon`. When `wal` is given the
    /// file is opened for appending and, if it holds no events yet, a
    /// `serve_config` header (full substrate + horizon, self-contained) is
    /// written so a later [`recover`](Self::recover) needs nothing else.
    pub fn new(
        substrate: Substrate,
        horizon: f64,
        opts: ServeOptions,
        wal: Option<&Path>,
    ) -> io::Result<Self> {
        let mut wal_records = 0u64;
        let wal = match wal {
            Some(path) => {
                let existing = read_journal(path)?.len();
                let mut w = JournalWriter::open_append(path)?;
                wal_records = existing as u64;
                if existing == 0 {
                    w.write(&config_header(&substrate, horizon))?;
                    wal_records += 1;
                }
                Some(w)
            }
            None => None,
        };
        Ok(Self {
            core: ServiceCore::new(substrate, horizon, opts.service.clone()),
            opts,
            pending: Vec::new(),
            wal,
            next_id: 0,
            stats: ServeStats::default(),
            log: Vec::new(),
            admit_hist: LogHistogram::new(),
            window: VecDeque::new(),
            wal_records,
            tick_budget: None,
        })
    }

    /// Rebuilds a runner from a write-ahead log: the `serve_config` header
    /// yields the substrate, accepted `decision` records are re-installed as
    /// reservations (windows pinned, embeddings restored), the water mark is
    /// re-advanced in decision order, and journaled-but-undecided
    /// submissions are re-queued. The WAL stays open for appending, so the
    /// continued decision log is the same file. A record the live service
    /// never writes (a second `submitted` or `decision` for an id, or a
    /// `decision` without `accepted` or accepted with a `reason`) is
    /// refused, naming the record.
    pub fn recover(wal_path: &Path, opts: ServeOptions) -> io::Result<(Self, RecoveryReport)> {
        let events = read_journal(wal_path)?;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let header = events
            .first()
            .ok_or_else(|| bad("WAL is empty; nothing to recover".into()))?;
        if header.get("event").and_then(Json::as_str) != Some("serve_config") {
            return Err(bad("WAL does not start with a serve_config header".into()));
        }
        let inst_doc = InstanceDoc::from_json(
            header
                .get("instance")
                .ok_or_else(|| bad("serve_config without instance".into()))?,
        )
        .map_err(|e| bad(format!("serve_config: {e}")))?;
        let inst = inst_doc
            .into_instance()
            .map_err(|e| bad(format!("serve_config: {e}")))?;
        let (substrate, horizon) = (inst.substrate, inst.horizon);

        let mut submissions: Vec<PendingSubmission> = Vec::new();
        let mut decided: BTreeSet<u64> = BTreeSet::new();
        let mut core = ServiceCore::new(substrate.clone(), horizon, opts.service.clone());
        let mut report = RecoveryReport::default();
        let mut next_id = 0u64;

        for ev in &events[1..] {
            match ev.get("event").and_then(Json::as_str) {
                Some("submitted") => {
                    let id = ev
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("submitted without id".into()))?;
                    if submissions.iter().any(|p| p.id == id) {
                        return Err(bad(format!("submitted #{id} twice")));
                    }
                    let request = RequestDoc::from_json(
                        ev.get("request")
                            .ok_or_else(|| bad(format!("submitted #{id} without request")))?,
                    )
                    .and_then(|doc| doc.to_request())
                    .map_err(|e| bad(format!("submitted #{id}: {e}")))?;
                    let mapping = ev
                        .get("mapping")
                        .and_then(Json::as_array)
                        .ok_or_else(|| bad(format!("submitted #{id} without mapping")))?
                        .iter()
                        .map(|n| n.as_usize().map(NodeId))
                        .collect::<Option<NodeMapping>>()
                        .ok_or_else(|| bad(format!("submitted #{id}: bad mapping entry")))?;
                    core.validate(&request, &mapping)
                        .map_err(|e| bad(format!("submitted #{id}: {e}")))?;
                    next_id = next_id.max(id + 1);
                    submissions.push(PendingSubmission {
                        id,
                        request,
                        mapping,
                    });
                }
                Some("decision") => {
                    let id = ev
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("decision without id".into()))?;
                    let sub = submissions
                        .iter()
                        .find(|p| p.id == id)
                        .ok_or_else(|| bad(format!("decision #{id} without submission")))?;
                    if !decided.insert(id) {
                        return Err(bad(format!("decision #{id} twice")));
                    }
                    report.decisions_replayed += 1;
                    let accepted = ev
                        .get("accepted")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| bad(format!("decision #{id} without accepted")))?;
                    if ev.get("reason").is_some() {
                        if accepted {
                            return Err(bad(format!("decision #{id} accepted with a reason")));
                        }
                        // Rejected before the solver ran (stale window): the
                        // live path never advanced the water mark for it.
                        core.restore_rejected(id);
                        continue;
                    }
                    // The live admission advanced the water mark to the
                    // candidate's arrival (GC'ing expired reservations)
                    // before deciding; replay must do the same.
                    core.advance(sub.request.earliest_start);
                    if accepted {
                        let start = ev
                            .get("start")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| bad("decision without start".into()))?;
                        let end = ev
                            .get("end")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| bad("decision without end".into()))?;
                        let embedding = embedding_from_json(ev)
                            .map_err(|e| bad(format!("decision #{id}: {e}")))?
                            .ok_or_else(|| {
                                bad(format!("decision #{id}: accepted without embedding"))
                            })?;
                        // Restore only a schedule the core could have made:
                        // one the verifier accepts for the submission alone
                        // on the substrate, ending inside the horizon.
                        let mut request = sub.request.clone();
                        request.earliest_start = start;
                        request.latest_end = end;
                        let alone = Instance::new(
                            substrate.clone(),
                            vec![sub.request.clone()],
                            horizon,
                            Some(vec![sub.mapping.clone()]),
                        );
                        let schedule = TemporalSolution {
                            scheduled: vec![ScheduledRequest {
                                accepted: true,
                                start,
                                end,
                                embedding: Some(embedding.clone()),
                            }],
                            reported_objective: None,
                        };
                        let fault = verify(&alone, &schedule)
                            .first()
                            .map(|v| format!("{v:?}"))
                            .or_else(|| check_window(&request, horizon).err());
                        if let Some(fault) = fault {
                            return Err(bad(format!("decision #{id}: {fault}")));
                        }
                        core.restore(Reservation {
                            id,
                            request,
                            mapping: sub.mapping.clone(),
                            start,
                            end,
                            embedding,
                        });
                        report.reservations_restored += 1;
                    } else {
                        core.restore_rejected(id);
                    }
                }
                _ => {} // unknown/torn events are skipped, like the journal reader
            }
        }

        let pending: Vec<PendingSubmission> = submissions
            .into_iter()
            .filter(|p| !decided.contains(&p.id))
            .collect();
        report.requeued = pending.len();

        let stats = ServeStats {
            submitted: next_id,
            decided: report.decisions_replayed as u64,
            accepted: core.accepted_total(),
            ..ServeStats::default()
        };

        let wal = JournalWriter::open_append(wal_path)?;
        Ok((
            Self {
                core,
                opts,
                pending,
                wal: Some(wal),
                next_id,
                stats,
                log: Vec::new(),
                admit_hist: LogHistogram::new(),
                window: VecDeque::new(),
                wal_records: events.len() as u64,
                tick_budget: None,
            },
            report,
        ))
    }

    /// The underlying admission core (read-only).
    pub fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// The service counters the `metrics` event reports.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Submissions waiting for the next epoch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// In-memory decision log (empty unless [`ServeOptions::keep_log`]).
    pub fn decision_log(&self) -> &[DecisionRecord] {
        &self.log
    }

    /// Admission-latency histogram (milliseconds), the repo's single source
    /// of truth for service latency percentiles.
    pub fn admit_hist(&self) -> &LogHistogram {
        &self.admit_hist
    }

    /// Records written to the WAL over this runner's life (including
    /// replayed history after a recovery).
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Whether the pending queue has reached the auto-epoch threshold.
    pub fn epoch_due(&self) -> bool {
        self.opts.epoch_size > 0 && self.pending.len() >= self.opts.epoch_size
    }

    /// Validates and queues one submission. `Ok(id)` is acknowledged and
    /// journaled; `Err(reason)` (malformed input or overload shedding)
    /// consumes no id and leaves no WAL record.
    pub fn submit(
        &mut self,
        doc: RequestDoc,
        mapping: Vec<usize>,
    ) -> io::Result<Result<u64, String>> {
        if self.pending.len() >= self.opts.max_pending {
            self.stats.shed += 1;
            return Ok(Err(format!(
                "overload: {} submissions pending (max {})",
                self.pending.len(),
                self.opts.max_pending
            )));
        }
        let request = match doc.to_request() {
            Ok(r) => r,
            Err(e) => return Ok(Err(e.0)),
        };
        let node_mapping: NodeMapping = mapping.iter().map(|&n| NodeId(n)).collect();
        if let Err(e) = self.core.validate(&request, &node_mapping) {
            return Ok(Err(e.to_string()));
        }

        let id = self.next_id;
        self.next_id += 1;
        if let Some(w) = &mut self.wal {
            w.write(&Json::Obj(vec![
                ("event".into(), Json::from("submitted")),
                ("id".into(), Json::from(id)),
                ("request".into(), doc.to_json()),
                (
                    "mapping".into(),
                    Json::Arr(mapping.iter().map(|&n| Json::from(n)).collect()),
                ),
            ]))?;
            self.wal_records += 1;
            if let Some(bb) = &self.opts.service.subproblem.blackbox {
                bb.record(tvnep_telemetry::EventKind::WalFsync, 1, self.wal_records);
            }
        }
        self.stats.submitted += 1;
        self.pending.push(PendingSubmission {
            id,
            request,
            mapping: node_mapping,
        });
        Ok(Ok(id))
    }

    /// Closes the current epoch: decides every pending submission in
    /// earliest-arrival order (id as tie-break — the greedy's processing
    /// order), journaling each decision **before** it is returned for
    /// emission. Returns the serialized event lines (decisions plus a
    /// trailing `epoch` marker); empty when nothing was pending.
    pub fn run_epoch(&mut self) -> io::Result<Vec<String>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let blackbox = self.opts.service.subproblem.blackbox.clone();
        // Mark the whole epoch busy so the stall watchdog treats a silent
        // decision loop (no LP/node/epoch progress) as a stall, not idleness.
        let _busy = blackbox.as_ref().map(|bb| bb.recorder().busy_guard());
        let t0 = Instant::now();
        self.pending.sort_by(|a, b| {
            a.request
                .earliest_start
                .partial_cmp(&b.request.earliest_start)
                .expect("validated finite")
                .then(a.id.cmp(&b.id))
        });
        let batch = std::mem::take(&mut self.pending);
        let mut lines = Vec::with_capacity(batch.len() + 1);
        let (d0, a0, n0) = (
            self.stats.decided,
            self.stats.accepted,
            self.stats.nodes_spent,
        );
        for p in batch {
            let event = self.decide(p);
            if let Some(w) = &mut self.wal {
                w.write(&event)?;
                self.wal_records += 1;
                if let Some(bb) = &blackbox {
                    bb.record(tvnep_telemetry::EventKind::WalFsync, 1, self.wal_records);
                }
            }
            lines.push(event.to_string());
            if self.opts.fault_panic_epoch == Some(self.stats.epochs + 1) {
                panic!(
                    "fault injection: deliberate panic mid-epoch {} after {} decisions",
                    self.stats.epochs + 1,
                    lines.len()
                );
            }
        }
        self.stats.epochs += 1;
        if let Some(bb) = &blackbox {
            bb.pulse().add_epochs(1);
            bb.record(
                tvnep_telemetry::EventKind::EpochTick,
                self.stats.epochs,
                lines.len() as u64,
            );
        }
        self.stats.last_epoch_wall = t0.elapsed();
        if let Some(budget) = self.tick_budget {
            if self.stats.last_epoch_wall > budget {
                self.stats.overruns += 1;
            }
        }
        self.window.push_back(EpochEntry {
            decided: self.stats.decided - d0,
            accepted: self.stats.accepted - a0,
            nodes: self.stats.nodes_spent - n0,
        });
        let cap = self
            .opts
            .slo
            .as_ref()
            .map(|s| s.window_epochs)
            .unwrap_or_else(|| SloDoc::default().window_epochs)
            .max(1);
        while self.window.len() > cap {
            self.window.pop_front();
        }
        lines.push(protocol::epoch_event(self.stats.epochs, lines.len()).to_string());
        Ok(lines)
    }

    /// Decides one submission through the core.
    fn decide(&mut self, p: PendingSubmission) -> Json {
        let (id, name) = (p.id, p.request.name.clone());
        let (earliest_start, duration) = (p.request.earliest_start, p.request.duration);
        let t0 = Instant::now();
        let event = match self.core.admit_with_id(id, p.request, p.mapping) {
            Ok(d) => {
                if d.accepted {
                    self.stats.accepted += 1;
                }
                self.stats.nodes_spent += d.nodes;
                if self.opts.keep_log {
                    self.log.push(DecisionRecord {
                        id: d.id,
                        accepted: d.accepted,
                        start: d.start,
                        end: d.end,
                        embedding: d.embedding.clone(),
                        runtime: d.runtime,
                    });
                }
                protocol::decision_event(&d)
            }
            // Stale window (arrivals regressed past the water mark): a
            // deterministic pre-solver rejection.
            Err(e) => {
                if self.opts.keep_log {
                    self.log.push(DecisionRecord {
                        id,
                        accepted: false,
                        start: earliest_start,
                        end: earliest_start + duration,
                        embedding: None,
                        runtime: t0.elapsed(),
                    });
                }
                protocol::rejected_decision_event(
                    id,
                    &name,
                    earliest_start,
                    duration,
                    &e.to_string(),
                )
            }
        };
        self.stats.decided += 1;
        self.admit_hist.observe(t0.elapsed().as_secs_f64() * 1e3);
        event
    }

    /// The deterministic reservation-state snapshot (`dump` event):
    /// everything a client needs to audit the service's books, and what the
    /// crash-recovery test compares across a restart.
    pub fn dump(&self) -> Json {
        let reservations: Vec<Json> = self
            .core
            .reservations()
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".into(), Json::from(r.id)),
                    ("name".into(), Json::from(r.request.name.as_str())),
                    ("start".into(), Json::from(r.start)),
                    ("end".into(), Json::from(r.end)),
                    (
                        "node_map".into(),
                        Json::Arr(r.mapping.iter().map(|n| Json::from(n.0)).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("event".into(), Json::from("dump")),
            ("water_mark".into(), Json::from(self.core.water_mark())),
            (
                "accepted_total".into(),
                Json::from(self.core.accepted_total()),
            ),
            ("pending".into(), Json::from(self.pending.len())),
            ("reservations".into(), Json::Arr(reservations)),
        ])
    }

    /// The `blackbox` event answering the `dump-blackbox` protocol verb:
    /// the full flight-recorder dump inline (verdict `Running`), plus the
    /// path it was persisted to when a dump file is configured. When no
    /// recorder is attached (`--blackbox` not set) the event says so
    /// instead of erroring, so operators can probe a live server safely.
    pub fn blackbox_event(&self) -> Json {
        match &self.opts.service.subproblem.blackbox {
            Some(bb) => {
                let rec = bb.recorder();
                let mut fields = vec![
                    ("event".into(), Json::from("blackbox")),
                    ("enabled".into(), Json::from(true)),
                ];
                if let Ok(Some(path)) =
                    rec.write_dump("demand", "Running", "dump-blackbox protocol verb")
                {
                    fields.push(("path".into(), Json::from(path.display().to_string())));
                }
                fields.push((
                    "dump".into(),
                    rec.dump("demand", "Running", "dump-blackbox protocol verb"),
                ));
                Json::Obj(fields)
            }
            None => Json::Obj(vec![
                ("event".into(), Json::from("blackbox")),
                ("enabled".into(), Json::from(false)),
                (
                    "reason".into(),
                    Json::from("no flight recorder attached (run with --blackbox)"),
                ),
            ]),
        }
    }

    /// The self-describing `metrics` event: admission funnel, rolling
    /// window, latency percentiles from the histogram sketch, SLO burn
    /// rates, WAL accounting, and the substrate utilization summary,
    /// computed here from the live reservations. Latency and wall-clock
    /// fields are nondeterministic; everything else is a pure function of
    /// the admission sequence. This is the one place a service number is
    /// assembled: [`prometheus_text`](Self::prometheus_text) and
    /// `tvnep-cli top` only render it.
    pub fn metrics_event(&self) -> Json {
        let s = &self.stats;
        let mut fields = vec![
            ("event".into(), Json::from("metrics")),
            (
                "funnel".into(),
                Json::Obj(vec![
                    ("submitted".into(), Json::from(s.submitted)),
                    ("shed".into(), Json::from(s.shed)),
                    ("queued".into(), Json::from(self.pending.len())),
                    ("decided".into(), Json::from(s.decided)),
                    ("accepted".into(), Json::from(s.accepted)),
                    ("rejected".into(), Json::from(s.decided - s.accepted)),
                    ("epochs".into(), Json::from(s.epochs)),
                    ("overruns".into(), Json::from(s.overruns)),
                    ("nodes_spent".into(), Json::from(s.nodes_spent)),
                ]),
            ),
            (
                "latency_ms".into(),
                Json::Obj(vec![
                    ("count".into(), Json::from(self.admit_hist.count())),
                    ("mean".into(), Json::from(self.admit_hist.mean())),
                    ("p50".into(), Json::from(self.admit_hist.quantile(0.5))),
                    ("p90".into(), Json::from(self.admit_hist.quantile(0.9))),
                    ("p99".into(), Json::from(self.admit_hist.quantile(0.99))),
                    ("max".into(), Json::from(self.admit_hist.max())),
                ]),
            ),
        ];

        let (wd, wa, wn) = self.window.iter().fold((0u64, 0u64, 0u64), |(d, a, n), e| {
            (d + e.decided, a + e.accepted, n + e.nodes)
        });
        let ratio = if wd > 0 { wa as f64 / wd as f64 } else { 1.0 };
        let slo = self.opts.slo.clone().unwrap_or_default();
        fields.push((
            "window".into(),
            Json::Obj(vec![
                ("epochs".into(), Json::from(self.window.len())),
                ("decided".into(), Json::from(wd)),
                ("accepted".into(), Json::from(wa)),
                ("acceptance_ratio".into(), Json::from(ratio)),
                ("nodes".into(), Json::from(wn)),
            ]),
        ));
        if self.opts.slo.is_some() {
            // Burn rate = error rate / error budget; 1.0 means burning the
            // budget exactly, >1 means the SLO will be violated. Capped so
            // the JSON stays finite when the budget is zero.
            let err_budget = (1.0 - slo.acceptance_ratio_min).max(1e-9);
            let acceptance_burn = ((1.0 - ratio) / err_budget).min(1e6);
            let latency_burn = if slo.p99_ms_max > 0.0 {
                (self.admit_hist.quantile(0.99) / slo.p99_ms_max).min(1e6)
            } else {
                0.0
            };
            fields.push((
                "slo".into(),
                Json::Obj(vec![
                    ("doc".into(), slo.to_json()),
                    ("acceptance_burn".into(), Json::from(acceptance_burn)),
                    ("latency_burn".into(), Json::from(latency_burn)),
                ]),
            ));
        }
        let (inst, sol) = self.core.reservation_snapshot();
        let points = util_points(&inst, &sol);
        let u = util_summary(&inst.substrate, &points, self.core.water_mark());
        let peaks = node_peaks(&inst.substrate, &points);
        fields.push((
            "util".into(),
            Json::Obj(vec![
                ("points".into(), Json::from(u.points)),
                ("node_max".into(), Json::from(u.node_max)),
                ("edge_max".into(), Json::from(u.edge_max)),
                ("edge_p95".into(), Json::from(u.edge_p95)),
                ("headroom_next".into(), Json::from(u.headroom_next)),
                (
                    "node_peaks".into(),
                    Json::Arr(peaks.into_iter().map(Json::from).collect()),
                ),
            ]),
        ));
        fields.push((
            "wal".into(),
            Json::Obj(vec![
                ("enabled".into(), Json::from(self.wal.is_some())),
                ("records".into(), Json::from(self.wal_records)),
            ]),
        ));
        fields.push((
            "reservations".into(),
            Json::from(self.core.reservations().len()),
        ));
        fields.push(("water_mark".into(), Json::from(self.core.water_mark())));
        fields.push((
            "collected_total".into(),
            Json::from(self.core.collected_total()),
        ));
        fields.push((
            "last_epoch_wall_s".into(),
            Json::from(self.stats.last_epoch_wall.as_secs_f64()),
        ));
        Json::Obj(fields)
    }

    /// Prometheus text exposition (`GET /metrics` on the TCP front end):
    /// every numeric leaf of [`metrics_event`](Self::metrics_event) as a
    /// gauge named by its path under `serve.` (`funnel.decided` →
    /// `serve_funnel_decided`), then the admission-latency histogram.
    pub fn prometheus_text(&self) -> String {
        let mut out = prom::render_json_gauges("serve", &self.metrics_event());
        out.push_str(&prom::render_histogram(
            "serve.admit.latency_ms",
            &self.admit_hist,
        ));
        out
    }
}

/// The `serve_config` WAL header: a full, self-contained substrate +
/// horizon, reusing the instance document format with zero requests.
fn config_header(substrate: &Substrate, horizon: f64) -> Json {
    let inst = Instance::new(substrate.clone(), Vec::new(), horizon, None);
    Json::Obj(vec![
        ("event".into(), Json::from("serve_config")),
        (
            "instance".into(),
            InstanceDoc::from_instance(&inst).to_json(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_graph::grid;

    fn substrate() -> Substrate {
        Substrate::uniform(grid(2, 2), 1.0, 5.0)
    }

    fn doc(name: &str, es: f64, le: f64, d: f64) -> RequestDoc {
        RequestDoc {
            name: name.into(),
            num_nodes: 2,
            edges: vec![[0, 1]],
            node_demands: vec![1.0, 0.0],
            edge_demands: vec![0.1],
            earliest_start: es,
            latest_end: le,
            duration: d,
        }
    }

    #[test]
    fn epoch_decides_in_arrival_order_and_reports() {
        let mut runner =
            EpochRunner::new(substrate(), 20.0, ServeOptions::default(), None).unwrap();
        // Submit out of arrival order; decisions must come back sorted.
        let idb = runner
            .submit(doc("b", 3.0, 10.0, 2.0), vec![0, 1])
            .unwrap()
            .unwrap();
        let ida = runner
            .submit(doc("a", 0.0, 10.0, 2.0), vec![0, 1])
            .unwrap()
            .unwrap();
        assert_eq!((ida, idb), (1, 0));
        let lines = runner.run_epoch().unwrap();
        assert_eq!(lines.len(), 3); // two decisions + epoch marker
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(first.get("accepted").and_then(Json::as_bool), Some(true));
        let marker = Json::parse(&lines[2]).unwrap();
        assert_eq!(marker.get("event").and_then(Json::as_str), Some("epoch"));
        assert_eq!(runner.stats().decided, 2);
        assert!(runner.run_epoch().unwrap().is_empty(), "queue drained");
    }

    /// A runner with every observability source on (telemetry registry,
    /// SLO doc) after one epoch that accepted and rejected, with one
    /// submission still queued.
    fn observed_runner() -> EpochRunner {
        let mut opts = ServeOptions {
            slo: Some(SloDoc::default()),
            ..ServeOptions::default()
        };
        opts.service.subproblem.telemetry = tvnep_telemetry::Telemetry::metrics_only();
        let mut runner = EpochRunner::new(substrate(), 20.0, opts, None).unwrap();
        // 'a' fills node 0 over [0, 2]: rigid 'b' is rejected, 'c' waits.
        for (name, le) in [("a", 10.0), ("b", 2.0), ("c", 10.0)] {
            runner
                .submit(doc(name, 0.0, le, 2.0), vec![0, 1])
                .unwrap()
                .unwrap();
        }
        runner.run_epoch().unwrap();
        runner
            .submit(doc("d", 3.0, 12.0, 2.0), vec![0, 1])
            .unwrap()
            .unwrap();
        let s = runner.stats();
        assert_eq!((s.decided, s.accepted), (3, 2));
        runner
    }

    /// The `metrics` event's numeric leaves as `(gauge name, value)`.
    fn numeric_leaves(path: &str, v: &Json, out: &mut Vec<(String, f64)>) {
        match v {
            Json::Num(x) => out.push((prom::metric_name(path), *x)),
            Json::Obj(fields) => {
                for (key, child) in fields {
                    numeric_leaves(&format!("{path}.{key}"), child, out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn scrape_names_each_series_once() {
        let text = observed_runner().prometheus_text();
        let mut series = BTreeSet::new();
        for s in prom::parse(&text).unwrap() {
            assert!(
                series.insert((s.name.clone(), s.labels.clone())),
                "{}{{{}}} appears twice",
                s.name,
                s.labels
            );
        }
        let mut typed = BTreeSet::new();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let name = line.split_whitespace().nth(2).unwrap();
            assert!(typed.insert(name), "# TYPE {name} appears twice");
        }
    }

    #[test]
    fn scrape_is_the_metrics_snapshot_flattened() {
        let runner = observed_runner();
        let mut leaves = Vec::new();
        numeric_leaves("serve", &runner.metrics_event(), &mut leaves);
        for name in [
            "serve_window_accepted",
            "serve_util_points",
            "serve_slo_latency_burn",
        ] {
            assert!(
                leaves.iter().any(|(n, _)| n == name),
                "{name} not in snapshot"
            );
        }
        let samples = prom::parse(&runner.prometheus_text()).unwrap();
        for (name, value) in &leaves {
            let s = samples
                .iter()
                .find(|s| &s.name == name)
                .unwrap_or_else(|| panic!("{name} missing from the scrape"));
            assert_eq!(s.value.to_bits(), value.to_bits(), "{name}");
        }
        // The solver telemetry is attached, yet nothing but the snapshot's
        // leaves and the latency histogram reaches the scrape.
        for s in samples
            .iter()
            .filter(|s| !s.name.starts_with("serve_admit_latency_ms_"))
        {
            assert!(
                leaves.iter().any(|(n, _)| n == &s.name),
                "{} is not a leaf of the metrics event",
                s.name
            );
        }
    }

    #[test]
    fn slo_doc_keeps_defaults_and_refuses_bad_values() {
        let parse = |text: &str| SloDoc::from_json(&Json::parse(text).unwrap());
        assert_eq!(parse("{}"), Ok(SloDoc::default()));
        let partial = SloDoc {
            p99_ms_max: 40.0,
            ..SloDoc::default()
        };
        assert_eq!(parse("{\"p99_ms_max\": 40.0}"), Ok(partial));
        assert_eq!(
            parse("{\"node_budget_per_decision\": 200000}"),
            Ok(SloDoc::default()),
            "unknown keys are ignored"
        );
        assert_eq!(parse("{\"window_epochs\": 0}").unwrap().window_epochs, 1);
        assert!(parse("{\"p99_ms_max\": \"fast\"}").is_err());
    }

    #[test]
    fn overload_sheds_without_consuming_ids() {
        let opts = ServeOptions {
            max_pending: 1,
            ..ServeOptions::default()
        };
        let mut runner = EpochRunner::new(substrate(), 20.0, opts, None).unwrap();
        assert!(runner
            .submit(doc("a", 0.0, 4.0, 2.0), vec![0, 1])
            .unwrap()
            .is_ok());
        let shed = runner.submit(doc("b", 0.0, 4.0, 2.0), vec![0, 1]).unwrap();
        assert!(shed.unwrap_err().contains("overload"));
        assert_eq!(runner.stats().shed, 1);
        // The shed submission got no id; the next accepted one continues.
        let lines = runner.run_epoch().unwrap();
        assert_eq!(lines.len(), 2);
        let id_c = runner
            .submit(doc("c", 1.0, 6.0, 2.0), vec![0, 1])
            .unwrap()
            .unwrap();
        assert_eq!(id_c, 1);
    }

    #[test]
    fn malformed_submissions_refused_before_ids() {
        let mut runner =
            EpochRunner::new(substrate(), 20.0, ServeOptions::default(), None).unwrap();
        // Window beyond horizon.
        assert!(runner
            .submit(doc("x", 0.0, 99.0, 2.0), vec![0, 1])
            .unwrap()
            .is_err());
        // Bad mapping shape and range.
        assert!(runner
            .submit(doc("y", 0.0, 4.0, 2.0), vec![0])
            .unwrap()
            .is_err());
        assert!(runner
            .submit(doc("z", 0.0, 4.0, 2.0), vec![0, 9])
            .unwrap()
            .is_err());
        assert_eq!(runner.stats().submitted, 0);
    }

    #[test]
    fn wal_replay_reconstructs_reservations_and_pending() {
        let dir = std::env::temp_dir().join(format!("tvnep-serve-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.join("wal.jsonl");
        let dump_before;
        {
            let mut runner =
                EpochRunner::new(substrate(), 20.0, ServeOptions::default(), Some(&wal)).unwrap();
            runner
                .submit(doc("a", 0.0, 10.0, 2.0), vec![0, 1])
                .unwrap()
                .unwrap();
            runner
                .submit(doc("b", 0.0, 10.0, 2.0), vec![0, 1])
                .unwrap()
                .unwrap();
            runner.run_epoch().unwrap();
            // A third submission journaled but not yet decided.
            runner
                .submit(doc("c", 4.0, 12.0, 2.0), vec![0, 1])
                .unwrap()
                .unwrap();
            dump_before = runner.dump().to_string();
            // runner dropped here = crash without graceful shutdown
        }
        let (recovered, report) = EpochRunner::recover(&wal, ServeOptions::default()).unwrap();
        assert_eq!(report.decisions_replayed, 2);
        assert_eq!(report.reservations_restored, 2);
        assert_eq!(report.requeued, 1);
        assert_eq!(recovered.dump().to_string(), dump_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_runner_continues_decisions_identically() {
        let dir = std::env::temp_dir().join(format!("tvnep-serve-cont-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let submissions = [
            (doc("a", 0.0, 10.0, 2.0), vec![0, 1]),
            (doc("b", 0.5, 10.0, 2.0), vec![0, 1]),
            (doc("c", 1.0, 10.0, 2.0), vec![0, 1]),
            (doc("d", 1.5, 10.0, 2.0), vec![0, 1]),
        ];

        // Uninterrupted: all four in epochs of two.
        let wal_full = dir.join("full.jsonl");
        let mut full =
            EpochRunner::new(substrate(), 20.0, ServeOptions::default(), Some(&wal_full)).unwrap();
        for (d, m) in &submissions {
            full.submit(d.clone(), m.clone()).unwrap().unwrap();
            if full.pending_len() == 2 {
                full.run_epoch().unwrap();
            }
        }
        let dump_full = full.dump().to_string();
        let util_full = full.metrics_event().get("util").cloned().unwrap();
        assert!(util_full.get("points").and_then(Json::as_u64) > Some(0));
        drop(full);

        // Interrupted after the first epoch; recovery decides the rest.
        let wal_cut = dir.join("cut.jsonl");
        let mut cut =
            EpochRunner::new(substrate(), 20.0, ServeOptions::default(), Some(&wal_cut)).unwrap();
        for (d, m) in &submissions[..2] {
            cut.submit(d.clone(), m.clone()).unwrap().unwrap();
        }
        cut.run_epoch().unwrap();
        drop(cut); // crash
        let (mut rec, _) = EpochRunner::recover(&wal_cut, ServeOptions::default()).unwrap();
        for (d, m) in &submissions[2..] {
            rec.submit(d.clone(), m.clone()).unwrap().unwrap();
        }
        rec.run_epoch().unwrap();
        assert_eq!(rec.dump().to_string(), dump_full);
        // Utilization, read from the recovered reservations, is the
        // uninterrupted runner's to the bit.
        let util_rec = rec.metrics_event().get("util").cloned().unwrap();
        assert_eq!(util_rec.to_string(), util_full.to_string());

        // The decision lines of both WALs are byte-identical.
        let decisions = |p: &Path| -> Vec<String> {
            std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .filter(|l| {
                    l.contains("\"event\": \"decision\"") || l.contains("\"event\":\"decision\"")
                })
                .map(str::to_string)
                .collect()
        };
        let (df, dc) = (decisions(&wal_full), decisions(&wal_cut));
        assert_eq!(df.len(), 4);
        assert_eq!(df, dc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
