//! Black-box flight recorder, crash-dump writer, and stall watchdog.
//!
//! The rest of the observability plane (metrics and spans) answers
//! "what did the run look like?" — *after* it exits cleanly. This module
//! answers the complementary question: *what was the solver doing in its
//! final milliseconds* when a run panics, is SIGTERMed, or silently stalls?
//!
//! Three cooperating pieces:
//!
//! * [`FlightRecorder`] — per-thread, fixed-capacity ring buffers of compact
//!   structured events ([`EventKind`]: LP pivot milestones, refactorizations,
//!   branch-and-bound node open/close with bounds, admission-epoch ticks, WAL
//!   fsyncs). Each ring has exactly one writer (the owning logical thread, the
//!   same `tid` convention as spans: 0 = driver, `w + 1` = worker `w`), so a
//!   record is a relaxed head load plus four word stores — no locks, no
//!   allocation, no clock read beyond one `Instant::elapsed`. When the
//!   recorder is not attached the cost at every instrumentation site is a
//!   single `Option` branch.
//! * A **dump writer** ([`FlightRecorder::write_dump`]) plus process-global
//!   [`install_panic_hook`] / [`sigterm`] hooks: on panic, on SIGTERM, or on
//!   demand, the last-N events per thread are merged with the active span
//!   stack, the current incumbent/bound, the LP health verdict, and the
//!   allocator gauges into one self-contained JSON document.
//! * [`Watchdog`] — a monitor thread fed by cheap progress epochs
//!   ([`ProgressPulse`]: cumulative LP iterations, MIP nodes, admission
//!   epochs). If the pulse stops advancing while the solver claims to be busy
//!   ([`FlightRecorder::busy_guard`]) for longer than a configurable
//!   threshold, it emits a stall report (same dump format, verdict
//!   `Stalled`) *without* killing the solve, and publishes `watchdog.*`
//!   gauges.
//!
//! Ring reads at dump time are diagnostics-grade: a dump may race a writer
//! mid-record, in which case the sequence check rejects the torn slot rather
//! than emitting garbage. Everything a dump contains is derived from data
//! already maintained on the hot path; nothing here adds a lock to the
//! solver.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use crate::{Json, Telemetry};

/// Default per-thread ring capacity (events); always rounded up to a power
/// of two. 256 events × 32 bytes = 8 KiB per thread.
pub const DEFAULT_RING_CAP: usize = 256;

/// Logical thread id used by the watchdog monitor thread for its own events
/// (stall markers). Excluded from [`render_raw`] because watchdog events
/// are timing-dependent by nature.
pub const WATCHDOG_TID: u32 = u32::MAX;

/// Health verdict codes published into the recorder by the LP engine
/// (mirrors `tvnep-lp`'s `HealthVerdict` without a dependency cycle, in its
/// order: the engine publishes `HEALTH_STABLE` plus the verdict).
pub const HEALTH_UNKNOWN: u64 = 0;
pub const HEALTH_STABLE: u64 = 1;
pub const HEALTH_SUSPECT: u64 = 2;
pub const HEALTH_UNSTABLE: u64 = 3;

/// Compact structured event kinds. Each event carries two `u64` payload
/// words `a` and `b` whose meaning is kind-specific (documented per
/// variant); kinds marked *f64* store an `f64::to_bits` image in `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// One completed LP solve: `a` = simplex iterations, `b` = status code.
    LpSolve = 1,
    /// Periodic pivot milestone (every [`LP_MILESTONE_EVERY`] iterations):
    /// `a` = cumulative iterations this solve, `b` = phase (1 or 2).
    LpMilestone = 2,
    /// Basis refactorization: `a` = cause (0 = scheduled, 1 = forced,
    /// 2 = singular recovery), `b` = total refactorizations so far.
    Refactor = 3,
    /// Branch-and-bound node popped for processing: `a` = node sequence
    /// number, `b` = node bound (*f64*).
    NodeOpen = 4,
    /// Node disposed: `a` = node sequence number, `b` = reason code
    /// (0 = branched, 1 = pruned by bound, 2 = infeasible, 3 = integral,
    /// 4 = time limit, 5 = numerical re-queue, 6 = unbounded).
    NodeClose = 5,
    /// New incumbent installed: `a` = node sequence number, `b` = objective
    /// (*f64*).
    Incumbent = 6,
    /// Global dual bound moved: `a` = node sequence number, `b` = bound
    /// (*f64*).
    Bound = 7,
    /// Admission epoch completed: `a` = epoch sequence, `b` = requests
    /// decided this epoch.
    EpochTick = 8,
    /// Write-ahead-log fsync: `a` = records appended, `b` = total records.
    WalFsync = 9,
    /// Admission decision: `a` = request id, `b` = 1 accepted / 0 rejected.
    Admit = 10,
    /// Stall report emitted by the watchdog: `a` = report ordinal,
    /// `b` = progress age in milliseconds.
    Stall = 11,
}

/// Emit an [`EventKind::LpMilestone`] every this many simplex iterations.
pub const LP_MILESTONE_EVERY: u64 = 256;

impl EventKind {
    /// Stable wire name used in dump JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::LpSolve => "lp_solve",
            EventKind::LpMilestone => "lp_milestone",
            EventKind::Refactor => "refactor",
            EventKind::NodeOpen => "node_open",
            EventKind::NodeClose => "node_close",
            EventKind::Incumbent => "incumbent",
            EventKind::Bound => "bound",
            EventKind::EpochTick => "epoch_tick",
            EventKind::WalFsync => "wal_fsync",
            EventKind::Admit => "admit",
            EventKind::Stall => "stall",
        }
    }

    /// Inverse of the `repr(u8)` discriminant; `None` for unknown codes
    /// (e.g. a torn slot that escaped the sequence check).
    pub fn from_code(code: u8) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::LpSolve,
            2 => EventKind::LpMilestone,
            3 => EventKind::Refactor,
            4 => EventKind::NodeOpen,
            5 => EventKind::NodeClose,
            6 => EventKind::Incumbent,
            7 => EventKind::Bound,
            8 => EventKind::EpochTick,
            9 => EventKind::WalFsync,
            10 => EventKind::Admit,
            11 => EventKind::Stall,
            _ => return None,
        })
    }

    /// True when payload word `b` is an `f64::to_bits` image (bounds and
    /// objectives); dumps decode it back to a float.
    pub fn b_is_f64_bits(self) -> bool {
        matches!(
            self,
            EventKind::NodeOpen | EventKind::Incumbent | EventKind::Bound
        )
    }
}

/// One decoded event read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackboxEvent {
    pub tid: u32,
    /// Monotonic per-ring sequence number (0-based; total recorded on this
    /// ring may exceed the largest retained `seq` by at most the capacity).
    pub seq: u64,
    pub kind: EventKind,
    /// Nanoseconds since the recorder epoch.
    pub t_ns: u64,
    pub a: u64,
    pub b: u64,
}

/// One ring slot: `kind_seq` packs `(seq << 8) | kind` and is written last
/// (release) so a concurrent dump can detect torn slots by sequence
/// mismatch. 32 bytes.
struct Slot {
    kind_seq: AtomicU64,
    t: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// Fixed-capacity event ring with exactly one writer (the owning logical
/// thread) and any number of diagnostics-grade concurrent readers.
pub struct ThreadRing {
    tid: u32,
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn new(tid: u32, cap: usize) -> ThreadRing {
        let cap = cap.next_power_of_two().max(2);
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                // Sentinel: never matches any `(seq << 8) | kind` for the
                // slot's own index, so unwritten slots are rejected.
                kind_seq: AtomicU64::new(u64::MAX),
                t: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        ThreadRing {
            tid,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Single-writer append. Relaxed payload stores, release publication.
    fn record(&self, kind: EventKind, t_ns: u64, a: u64, b: u64) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.t.store(t_ns, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.kind_seq
            .store((seq << 8) | kind as u64, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Reads back the retained window, oldest first, rejecting slots whose
    /// sequence stamp does not match (torn by a concurrent writer or never
    /// written). Returns `(events, total_recorded)`.
    fn snapshot(&self) -> (Vec<BlackboxEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            let ks = slot.kind_seq.load(Ordering::Acquire);
            if ks >> 8 != seq {
                continue;
            }
            let t = slot.t.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            // Re-validate after reading the payload: if the writer lapped us
            // mid-read the stamp has changed and the payload is torn.
            if slot.kind_seq.load(Ordering::Acquire) != ks {
                continue;
            }
            if let Some(kind) = EventKind::from_code((ks & 0xff) as u8) {
                out.push(BlackboxEvent {
                    tid: self.tid,
                    seq,
                    kind,
                    t_ns: t,
                    a,
                    b,
                });
            }
        }
        (out, head)
    }
}

/// Cheap cross-thread progress counters the watchdog samples. All relaxed;
/// the watchdog only needs "did anything change since last sample".
#[derive(Debug, Default)]
pub struct ProgressPulse {
    lp_iters: AtomicU64,
    nodes: AtomicU64,
    epochs: AtomicU64,
    busy: AtomicU64,
}

impl ProgressPulse {
    pub fn add_lp_iters(&self, n: u64) {
        self.lp_iters.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_nodes(&self, n: u64) {
        self.nodes.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_epochs(&self, n: u64) {
        self.epochs.fetch_add(n, Ordering::Relaxed);
    }

    /// `(lp_iters, nodes, epochs)` — compared wholesale by the watchdog.
    pub fn ticks(&self) -> (u64, u64, u64) {
        (
            self.lp_iters.load(Ordering::Relaxed),
            self.nodes.load(Ordering::Relaxed),
            self.epochs.load(Ordering::Relaxed),
        )
    }

    /// Number of currently-open [`BusyGuard`]s. The watchdog only treats a
    /// flat pulse as a stall while this is non-zero, so idle gaps between
    /// solves never trip it.
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }
}

/// RAII marker: "a solve/epoch is in flight, the pulse should be moving".
#[must_use = "a busy guard marks the solver busy until it is dropped"]
pub struct BusyGuard {
    rec: Arc<FlightRecorder>,
}

impl Drop for BusyGuard {
    fn drop(&mut self) {
        self.rec.pulse.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared recorder: one per process (or per test), holding every
/// thread's ring plus the final-state registers a crash dump needs.
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    pulse: ProgressPulse,
    /// `f64::to_bits` of the current incumbent objective; `u64::MAX` = unset.
    incumbent: AtomicU64,
    /// `f64::to_bits` of the current global dual bound; `u64::MAX` = unset.
    bound: AtomicU64,
    /// Latest LP health verdict code ([`HEALTH_UNKNOWN`]..).
    health: AtomicU64,
    stall_reports: AtomicU64,
    dump_path: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    /// `cap` is the per-thread ring capacity in events (rounded up to a
    /// power of two, minimum 64).
    pub fn new(cap: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            epoch: Instant::now(),
            cap: cap.next_power_of_two().max(64),
            rings: Mutex::new(Vec::new()),
            pulse: ProgressPulse::default(),
            incumbent: AtomicU64::new(u64::MAX),
            bound: AtomicU64::new(u64::MAX),
            health: AtomicU64::new(HEALTH_UNKNOWN),
            stall_reports: AtomicU64::new(0),
            dump_path: Mutex::new(None),
        })
    }

    /// A writer handle bound to logical thread `tid` (same convention as
    /// spans: 0 = driver, `w + 1` = worker `w`). Reuses the existing ring
    /// for `tid` if one was already registered, so sequential solves on the
    /// driver share one ring.
    pub fn handle(self: &Arc<Self>, tid: u32) -> FlightHandle {
        FlightHandle {
            ring: self.ring_for(tid),
            rec: self.clone(),
        }
    }

    fn ring_for(&self, tid: u32) -> Arc<ThreadRing> {
        let mut rings = self.rings.lock().unwrap();
        if let Some(r) = rings.iter().find(|r| r.tid == tid) {
            return r.clone();
        }
        let ring = Arc::new(ThreadRing::new(tid, self.cap));
        rings.push(ring.clone());
        ring
    }

    pub fn pulse(&self) -> &ProgressPulse {
        &self.pulse
    }

    /// Marks a solve/epoch in flight for the lifetime of the guard; see
    /// [`ProgressPulse::busy`].
    pub fn busy_guard(self: &Arc<Self>) -> BusyGuard {
        self.pulse.busy.fetch_add(1, Ordering::Relaxed);
        BusyGuard { rec: self.clone() }
    }

    pub fn set_incumbent(&self, obj: f64) {
        self.incumbent.store(obj.to_bits(), Ordering::Relaxed);
    }

    pub fn incumbent(&self) -> Option<f64> {
        match self.incumbent.load(Ordering::Relaxed) {
            u64::MAX => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    pub fn set_bound(&self, bound: f64) {
        self.bound.store(bound.to_bits(), Ordering::Relaxed);
    }

    pub fn bound(&self) -> Option<f64> {
        match self.bound.load(Ordering::Relaxed) {
            u64::MAX => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Publishes the latest LP health verdict code (one of the `HEALTH_*`
    /// constants); unknown codes clamp to [`HEALTH_UNKNOWN`] on read.
    pub fn set_health(&self, code: u64) {
        self.health.store(code, Ordering::Relaxed);
    }

    pub fn health_str(&self) -> &'static str {
        match self.health.load(Ordering::Relaxed) {
            HEALTH_STABLE => "stable",
            HEALTH_SUSPECT => "suspect",
            HEALTH_UNSTABLE => "unstable",
            _ => "unknown",
        }
    }

    pub fn stall_reports(&self) -> u64 {
        self.stall_reports.load(Ordering::Relaxed)
    }

    /// Where [`FlightRecorder::write_dump`] writes; stall dumps go to a
    /// sibling path with a `.stall.json` extension so they never clobber a
    /// later panic dump.
    pub fn set_dump_path(&self, path: impl Into<PathBuf>) {
        *self.dump_path.lock().unwrap() = Some(path.into());
    }

    pub fn dump_path(&self) -> Option<PathBuf> {
        self.dump_path.lock().unwrap().clone()
    }

    /// All retained events, merged across every ring, ordered by
    /// `(tid, seq)`, each paired with that ring's total recorded count.
    fn snapshot_rings(&self) -> Vec<(u32, Vec<BlackboxEvent>, u64)> {
        let mut rings: Vec<Arc<ThreadRing>> = self.rings.lock().unwrap().clone();
        rings.sort_by_key(|r| r.tid);
        rings
            .into_iter()
            .map(|r| {
                let (events, recorded) = r.snapshot();
                (r.tid, events, recorded)
            })
            .collect()
    }

    /// The full self-contained dump document (`tvnep.blackbox.v1`):
    /// verdict, final incumbent/bound, health, pulse, allocator gauges, the
    /// dumping thread's active span stack, and the last-N events per thread.
    pub fn dump(&self, trigger: &str, verdict: &str, reason: &str) -> Json {
        let workers: Vec<Json> = self
            .snapshot_rings()
            .into_iter()
            .map(|(tid, events, recorded)| {
                let dropped = recorded - events.len() as u64;
                Json::Obj(vec![
                    ("tid".into(), Json::from(tid as u64)),
                    ("recorded".into(), Json::from(recorded)),
                    ("dropped".into(), Json::from(dropped)),
                    (
                        "events".into(),
                        Json::Arr(events.iter().map(event_json).collect()),
                    ),
                ])
            })
            .collect();
        let (lp_iters, nodes, epochs) = self.pulse.ticks();
        let span_stack: Vec<Json> = crate::span::active_stack()
            .into_iter()
            .map(Json::from)
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::from("tvnep.blackbox.v1")),
            ("trigger".into(), Json::from(trigger)),
            ("verdict".into(), Json::from(verdict)),
            ("reason".into(), Json::from(reason)),
            (
                "t_ns".into(),
                Json::from(self.epoch.elapsed().as_nanos() as u64),
            ),
            ("incumbent".into(), opt_f64(self.incumbent())),
            ("bound".into(), opt_f64(self.bound())),
            ("health".into(), Json::from(self.health_str())),
            (
                "pulse".into(),
                Json::Obj(vec![
                    ("lp_iters".into(), Json::from(lp_iters)),
                    ("nodes".into(), Json::from(nodes)),
                    ("epochs".into(), Json::from(epochs)),
                    ("busy".into(), Json::from(self.pulse.busy())),
                ]),
            ),
            ("stall_reports".into(), Json::from(self.stall_reports())),
            ("span_stack".into(), Json::Arr(span_stack)),
            ("alloc".into(), crate::alloc::stats().to_json()),
            ("workers".into(), Json::Arr(workers)),
        ])
    }

    /// Serializes [`FlightRecorder::dump`] to the configured dump path (via
    /// a temporary file and rename, so a crash mid-write never leaves a
    /// half-dump at the final path). `Ok(None)` when no path is configured.
    pub fn write_dump(
        &self,
        trigger: &str,
        verdict: &str,
        reason: &str,
    ) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.dump_path() else {
            return Ok(None);
        };
        self.write_dump_to(&path, trigger, verdict, reason)
            .map(Some)
    }

    /// Stall reports go to a sibling of the dump path (`X.json` →
    /// `X.stall.json`) so a stall followed by a crash keeps both documents.
    pub fn write_stall_dump(&self, reason: &str) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.dump_path() else {
            return Ok(None);
        };
        let stall_path = path.with_extension("stall.json");
        self.write_dump_to(&stall_path, "stall", "Stalled", reason)
            .map(Some)
    }

    fn write_dump_to(
        &self,
        path: &Path,
        trigger: &str,
        verdict: &str,
        reason: &str,
    ) -> std::io::Result<PathBuf> {
        let doc = self.dump(trigger, verdict, reason);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{}\n", doc.pretty()))?;
        std::fs::rename(&tmp, path)?;
        Ok(path.to_path_buf())
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlightRecorder(cap={}, rings={})",
            self.cap,
            self.rings.lock().unwrap().len()
        )
    }
}

fn opt_f64(v: Option<f64>) -> Json {
    match v {
        Some(x) => Json::from(x),
        None => Json::Null,
    }
}

fn event_json(e: &BlackboxEvent) -> Json {
    let b = if e.kind.b_is_f64_bits() {
        Json::from(f64::from_bits(e.b))
    } else {
        Json::from(e.b)
    };
    Json::Obj(vec![
        ("seq".into(), Json::from(e.seq)),
        ("kind".into(), Json::from(e.kind.as_str())),
        ("t_ns".into(), Json::from(e.t_ns)),
        ("a".into(), Json::from(e.a)),
        ("b".into(), b),
    ])
}

/// The deterministic projection of a [`FlightRecorder::dump`] document, as
/// text (`schema tvnep.blackbox.raw.v1`): the final incumbent, bound,
/// health and pulse, then every event as `tid seq kind a b`, rings in tid
/// order. It has no wall times, no allocator state and no watchdog ring, so
/// at `threads = 1` it is byte-identical across reruns of the same solve.
/// `tvnep-cli postmortem --raw` prints it.
pub fn render_raw(dump: &Json) -> String {
    use std::fmt::Write;
    let text = |j: Option<&Json>| j.map_or_else(|| "null".to_string(), Json::to_string);
    let pulse = |k: &str| text(dump.get("pulse").and_then(|p| p.get(k)));
    let mut s = String::from("schema tvnep.blackbox.raw.v1\n");
    let _ = writeln!(s, "incumbent {}", text(dump.get("incumbent")));
    let _ = writeln!(s, "bound {}", text(dump.get("bound")));
    let health = dump.get("health").and_then(Json::as_str);
    let _ = writeln!(s, "health {}", health.unwrap_or("unknown"));
    let _ = writeln!(
        s,
        "pulse lp_iters={} nodes={} epochs={}",
        pulse("lp_iters"),
        pulse("nodes"),
        pulse("epochs")
    );
    let tid = |w: &Json| w.get("tid").and_then(Json::as_u64).unwrap_or(0);
    let mut workers: Vec<&Json> = dump
        .get("workers")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .collect();
    workers.sort_by_key(|w| tid(w));
    for w in workers
        .into_iter()
        .filter(|w| tid(w) != WATCHDOG_TID as u64)
    {
        for e in w.get("events").and_then(Json::as_array).unwrap_or(&[]) {
            let _ = writeln!(
                s,
                "event tid={} seq={} kind={} a={} b={}",
                tid(w),
                text(e.get("seq")),
                e.get("kind").and_then(Json::as_str).unwrap_or("?"),
                text(e.get("a")),
                text(e.get("b")),
            );
        }
    }
    s
}

/// Per-thread writer handle: one recorder reference plus the owning
/// thread's ring. Clone freely; all clones for one `tid` share the ring, so
/// only one logical thread may record through them at a time (the same
/// discipline the span `tid` convention already imposes).
#[derive(Clone)]
pub struct FlightHandle {
    rec: Arc<FlightRecorder>,
    ring: Arc<ThreadRing>,
}

impl FlightHandle {
    /// Appends one event to this thread's ring: one relaxed head load, four
    /// word stores, and one monotonic clock read.
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        let t_ns = self.rec.epoch.elapsed().as_nanos() as u64;
        self.ring.record(kind, t_ns, a, b);
    }

    /// A handle for another logical thread (parallel workers use
    /// `for_worker(w + 1)`), sharing this handle's recorder.
    pub fn for_worker(&self, tid: u32) -> FlightHandle {
        self.rec.handle(tid)
    }

    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.rec
    }

    pub fn pulse(&self) -> &ProgressPulse {
        &self.rec.pulse
    }

    pub fn tid(&self) -> u32 {
        self.ring.tid
    }
}

impl std::fmt::Debug for FlightHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlightHandle(tid={})", self.ring.tid)
    }
}

/// Process-global recorder the panic/SIGTERM hooks dump. `Mutex`, not
/// `OnceLock`: tests (and the service across restarts) install and clear it
/// repeatedly.
static CURRENT: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);

/// Registers `rec` as the process-global recorder for the panic and SIGTERM
/// hooks; replaces any previous registration.
pub fn install_current(rec: &Arc<FlightRecorder>) {
    *CURRENT.lock().unwrap() = Some(rec.clone());
}

pub fn current() -> Option<Arc<FlightRecorder>> {
    CURRENT.lock().unwrap().clone()
}

pub fn clear_current() {
    *CURRENT.lock().unwrap() = None;
}

static PANIC_HOOK: Once = Once::new();
static IN_PANIC_DUMP: AtomicBool = AtomicBool::new(false);

/// Installs (once per process) a panic hook that writes a black-box dump
/// with verdict `Panicked` for the [`current`] recorder, then chains to the
/// previously-installed hook (so the standard backtrace still prints).
/// Reentrant panics inside the dump path are swallowed by a guard flag
/// rather than recursing.
pub fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_PANIC_DUMP.swap(true, Ordering::SeqCst) {
                if let Some(rec) = current() {
                    let msg = info
                        .payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| info.payload().downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let reason = match info.location() {
                        Some(loc) => format!("panic at {}:{}: {}", loc.file(), loc.line(), msg),
                        None => format!("panic: {}", msg),
                    };
                    let _ = rec.write_dump("panic", "Panicked", &reason);
                }
                IN_PANIC_DUMP.store(false, Ordering::SeqCst);
            }
            prev(info);
        }));
    });
}

/// SIGTERM handling without a libc crate: the handler only sets a flag
/// (async-signal-safe); a monitor thread (the [`Watchdog`]) or the serve
/// accept loop polls [`sigterm::pending`], writes the dump with verdict
/// `Terminated`, then [`sigterm::reraise_default`]s so the process still
/// dies with the conventional signal status.
#[cfg(unix)]
pub mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    const SIGTERM: i32 = 15;
    /// `SIG_DFL` is the null handler pointer on every unix ABI we target.
    const SIG_DFL: usize = 0;

    static PENDING: AtomicBool = AtomicBool::new(false);

    // glibc/musl symbols the Rust standard library already links; declaring
    // them here avoids a libc crate dependency. `signal` takes and returns a
    // `sighandler_t`, which is a plain function pointer (usize-compatible).
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn raise(sig: i32) -> i32;
    }

    extern "C" fn on_sigterm(_sig: i32) {
        // Only async-signal-safe work here: one relaxed flag store.
        PENDING.store(true, Ordering::Relaxed);
    }

    /// Installs the flag-setting SIGTERM handler (idempotent).
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }

    /// True once SIGTERM has been received.
    pub fn pending() -> bool {
        PENDING.load(Ordering::Relaxed)
    }

    /// Clears the pending flag (tests only).
    pub fn clear() {
        PENDING.store(false, Ordering::Relaxed);
    }

    /// Restores the default disposition and re-raises SIGTERM, so the
    /// process exits with the conventional signal status after the dump has
    /// been written.
    pub fn reraise_default() {
        unsafe {
            signal(SIGTERM, SIG_DFL);
            raise(SIGTERM);
        }
    }
}

#[cfg(not(unix))]
pub mod sigterm {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
    pub fn clear() {}
    pub fn reraise_default() {}
}

/// Stall watchdog: a monitor thread sampling the recorder's
/// [`ProgressPulse`] every ~threshold/8 (clamped to 5–250 ms). When the
/// pulse is flat for at least the threshold *while at least one
/// [`BusyGuard`] is open*, it increments `stall_reports`, records a
/// [`EventKind::Stall`] event on the [`WATCHDOG_TID`] ring, and writes a
/// stall dump — without interrupting the solve. It also polls for a pending
/// SIGTERM and performs the dump-then-reraise sequence on the solver's
/// behalf, covering solves with no event loop of their own.
///
/// Publishes `watchdog.stall_reports`, `watchdog.threshold_ms`,
/// `watchdog.progress_age_ms`, and `watchdog.busy` gauges through the given
/// [`Telemetry`] handle (no-ops when telemetry is disabled). Dropping the
/// watchdog stops and joins the monitor thread.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn spawn(rec: Arc<FlightRecorder>, threshold: Duration, telemetry: Telemetry) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let join = std::thread::Builder::new()
            .name("tvnep-watchdog".into())
            .spawn(move || monitor(rec, threshold, telemetry, stop_flag))
            .expect("failed to spawn watchdog thread");
        Watchdog {
            stop,
            join: Some(join),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn monitor(
    rec: Arc<FlightRecorder>,
    threshold: Duration,
    telemetry: Telemetry,
    stop: Arc<AtomicBool>,
) {
    let interval = (threshold / 8).clamp(Duration::from_millis(5), Duration::from_millis(250));
    let handle = rec.handle(WATCHDOG_TID);
    let mut last_ticks = rec.pulse.ticks();
    let mut last_change = Instant::now();
    telemetry.gauge_set("watchdog.threshold_ms", threshold.as_secs_f64() * 1e3);
    telemetry.gauge_set("watchdog.stall_reports", 0.0);
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(interval);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if sigterm::pending() {
            let _ = rec.write_dump("sigterm", "Terminated", "SIGTERM received");
            sigterm::reraise_default();
            break; // unreachable on unix; keeps non-unix builds honest
        }
        let ticks = rec.pulse.ticks();
        let busy = rec.pulse.busy();
        if ticks != last_ticks {
            last_ticks = ticks;
            last_change = Instant::now();
        }
        let age = last_change.elapsed();
        telemetry.gauge_set("watchdog.progress_age_ms", age.as_secs_f64() * 1e3);
        telemetry.gauge_set("watchdog.busy", busy as f64);
        if busy > 0 && age >= threshold {
            let n = rec.stall_reports.fetch_add(1, Ordering::Relaxed) + 1;
            handle.record(EventKind::Stall, n, age.as_millis() as u64);
            let reason = format!(
                "no progress for {} ms (threshold {} ms, busy={}, lp_iters={}, nodes={}, epochs={})",
                age.as_millis(),
                threshold.as_millis(),
                busy,
                ticks.0,
                ticks.1,
                ticks.2
            );
            let _ = rec.write_stall_dump(&reason);
            telemetry.gauge_set("watchdog.stall_reports", n as f64);
            // Rate-limit: one report per threshold interval of continued
            // silence, not one per sample.
            last_change = Instant::now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tvnep-blackbox-{}-{}-{}.json",
            tag,
            std::process::id(),
            n
        ))
    }

    #[test]
    fn ring_retains_last_cap_events_with_monotonic_seq() {
        let rec = FlightRecorder::new(64);
        let h = rec.handle(0);
        for i in 0..200u64 {
            h.record(EventKind::LpMilestone, i, 1);
        }
        let rings = rec.snapshot_rings();
        assert_eq!(rings.len(), 1);
        let (tid, events, recorded) = &rings[0];
        assert_eq!(*tid, 0);
        assert_eq!(*recorded, 200);
        assert_eq!(events.len(), 64);
        // Oldest retained is 200 - 64 = 136, newest 199, strictly ordered.
        assert_eq!(events[0].seq, 136);
        assert_eq!(events[0].a, 136);
        assert_eq!(events.last().unwrap().seq, 199);
        for w in events.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn kind_codes_round_trip() {
        for code in 0..=255u8 {
            if let Some(kind) = EventKind::from_code(code) {
                assert_eq!(kind as u8, code);
                assert!(!kind.as_str().is_empty());
            }
        }
        assert!(EventKind::from_code(0).is_none());
        assert!(EventKind::from_code(12).is_none());
    }

    #[test]
    fn dump_is_parseable_and_decodes_f64_payloads() {
        let rec = FlightRecorder::new(64);
        let h = rec.handle(0);
        h.record(EventKind::NodeOpen, 7, (-12.5f64).to_bits());
        h.record(EventKind::NodeClose, 7, 1);
        rec.set_incumbent(-10.0);
        rec.set_bound(-12.5);
        rec.set_health(HEALTH_STABLE);
        let doc = rec.dump("demand", "Running", "on demand");
        let text = doc.pretty();
        let parsed = Json::parse(&text).expect("dump must be valid JSON");
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("tvnep.blackbox.v1")
        );
        assert_eq!(parsed.get("verdict").unwrap().as_str(), Some("Running"));
        assert_eq!(parsed.get("incumbent").unwrap().as_f64(), Some(-10.0));
        assert_eq!(parsed.get("bound").unwrap().as_f64(), Some(-12.5));
        assert_eq!(parsed.get("health").unwrap().as_str(), Some("stable"));
        let workers = parsed.get("workers").unwrap().as_array().unwrap();
        let events = workers[0].get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("node_open"));
        // f64-bits payload decoded back to a float in the dump.
        assert_eq!(events[0].get("b").unwrap().as_f64(), Some(-12.5));
        assert_eq!(events[1].get("b").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn unset_incumbent_and_bound_dump_as_null() {
        let rec = FlightRecorder::new(64);
        let doc = rec.dump("demand", "Running", "");
        assert!(matches!(doc.get("incumbent"), Some(Json::Null)));
        assert!(matches!(doc.get("bound"), Some(Json::Null)));
        assert_eq!(rec.incumbent(), None);
        assert_eq!(rec.bound(), None);
        rec.set_incumbent(3.25);
        assert_eq!(rec.incumbent(), Some(3.25));
    }

    #[test]
    fn deterministic_dump_is_stable_and_excludes_watchdog_ring() {
        let build = || {
            let rec = FlightRecorder::new(64);
            let h = rec.handle(0);
            for i in 0..10u64 {
                h.record(EventKind::LpMilestone, i * LP_MILESTONE_EVERY, 2);
            }
            rec.handle(WATCHDOG_TID).record(EventKind::Stall, 1, 500);
            rec.set_incumbent(4.0);
            rec.pulse().add_lp_iters(10 * LP_MILESTONE_EVERY);
            render_raw(&rec.dump("test", "Clean", ""))
        };
        let a = build();
        let b = build();
        // Byte-identical across reruns: no wall times, no allocator state.
        assert_eq!(a, b);
        assert!(!a.contains("t_ns"));
        assert!(
            a.starts_with("schema tvnep.blackbox.raw.v1\nincumbent 4\n"),
            "{a}"
        );
        let events: Vec<&str> = a.lines().filter(|l| l.starts_with("event ")).collect();
        assert_eq!(events.len(), 10, "watchdog ring must be excluded");
        assert!(events.iter().all(|l| l.starts_with("event tid=0 ")));
    }

    #[test]
    fn busy_guard_counts_nest_and_release() {
        let rec = FlightRecorder::new(64);
        assert_eq!(rec.pulse().busy(), 0);
        {
            let _a = rec.busy_guard();
            let _b = rec.busy_guard();
            assert_eq!(rec.pulse().busy(), 2);
        }
        assert_eq!(rec.pulse().busy(), 0);
    }

    #[test]
    fn watchdog_fires_on_busy_stall_and_stays_quiet_when_idle() {
        // Idle recorder: flat pulse but no busy guard — no stall reports.
        let idle = FlightRecorder::new(64);
        let wd = Watchdog::spawn(
            idle.clone(),
            Duration::from_millis(30),
            Telemetry::disabled(),
        );
        std::thread::sleep(Duration::from_millis(150));
        drop(wd);
        assert_eq!(idle.stall_reports(), 0, "idle must not trip the watchdog");

        // Busy recorder with a flat pulse: must trip within a few thresholds.
        let stuck = FlightRecorder::new(64);
        stuck.set_dump_path(temp_path("stall"));
        let _busy = stuck.busy_guard();
        let tel = Telemetry::metrics_only();
        let wd = Watchdog::spawn(stuck.clone(), Duration::from_millis(30), tel.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        while stuck.stall_reports() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(wd);
        assert!(stuck.stall_reports() >= 1, "watchdog must report the stall");
        // Stall dump written next to the dump path, verdict Stalled.
        let stall_path = stuck.dump_path().unwrap().with_extension("stall.json");
        let text = std::fs::read_to_string(&stall_path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("verdict").unwrap().as_str(), Some("Stalled"));
        let snap = tel.snapshot().to_json().to_string();
        assert!(snap.contains("watchdog.stall_reports"));
        let _ = std::fs::remove_file(&stall_path);
        let _ = std::fs::remove_file(stuck.dump_path().unwrap());
    }

    #[test]
    fn watchdog_does_not_fire_while_pulse_advances() {
        let rec = FlightRecorder::new(64);
        let _busy = rec.busy_guard();
        let wd = Watchdog::spawn(
            rec.clone(),
            Duration::from_millis(40),
            Telemetry::disabled(),
        );
        let until = Instant::now() + Duration::from_millis(200);
        while Instant::now() < until {
            rec.pulse().add_lp_iters(1);
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(wd);
        assert_eq!(
            rec.stall_reports(),
            0,
            "an advancing pulse must never count as a stall"
        );
    }

    #[test]
    fn panic_hook_writes_dump_with_verdict_panicked() {
        let path = temp_path("panic");
        let rec = FlightRecorder::new(64);
        rec.set_dump_path(&path);
        rec.handle(0).record(EventKind::LpSolve, 42, 0);
        rec.set_incumbent(1.5);
        install_current(&rec);
        install_panic_hook();
        let result = std::thread::Builder::new()
            .name("tvnep-panic-probe".into())
            .spawn(|| panic!("deliberate blackbox probe"))
            .unwrap()
            .join();
        assert!(result.is_err());
        clear_current();
        let text = std::fs::read_to_string(&path).expect("panic dump must exist");
        let parsed = Json::parse(&text).expect("panic dump must parse");
        assert_eq!(parsed.get("verdict").unwrap().as_str(), Some("Panicked"));
        assert!(parsed
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("deliberate blackbox probe"));
        assert_eq!(parsed.get("incumbent").unwrap().as_f64(), Some(1.5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_dump_without_path_is_a_noop() {
        let rec = FlightRecorder::new(64);
        assert!(matches!(rec.write_dump("demand", "Running", ""), Ok(None)));
    }
}
