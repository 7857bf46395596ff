//! Solver observability: a zero-dependency metrics registry and a
//! hierarchical span profiler, both behind a cheap [`Telemetry`] handle that
//! is a strict no-op when disabled, plus an always-available flight recorder.
//!
//! The design splits responsibilities four ways:
//!
//! * [`MetricsRegistry`] — monotonically-increasing counters, last-write
//!   gauges, and histograms over fixed log-scale (power-of-two) buckets.
//!   Aggregates only; cheap to snapshot at any point. The names the solvers
//!   write on every solve are interned into fixed slots.
//! * [`span`] — completed intervals of work ([`SpanRecord`]: name, start,
//!   duration, logical thread id, numeric args). This is the one "what
//!   happened when" record: model builds, LP solves and their kernels,
//!   branch-and-bound nodes, greedy iterations, admissions. Exported as a
//!   Chrome trace ([`chrome_trace`]) or as text lines ([`render_spans`]).
//! * [`blackbox`] — the flight recorder: fixed-capacity per-thread event
//!   rings dumped on a panic, a SIGTERM or a stall, attached through its own
//!   [`FlightHandle`], independent of the handle below.
//! * [`Telemetry`] — the handle threaded through the solvers. Internally an
//!   `Option<Arc<..>>`: a disabled handle is a single `None` check on every
//!   call, so instrumented hot paths cost nothing when observability is off.
//!
//! The [`json`] module provides the self-contained JSON value type used to
//! export snapshots (and reused by the CLI for instance/solution I/O).

pub mod alloc;
pub mod blackbox;
pub mod hist;
pub mod json;
mod metrics;
pub mod prom;
pub mod span;

pub use alloc::{AllocStats, CountingAlloc, MemProbe, ThreadAllocStats};
pub use blackbox::{
    render_raw, BlackboxEvent, BusyGuard, EventKind, FlightHandle, FlightRecorder, ProgressPulse,
    Watchdog,
};
pub use hist::{exact_quantile, LogHistogram};
pub use json::{Json, JsonError};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{chrome_trace, render_spans, SpanGuard, SpanRecord};

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    metrics: Mutex<MetricsRegistry>,
    /// Completed profiler spans; `None` when span recording is off.
    pub(crate) spans: Option<Mutex<Vec<SpanRecord>>>,
    /// Logical thread id stamped onto spans (0 = driver, `w + 1` = worker).
    pub(crate) tid: u32,
}

/// Cheap, clonable observability handle. All recording methods are no-ops on
/// a disabled handle; cloning shares the underlying registry and span buffer.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Telemetry(disabled)"),
            Some(inner) if inner.spans.is_some() => write!(f, "Telemetry(metrics+spans)"),
            Some(_) => write!(f, "Telemetry(metrics)"),
        }
    }
}

impl Telemetry {
    /// A handle that records nothing. Every method is a no-op.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// Metrics registry only; spans are not recorded.
    pub fn metrics_only() -> Self {
        Self::enabled(false)
    }

    /// Metrics registry plus span recording (the profiler toggle).
    pub fn with_spans() -> Self {
        Self::enabled(true)
    }

    fn enabled(spans: bool) -> Self {
        Telemetry(Some(Arc::new(Inner {
            epoch: Instant::now(),
            metrics: Mutex::new(MetricsRegistry::new()),
            spans: spans.then(|| Mutex::new(Vec::new())),
            tid: 0,
        })))
    }

    /// A private per-worker handle sharing this handle's epoch: fresh metrics
    /// registry, span recording iff this handle records spans, stamped with
    /// logical thread id `tid`. The parallel branch-and-bound
    /// driver hands one to each worker and folds it back with
    /// [`Telemetry::absorb_metrics`] after the workers join; the shared epoch
    /// keeps worker span timestamps on the same clock as the driver's.
    pub fn worker(&self, tid: u32) -> Telemetry {
        match &self.0 {
            None => Telemetry(None),
            Some(inner) => Telemetry(Some(Arc::new(Inner {
                epoch: inner.epoch,
                metrics: Mutex::new(MetricsRegistry::new()),
                spans: inner.spans.is_some().then(|| Mutex::new(Vec::new())),
                tid,
            }))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// True when this handle records profiler spans.
    pub fn spans_enabled(&self) -> bool {
        matches!(&self.0, Some(inner) if inner.spans.is_some())
    }

    /// Elapsed time since the handle was created (zero when disabled).
    pub fn elapsed(&self) -> Duration {
        match &self.0 {
            Some(inner) => inner.epoch.elapsed(),
            None => Duration::ZERO,
        }
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.0 {
            inner.metrics.lock().unwrap().counter_add(name, delta);
        }
    }

    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.metrics.lock().unwrap().gauge_set(name, value);
        }
    }

    /// Raises the named gauge to `value` if it is unset or lower.
    pub fn gauge_max(&self, name: &str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.metrics.lock().unwrap().gauge_max(name, value);
        }
    }

    /// Lowers the named gauge to `value` if it is unset or higher.
    pub fn gauge_min(&self, name: &str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.metrics.lock().unwrap().gauge_min(name, value);
        }
    }

    /// Records `value` into the named log-scale histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.metrics.lock().unwrap().observe(name, value);
        }
    }

    /// Opens a profiler span that runs until the returned guard drops.
    /// No-op (one `Option` check) unless span recording is on.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        // Every guard — including no-op ones from disabled handles — tracks
        // the thread's active-span stack so black-box crash dumps can name
        // the phase that died even when span recording is off.
        span::push_active(name);
        match &self.0 {
            Some(inner) if inner.spans.is_some() => SpanGuard {
                inner: Some(span::SpanGuardInner {
                    start: inner.epoch.elapsed(),
                    handle: inner.clone(),
                    name,
                    args: Vec::new(),
                    // Allocation attribution: cumulative allocated bytes at
                    // open; the drop records the delta as an `alloc_bytes`
                    // arg. `None` when heap accounting is off.
                    alloc_start: alloc::counting_enabled().then(alloc::bytes_allocated),
                }),
                on_stack: true,
            },
            _ => SpanGuard {
                inner: None,
                on_stack: true,
            },
        }
    }

    /// Records a pre-measured span (used for aggregate kernel spans whose
    /// start/duration are accumulated out-of-band). Dropped unless span
    /// recording is on.
    pub fn record_span(
        &self,
        name: &'static str,
        start: Duration,
        dur: Duration,
        args: Vec<(&'static str, f64)>,
    ) {
        if let Some(inner) = &self.0 {
            if let Some(spans) = &inner.spans {
                spans.lock().unwrap().push(SpanRecord {
                    name,
                    start,
                    dur,
                    tid: inner.tid,
                    args,
                });
            }
        }
    }

    /// A copy of all spans recorded so far (empty when disabled).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.0 {
            Some(inner) => match &inner.spans {
                Some(spans) => spans.lock().unwrap().clone(),
                None => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Renders all recorded spans as a Chrome trace-event document (see
    /// [`span::chrome_trace`]); loadable in `chrome://tracing` / Perfetto.
    pub fn export_chrome_trace(&self) -> Json {
        chrome_trace(&self.spans())
    }

    /// Folds another handle's metrics registry into this one (counters add,
    /// gauges last-write, histograms merge bucket-wise), and drains the other
    /// handle's span buffer into ours (spans carry their own thread id, so
    /// merged buffers stay attributable). Used by the parallel MIP solver:
    /// each worker thread records into a private [`Telemetry::worker`] handle
    /// and the driver absorbs them after the workers join, so
    /// `--metrics-out` / `--chrome-trace` report the same quantities
    /// regardless of thread count. No-op when either handle is disabled.
    pub fn absorb_metrics(&self, other: &Telemetry) {
        let (Some(inner), Some(other_inner)) = (&self.0, &other.0) else {
            return;
        };
        if Arc::ptr_eq(inner, other_inner) {
            return;
        }
        let theirs = other_inner.metrics.lock().unwrap();
        inner.metrics.lock().unwrap().merge_from(&theirs);
        drop(theirs);
        if let (Some(ours), Some(their_spans)) = (&inner.spans, &other_inner.spans) {
            let mut moved = their_spans.lock().unwrap();
            ours.lock().unwrap().append(&mut moved);
        }
    }

    /// A point-in-time copy of the metrics registry (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(inner) => inner.metrics.lock().unwrap().snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Full JSON export: `{ "elapsed_s", "metrics" }`.
    pub fn export_json(&self) -> Json {
        Json::Obj(vec![
            (
                "elapsed_s".to_string(),
                Json::from(self.elapsed().as_secs_f64()),
            ),
            ("metrics".to_string(), self.snapshot().to_json()),
        ])
    }
}
