//! Hierarchical span profiler: RAII span guards, per-thread span buffers,
//! a hand-rolled Chrome trace-event exporter, and a one-line-per-span text
//! view of the same records.
//!
//! A [`SpanRecord`] is one completed interval of work, stamped relative to
//! the owning [`Telemetry`](crate::Telemetry) handle's epoch and tagged with
//! the recording thread's logical id (`tid` 0 is the driver; parallel
//! branch-and-bound workers get `tid = worker_index + 1` via
//! [`Telemetry::worker`](crate::Telemetry::worker), which shares the parent
//! epoch so timestamps stay comparable after the buffers are merged through
//! the existing `absorb_metrics` path).
//!
//! Spans nest by containment: a child span's `[start, start + dur)` interval
//! lies inside its parent's, which is exactly the convention Chrome's
//! trace-event viewer (`chrome://tracing`, Perfetto) uses to rebuild the
//! hierarchy from flat `ph:"X"` complete events. Hot simplex kernels
//! (pricing, FTRAN, BTRAN, refactorization) are too frequent for one span
//! per call; the LP engine accumulates their wall time instead and emits one
//! aggregate child span per kernel, laid out sequentially inside the
//! enclosing `lp.solve` span (see `Simplex::end_profile` in `tvnep-lp`).

use std::cell::RefCell;
use std::time::Duration;

use crate::Json;

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    /// Maintained by every [`SpanGuard`] (even from a disabled handle, so
    /// crash dumps see the stack without span recording turned on); read by
    /// the black-box panic hook via [`active_stack`].
    static ACTIVE_SPANS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn push_active(name: &'static str) {
    ACTIVE_SPANS.with(|s| s.borrow_mut().push(name));
}

pub(crate) fn pop_active() {
    ACTIVE_SPANS.with(|s| {
        s.borrow_mut().pop();
    });
}

/// The calling thread's currently-open span names, outermost first. Used by
/// the black-box dump writer: on panic this runs on the panicking thread,
/// so the stack points at the phase that died. Borrow failures (a panic in
/// the middle of stack maintenance) yield an empty stack rather than a
/// nested panic.
pub fn active_stack() -> Vec<&'static str> {
    ACTIVE_SPANS
        .try_with(|s| s.try_borrow().map(|v| v.clone()).unwrap_or_default())
        .unwrap_or_default()
}

/// One completed span, relative to the owning handle's epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Hierarchical dotted name, e.g. `lp.solve`, `mip.node`.
    pub name: &'static str,
    /// Start offset from the handle epoch.
    pub start: Duration,
    /// Wall-clock duration.
    pub dur: Duration,
    /// Logical thread id (0 = driver, `w + 1` = parallel worker `w`).
    pub tid: u32,
    /// Numeric annotations (`("iters", 123.0)`, …) shown in the trace UI.
    pub args: Vec<(&'static str, f64)>,
}

/// RAII guard returned by [`Telemetry::span`](crate::Telemetry::span): the
/// span runs from construction to drop. A guard from a handle without span
/// recording is a no-op and costs one `Option` check.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    pub(crate) inner: Option<SpanGuardInner>,
    /// Whether this guard pushed onto the thread's active-span stack (all
    /// guards do, including no-op ones from disabled handles).
    pub(crate) on_stack: bool,
}

pub(crate) struct SpanGuardInner {
    pub(crate) handle: std::sync::Arc<crate::Inner>,
    pub(crate) name: &'static str,
    pub(crate) start: Duration,
    pub(crate) args: Vec<(&'static str, f64)>,
    /// Cumulative [`crate::alloc::bytes_allocated`] at span open; `None`
    /// when heap accounting was off at that point.
    pub(crate) alloc_start: Option<u64>,
}

impl SpanGuard {
    /// Attaches a numeric annotation to the span (builder-style).
    pub fn arg(mut self, key: &'static str, value: f64) -> Self {
        if let Some(g) = &mut self.inner {
            g.args.push((key, value));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.on_stack {
            pop_active();
        }
        if let Some(mut g) = self.inner.take() {
            let dur = g.handle.epoch.elapsed().saturating_sub(g.start);
            if let Some(base) = g.alloc_start {
                let delta = crate::alloc::bytes_allocated().saturating_sub(base);
                g.args.push(("alloc_bytes", delta as f64));
            }
            if let Some(spans) = &g.handle.spans {
                spans.lock().unwrap().push(SpanRecord {
                    name: g.name,
                    start: g.start,
                    dur,
                    tid: g.handle.tid,
                    args: g.args,
                });
            }
        }
    }
}

/// Spans sorted by start time, ties broken longest-first so a parent
/// precedes the children that start with it: the order both exporters use.
fn trace_order(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    let mut order: Vec<&SpanRecord> = spans.iter().collect();
    order.sort_by(|a, b| a.start.cmp(&b.start).then(b.dur.cmp(&a.dur)));
    order
}

/// Renders spans as text, one line per span in [`chrome_trace`]'s order:
/// `[    0.001250s +    0.000420s] tid=1 lp.solve iters=17`
/// (start and duration in seconds, logical thread id, name, then each arg).
pub fn render_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in trace_order(spans) {
        out.push_str(&format!(
            "[{:>12.6}s +{:>12.6}s] tid={} {}",
            s.start.as_secs_f64(),
            s.dur.as_secs_f64(),
            s.tid,
            s.name
        ));
        for (k, v) in &s.args {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

/// Renders spans as a Chrome trace-event document:
/// `{"traceEvents": [...]}` with one `ph:"M"` `thread_name` metadata event
/// per distinct tid followed by `ph:"X"` complete events sorted by start
/// time (ties broken longest-first so parents precede their children).
/// Timestamps and durations are microseconds, fractional where needed.
pub fn chrome_trace(spans: &[SpanRecord]) -> Json {
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    if tids.is_empty() {
        tids.push(0);
    }

    let mut events = Vec::with_capacity(tids.len() + spans.len());
    for &tid in &tids {
        let label = if tid == 0 {
            "driver".to_string()
        } else {
            format!("worker-{tid}")
        };
        events.push(Json::Obj(vec![
            ("ph".into(), Json::from("M")),
            ("name".into(), Json::from("thread_name")),
            ("pid".into(), Json::from(1u64)),
            ("tid".into(), Json::from(tid as u64)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::from(label))]),
            ),
        ]));
    }

    for s in trace_order(spans) {
        let cat = s.name.split('.').next().unwrap_or("solver");
        let mut fields = vec![
            ("name".into(), Json::from(s.name)),
            ("cat".into(), Json::from(cat)),
            ("ph".into(), Json::from("X")),
            ("ts".into(), Json::from(s.start.as_secs_f64() * 1e6)),
            ("dur".into(), Json::from(s.dur.as_secs_f64() * 1e6)),
            ("pid".into(), Json::from(1u64)),
            ("tid".into(), Json::from(s.tid as u64)),
        ];
        if !s.args.is_empty() {
            let args: Vec<(String, Json)> = s
                .args
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::from(*v)))
                .collect();
            fields.push(("args".into(), Json::Obj(args)));
        }
        events.push(Json::Obj(fields));
    }

    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use std::time::Duration;

    fn rec(name: &'static str, start_us: u64, dur_us: u64, tid: u32) -> SpanRecord {
        SpanRecord {
            name,
            start: Duration::from_micros(start_us),
            dur: Duration::from_micros(dur_us),
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn empty_trace_still_has_driver_thread() {
        let doc = chrome_trace(&[]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
    }

    #[test]
    fn nested_spans_sorted_parent_first() {
        // The child starts at the same instant as the parent but is shorter;
        // Chrome requires the parent (longer) event first for nesting.
        let spans = vec![rec("child", 10, 5, 0), rec("parent", 10, 50, 0)];
        let doc = chrome_trace(&spans);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(xs[0].get("name").unwrap().as_str(), Some("parent"));
        assert_eq!(xs[1].get("name").unwrap().as_str(), Some("child"));
        // Containment: child inside parent.
        let (pts, pdur) = (
            xs[0].get("ts").unwrap().as_f64().unwrap(),
            xs[0].get("dur").unwrap().as_f64().unwrap(),
        );
        let (cts, cdur) = (
            xs[1].get("ts").unwrap().as_f64().unwrap(),
            xs[1].get("dur").unwrap().as_f64().unwrap(),
        );
        assert!(cts >= pts && cts + cdur <= pts + pdur);
    }

    #[test]
    fn text_rendering_is_one_line_per_span_parent_first() {
        let mut child = rec("lp.solve", 10, 5, 1);
        child.args = vec![("iters", 17.0), ("alloc_bytes", 2.5)];
        let spans = vec![child, rec("mip.solve", 10, 50, 0), rec("late", 70, 1, 0)];
        let text = render_spans(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "[    0.000010s +    0.000050s] tid=0 mip.solve",
                "[    0.000010s +    0.000005s] tid=1 lp.solve iters=17 alloc_bytes=2.5",
                "[    0.000070s +    0.000001s] tid=0 late",
            ]
        );
        assert_eq!(render_spans(&[]), "");
    }

    #[test]
    fn cross_thread_merge_orders_by_timestamp() {
        let main = Telemetry::with_spans();
        let worker = main.worker(1);
        // Record out of order across the two buffers.
        worker.record_span(
            "w.late",
            Duration::from_micros(300),
            Duration::from_micros(10),
            vec![],
        );
        main.record_span(
            "m.early",
            Duration::from_micros(100),
            Duration::from_micros(10),
            vec![],
        );
        worker.record_span(
            "w.mid",
            Duration::from_micros(200),
            Duration::from_micros(10),
            vec![],
        );
        main.absorb_metrics(&worker);

        let doc = main.export_chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        let names: Vec<&str> = xs
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["m.early", "w.mid", "w.late"]);
        // Worker tid survives the merge, and both threads have metadata.
        assert_eq!(xs[1].get("tid").unwrap().as_u64(), Some(1));
        let metas = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .count();
        assert_eq!(metas, 2);
    }

    #[test]
    fn guard_records_on_drop_and_is_noop_when_disabled() {
        let tel = Telemetry::with_spans();
        {
            let _g = tel.span("outer").arg("k", 7.0);
            let _inner = tel.span("inner");
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        // Drop order: inner first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].args, vec![("k", 7.0)]);
        assert!(spans[1].start <= spans[0].start);
        assert!(spans[1].start + spans[1].dur >= spans[0].start + spans[0].dur);

        let off = Telemetry::metrics_only();
        {
            let _g = off.span("ignored");
        }
        assert!(off.spans().is_empty());
        assert!(!off.spans_enabled());
    }

    #[test]
    fn span_names_with_specials_escape_and_round_trip() {
        // Exporter output must stay valid JSON even for hostile span names.
        let spans = vec![SpanRecord {
            name: "quote\"back\\slash\nnewline",
            start: Duration::from_micros(5),
            dur: Duration::from_micros(5),
            tid: 0,
            args: vec![],
        }];
        let text = chrome_trace(&spans).to_string();
        let parsed = Json::parse(&text).expect("escaped output must parse");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("quote\"back\\slash\nnewline")
        );
    }

    #[test]
    fn chrome_trace_round_trips_through_parser() {
        let tel = Telemetry::with_spans();
        tel.record_span(
            "weird.name",
            Duration::from_micros(1),
            Duration::from_micros(2),
            vec![("count", 3.0)],
        );
        let text = tel.export_chrome_trace().pretty();
        let parsed = Json::parse(&text).expect("exporter output must parse");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let x = &events[1];
        assert_eq!(x.get("name").unwrap().as_str(), Some("weird.name"));
        assert_eq!(
            x.get("args").unwrap().get("count").unwrap().as_f64(),
            Some(3.0)
        );
    }
}
