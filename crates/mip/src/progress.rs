//! Anytime convergence stream: a monotonic-clock recorder for every
//! incumbent improvement and global dual-bound tightening seen during a
//! branch-and-bound solve, with provenance (node id, depth, thread, source).
//!
//! The paper's evaluation (and the randomized-rounding literature it builds
//! on) judges heuristics by their *anytime trajectory* — how fast the
//! incumbent approaches the optimum and how fast the dual bound closes in —
//! not just the final objective/gap pair. [`ProgressRecorder`] captures that
//! trajectory with two export shapes:
//!
//! * **Deterministic JSONL** ([`ProgressRecorder::write_jsonl`]): one event
//!   per line carrying only solve-deterministic fields (sequence number,
//!   node counter, objective, bound, provenance — *no wall-clock times*).
//!   At `--threads 1` two runs of the same seed produce byte-identical
//!   streams, which is what the `convergence_monotone` harness oracle and
//!   the determinism tests replay.
//! * **Gap-timeline CSV** ([`ProgressRecorder::write_gap_csv`]): the same
//!   events with wall-clock timestamps (`t_s,nodes,incumbent,bound,gap`),
//!   for plotting convergence curves.
//!
//! Derived scalars ([`ProgressRecorder::summary`]) — time to first
//! incumbent, time to proof, primal/dual integrals — feed the campaign
//! `CellRecord` rows and `bench-compare`.
//!
//! The recorder follows the telemetry discipline: it is an `Option` field on
//! `MipOptions`, so solves without one pay a single pointer check per
//! potential event.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where an incumbent came from: the search itself, or the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncumbentSource {
    /// The node's LP relaxation was integer feasible.
    IntegralLp,
    /// The caller-provided cutoff, recorded at solve start as the initial
    /// value to beat.
    Cutoff,
}

impl IncumbentSource {
    /// Stable lower-snake name used in JSONL exports.
    pub fn as_str(self) -> &'static str {
        match self {
            IncumbentSource::IntegralLp => "integral_lp",
            IncumbentSource::Cutoff => "cutoff",
        }
    }
}

/// Event class: a new incumbent or a tightened global dual bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressKind {
    Incumbent,
    Bound,
}

impl ProgressKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ProgressKind::Incumbent => "incumbent",
            ProgressKind::Bound => "bound",
        }
    }
}

/// One recorded convergence event. All objective-like values are in the
/// user's sense.
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Event sequence number (0-based, append order).
    pub seq: u64,
    pub kind: ProgressKind,
    /// Branch-and-bound nodes counted when the event was recorded.
    pub nodes: u64,
    /// Id of the node that produced the event (0 = before the search).
    pub node: u64,
    /// Depth of that node.
    pub depth: u32,
    /// Logical thread: 0 = the inline worker of a one-thread solve, `w + 1`
    /// = worker `w` of a multi-threaded one.
    pub thread: u32,
    /// Provenance for incumbent events; `None` for bound events.
    pub source: Option<IncumbentSource>,
    /// Best incumbent objective at this event, if any.
    pub incumbent: Option<f64>,
    /// Global dual bound at this event (may be infinite early on).
    pub bound: f64,
    /// Wall time since solve start. Used only for the CSV timeline and the
    /// derived scalars — never serialized into the deterministic JSONL.
    pub elapsed: Duration,
}

impl ProgressEvent {
    /// Relative gap `|inc − bound| / max(|inc|, 1e-10)` when both sides are
    /// finite.
    pub fn gap(&self) -> Option<f64> {
        let inc = self.incumbent?;
        (inc.is_finite() && self.bound.is_finite())
            .then(|| (inc - self.bound).abs() / inc.abs().max(1e-10))
    }
}

/// Derived scalars over a recorded stream; see [`ProgressRecorder::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSummary {
    /// Incumbent-improvement events (including a recorded cutoff).
    pub incumbents: u64,
    /// Bound-tightening events.
    pub bound_updates: u64,
    /// Wall time until the first solver-found incumbent (cutoff events do
    /// not count: the caller supplied that value). `None` when the solver
    /// never found one.
    pub time_to_first_incumbent_s: Option<f64>,
    /// Total runtime when optimality was proven, else `None`.
    pub time_to_proof_s: Option<f64>,
    /// Primal integral: `∫ p(t) dt` over the solve, where `p(t) = 1` before
    /// the first incumbent and `min(1, |inc(t) − inc_final| /
    /// max(|inc_final|, 1e-10))` after. Seconds; smaller is better.
    pub primal_integral: f64,
    /// Dual analogue over the bound trajectory, referenced to the final
    /// recorded bound.
    pub dual_integral: f64,
}

struct Rec {
    epoch: Instant,
    /// User sense: `true` when bounds tighten downward (maximize).
    maximize: bool,
    events: Vec<ProgressEvent>,
    /// Best incumbent recorded so far (user sense).
    best_incumbent: Option<f64>,
    /// Tightest finite bound recorded so far (user sense).
    best_bound: Option<f64>,
}

impl Rec {
    fn improves_incumbent(&self, obj: f64) -> bool {
        match self.best_incumbent {
            None => true,
            Some(best) => {
                if self.maximize {
                    obj > best
                } else {
                    obj < best
                }
            }
        }
    }

    /// The true global dual bound is never worse than a feasible incumbent:
    /// when the best open-node bound crosses the incumbent (a node that is
    /// about to be pruned), the proof is complete and the bound *is* the
    /// incumbent. Clamping keeps `incumbent ≤ bound` (maximize sense) an
    /// invariant of the recorded stream.
    fn clamp_bound(&self, bound: f64) -> f64 {
        match self.best_incumbent {
            Some(inc) if self.maximize => bound.max(inc),
            Some(inc) => bound.min(inc),
            None => bound,
        }
    }

    fn tightens_bound(&self, bound: f64) -> bool {
        if !bound.is_finite() {
            return false;
        }
        match self.best_bound {
            None => true,
            Some(best) => {
                // Strictly-better with a relative epsilon so float chatter
                // from equivalent bases does not spam the stream.
                let eps = 1e-9 * best.abs().max(1e-9);
                if self.maximize {
                    bound < best - eps
                } else {
                    bound > best + eps
                }
            }
        }
    }
}

/// Clonable handle onto an append-only convergence stream. Attach via
/// `MipOptions::progress_events`; the solver calls `begin` at solve start
/// and appends events as they happen. Thread-safe: parallel workers record
/// through the same handle (non-improving racy offers are dropped, so the
/// stream stays monotone by construction in the quantities it reports).
#[derive(Clone)]
pub struct ProgressRecorder(Arc<Mutex<Rec>>);

impl std::fmt::Debug for ProgressRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rec = self.0.lock().unwrap();
        f.debug_struct("ProgressRecorder")
            .field("events", &rec.events.len())
            .field("maximize", &rec.maximize)
            .finish()
    }
}

impl Default for ProgressRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressRecorder {
    pub fn new() -> Self {
        ProgressRecorder(Arc::new(Mutex::new(Rec {
            epoch: Instant::now(),
            maximize: false,
            events: Vec::new(),
            best_incumbent: None,
            best_bound: None,
        })))
    }

    /// Resets the stream for a new solve: clears events, restarts the
    /// clock, and fixes the improvement direction. Called by `solve_with`.
    pub(crate) fn begin(&self, maximize: bool) {
        let mut rec = self.0.lock().unwrap();
        rec.epoch = Instant::now();
        rec.maximize = maximize;
        rec.events.clear();
        rec.best_incumbent = None;
        rec.best_bound = None;
    }

    /// Appends an incumbent-improvement event (user sense). Non-improving
    /// offers — possible only under parallel races — are dropped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_incumbent(
        &self,
        obj: f64,
        bound: f64,
        nodes: u64,
        node: u64,
        depth: u32,
        thread: u32,
        source: IncumbentSource,
    ) {
        let mut rec = self.0.lock().unwrap();
        if !rec.improves_incumbent(obj) {
            return;
        }
        rec.best_incumbent = Some(obj);
        let bound = rec.clamp_bound(bound);
        if rec.tightens_bound(bound) {
            rec.best_bound = Some(bound);
        }
        let seq = rec.events.len() as u64;
        let elapsed = rec.epoch.elapsed();
        rec.events.push(ProgressEvent {
            seq,
            kind: ProgressKind::Incumbent,
            nodes,
            node,
            depth,
            thread,
            source: Some(source),
            incumbent: Some(obj),
            bound,
            elapsed,
        });
    }

    /// Appends a bound-tightening event (user sense) if `bound` strictly
    /// improves on the tightest bound recorded so far; otherwise a no-op.
    pub(crate) fn offer_bound(&self, bound: f64, nodes: u64, node: u64, depth: u32, thread: u32) {
        let mut rec = self.0.lock().unwrap();
        let bound = rec.clamp_bound(bound);
        if !rec.tightens_bound(bound) {
            return;
        }
        rec.best_bound = Some(bound);
        let seq = rec.events.len() as u64;
        let elapsed = rec.epoch.elapsed();
        let incumbent = rec.best_incumbent;
        rec.events.push(ProgressEvent {
            seq,
            kind: ProgressKind::Bound,
            nodes,
            node,
            depth,
            thread,
            source: None,
            incumbent,
            bound,
            elapsed,
        });
    }

    /// A copy of all events recorded so far, in append order.
    pub fn events(&self) -> Vec<ProgressEvent> {
        self.0.lock().unwrap().events.clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the deterministic JSONL stream: one event per line, stable
    /// field order, no wall-clock fields. Non-finite values serialize as
    /// `null`.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for e in self.0.lock().unwrap().events.iter() {
            let mut line = String::with_capacity(160);
            line.push_str(&format!(
                "{{\"seq\":{},\"event\":\"{}\",\"nodes\":{},\"node\":{},\"depth\":{},\"thread\":{}",
                e.seq,
                e.kind.as_str(),
                e.nodes,
                e.node,
                e.depth,
                e.thread
            ));
            match e.source {
                Some(s) => line.push_str(&format!(",\"source\":\"{}\"", s.as_str())),
                None => line.push_str(",\"source\":null"),
            }
            line.push_str(&format!(",\"incumbent\":{}", json_num(e.incumbent)));
            line.push_str(&format!(",\"bound\":{}", json_num(Some(e.bound))));
            line.push_str(&format!(",\"gap\":{}", json_num(e.gap())));
            line.push('}');
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Writes the gap-timeline CSV (`t_s,nodes,incumbent,bound,gap`): the
    /// same events with wall-clock timestamps, for convergence plots.
    /// Non-finite values render as empty fields.
    pub fn write_gap_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(b"t_s,nodes,incumbent,bound,gap\n")?;
        for e in self.0.lock().unwrap().events.iter() {
            let line = format!(
                "{:.6},{},{},{},{}\n",
                e.elapsed.as_secs_f64(),
                e.nodes,
                csv_num(e.incumbent),
                csv_num(Some(e.bound)),
                csv_num(e.gap()),
            );
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Derived scalars over the stream. `runtime` is the solve's total wall
    /// time (the integration horizon); `proved` whether the solver proved
    /// optimality (sets `time_to_proof_s = runtime`).
    pub fn summary(&self, runtime: Duration, proved: bool) -> ProgressSummary {
        let rec = self.0.lock().unwrap();
        let horizon = runtime.as_secs_f64();
        let mut incumbents = 0u64;
        let mut bound_updates = 0u64;
        let mut ttfi: Option<f64> = None;
        for e in &rec.events {
            match e.kind {
                ProgressKind::Incumbent => {
                    incumbents += 1;
                    if ttfi.is_none() && e.source != Some(IncumbentSource::Cutoff) {
                        ttfi = Some(e.elapsed.as_secs_f64());
                    }
                }
                ProgressKind::Bound => bound_updates += 1,
            }
        }
        // References: the final incumbent / final finite bound define the
        // zero of each integrand.
        let primal_integral = integral(&rec.events, horizon, rec.best_incumbent, |e| e.incumbent);
        let dual_integral = integral(&rec.events, horizon, rec.best_bound, |e| {
            e.bound.is_finite().then_some(e.bound)
        });
        ProgressSummary {
            incumbents,
            bound_updates,
            time_to_first_incumbent_s: ttfi,
            time_to_proof_s: proved.then_some(horizon),
            primal_integral,
            dual_integral,
        }
    }
}

/// Piecewise-constant integral of the normalized distance-to-reference over
/// `[0, horizon]`. The integrand is 1 while no value exists and
/// `min(1, |v(t) − reference| / max(|reference|, 1e-10))` afterwards.
fn integral(
    events: &[ProgressEvent],
    horizon: f64,
    reference: Option<f64>,
    value: impl Fn(&ProgressEvent) -> Option<f64>,
) -> f64 {
    let Some(reference_val) = reference else {
        return horizon;
    };
    let scale = reference_val.abs().max(1e-10);
    let mut total = 0.0;
    let mut t_prev = 0.0f64;
    let mut level = 1.0f64;
    for e in events {
        let Some(v) = value(e) else { continue };
        let t = e.elapsed.as_secs_f64().min(horizon);
        if t > t_prev {
            total += level * (t - t_prev);
            t_prev = t;
        }
        level = ((v - reference_val).abs() / scale).min(1.0);
    }
    if horizon > t_prev {
        total += level * (horizon - t_prev);
    }
    total
}

/// A finite `f64` as a JSON number, `None`/non-finite as `null`.
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// A finite `f64` for a CSV field, `None`/non-finite as empty.
fn csv_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> ProgressRecorder {
        let r = ProgressRecorder::new();
        r.begin(true); // maximize
        r
    }

    #[test]
    fn incumbents_must_improve() {
        let r = recorder();
        r.record_incumbent(10.0, 30.0, 1, 1, 0, 0, IncumbentSource::IntegralLp);
        r.record_incumbent(9.0, 30.0, 2, 2, 1, 0, IncumbentSource::IntegralLp); // worse: dropped
        r.record_incumbent(12.0, 28.0, 3, 3, 1, 0, IncumbentSource::IntegralLp);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].incumbent, Some(10.0));
        assert_eq!(ev[1].incumbent, Some(12.0));
        assert_eq!(ev[1].source, Some(IncumbentSource::IntegralLp));
    }

    #[test]
    fn bounds_must_tighten() {
        let r = recorder();
        r.offer_bound(30.0, 1, 1, 0, 0);
        r.offer_bound(30.0, 2, 2, 0, 0); // no improvement: dropped
        r.offer_bound(31.0, 3, 3, 0, 0); // looser (maximize): dropped
        r.offer_bound(25.0, 4, 4, 1, 0);
        r.offer_bound(f64::INFINITY, 5, 5, 1, 0); // non-finite: dropped
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].bound, 30.0);
        assert_eq!(ev[1].bound, 25.0);
        assert_eq!(ev[1].kind, ProgressKind::Bound);
    }

    #[test]
    fn bounds_clamp_at_the_incumbent() {
        let r = recorder();
        r.record_incumbent(10.0, 30.0, 1, 1, 0, 0, IncumbentSource::IntegralLp);
        // An open-node bound that crossed the incumbent reports the proof,
        // not a contradiction.
        r.offer_bound(9.5, 2, 2, 1, 0);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].bound, 10.0);
        assert_eq!(ev[1].gap(), Some(0.0));
        // Further crossing offers do not tighten past the incumbent.
        r.offer_bound(8.0, 3, 3, 1, 0);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn minimize_direction_flips() {
        let r = ProgressRecorder::new();
        r.begin(false);
        r.offer_bound(5.0, 1, 1, 0, 0);
        r.offer_bound(7.0, 2, 2, 0, 0); // tighter lower bound when minimizing
        r.offer_bound(6.0, 3, 3, 0, 0); // looser: dropped
        r.record_incumbent(20.0, 7.0, 3, 3, 0, 0, IncumbentSource::IntegralLp);
        r.record_incumbent(15.0, 7.0, 4, 4, 0, 0, IncumbentSource::IntegralLp);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn jsonl_has_no_wall_times_and_stable_fields() {
        let r = recorder();
        r.record_incumbent(10.0, f64::INFINITY, 2, 2, 1, 0, IncumbentSource::IntegralLp);
        r.offer_bound(25.0, 3, 3, 2, 0);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"event\":\"incumbent\",\"nodes\":2,\"node\":2,\"depth\":1,\
             \"thread\":0,\"source\":\"integral_lp\",\"incumbent\":10,\"bound\":null,\"gap\":null}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"event\":\"bound\",\"nodes\":3,\"node\":3,\"depth\":2,\
             \"thread\":0,\"source\":null,\"incumbent\":10,\"bound\":25,\"gap\":1.5}"
        );
    }

    #[test]
    fn csv_header_and_rows() {
        let r = recorder();
        r.record_incumbent(10.0, 20.0, 1, 1, 0, 0, IncumbentSource::IntegralLp);
        let mut buf = Vec::new();
        r.write_gap_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("t_s,nodes,incumbent,bound,gap"));
        let row = lines.next().unwrap();
        assert!(row.ends_with(",1,10,20,1"), "row: {row}");
    }

    #[test]
    fn summary_counts_and_ttfi_skips_cutoff() {
        let r = recorder();
        r.record_incumbent(8.0, f64::INFINITY, 0, 0, 0, 0, IncumbentSource::Cutoff);
        r.record_incumbent(10.0, 30.0, 2, 2, 1, 0, IncumbentSource::IntegralLp);
        r.offer_bound(20.0, 3, 3, 1, 0);
        let s = r.summary(Duration::from_millis(10), true);
        assert_eq!(s.incumbents, 2);
        assert_eq!(s.bound_updates, 1);
        let ttfi = s.time_to_first_incumbent_s.unwrap();
        assert!(ttfi >= 0.0);
        assert_eq!(s.time_to_proof_s, Some(0.01));
        assert!(s.primal_integral >= 0.0 && s.primal_integral <= 0.01 + 1e-12);
        assert!(s.dual_integral >= 0.0 && s.dual_integral <= 0.01 + 1e-12);
    }

    #[test]
    fn empty_stream_integrals_cover_the_horizon() {
        let r = recorder();
        let s = r.summary(Duration::from_secs(2), false);
        assert_eq!(s.time_to_first_incumbent_s, None);
        assert_eq!(s.time_to_proof_s, None);
        assert_eq!(s.primal_integral, 2.0);
        assert_eq!(s.dual_integral, 2.0);
    }

    #[test]
    fn begin_resets_the_stream() {
        let r = recorder();
        r.record_incumbent(10.0, 30.0, 1, 1, 0, 0, IncumbentSource::IntegralLp);
        assert!(!r.is_empty());
        r.begin(false);
        assert!(r.is_empty());
    }
}
