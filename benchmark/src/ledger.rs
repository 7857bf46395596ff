//! The layer ledger: self time per span name from one traced pass.
//!
//! A span's self time is its duration minus the part of it its child spans
//! cover. Spans nest by interval containment on one thread. The LP engine
//! reports its hot kernels as one aggregate child span each inside every
//! `lp.solve`/`lp.solve_warm`, laid out back to back and clamped to the
//! parent. Of those, `lp.refactorize` carries the same nanoseconds as
//! `lp.factor` (both are taken around the same factorization call), so the
//! ledger drops it: counting both would subtract factorization time twice
//! from the enclosing solve.

use std::collections::BTreeMap;

use tvnep_telemetry::SpanRecord;

/// Spans that repeat another span's time and are left out of the ledger.
const DUPLICATES: [&str; 1] = ["lp.refactorize"];

/// The LP kernels reported as aggregate spans, with their `calls` count.
pub const KERNELS: [&str; 5] = [
    "lp.factor",
    "lp.ftran",
    "lp.btran",
    "lp.price",
    "lp.pricing",
];

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Entry {
    /// Calls: the `calls` argument of aggregate spans, else one per span.
    pub calls: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Self time and calls per span name.
pub fn ledger(spans: &[SpanRecord]) -> BTreeMap<&'static str, Entry> {
    let mut kept: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| !DUPLICATES.contains(&s.name))
        .collect();
    // Parents first: by thread, then start, then longest. On an exact tie an
    // aggregate kernel span (which can fill its whole parent when clamped)
    // goes after the span it was laid out in.
    kept.sort_by(|a, b| {
        a.tid
            .cmp(&b.tid)
            .then(a.start.cmp(&b.start))
            .then(b.dur.cmp(&a.dur))
            .then(KERNELS.contains(&a.name).cmp(&KERNELS.contains(&b.name)))
    });
    let mut child_ns = vec![0u128; kept.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in kept.iter().enumerate() {
        while let Some(&top) = stack.last() {
            let p = kept[top];
            if p.tid == s.tid && s.start >= p.start && s.start + s.dur <= p.start + p.dur {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            child_ns[top] += s.dur.as_nanos();
        }
        stack.push(i);
    }
    let mut out: BTreeMap<&'static str, Entry> = BTreeMap::new();
    for (s, children) in kept.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.calls += s
            .args
            .iter()
            .find(|(k, _)| *k == "calls")
            .map_or(1, |&(_, c)| c as u64);
        e.self_s += s.dur.as_nanos().saturating_sub(children) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_us: u64, dur_us: u64, calls: Option<f64>) -> SpanRecord {
        SpanRecord {
            name,
            start: Duration::from_micros(start_us),
            dur: Duration::from_micros(dur_us),
            tid: 0,
            args: calls.map(|c| vec![("calls", c)]).unwrap_or_default(),
        }
    }

    /// One pass as the program records it: a solve with two node LPs, the
    /// second laying out its kernels back to back with `lp.refactorize`
    /// repeating `lp.factor` and clamped at the parent's end.
    fn pass() -> Vec<SpanRecord> {
        vec![
            span("bench.pass", 0, 1000, None),
            span("bench.mip.solve", 10, 980, None),
            span("mip.solve", 20, 960, None),
            span("mip.node", 30, 300, None),
            span("lp.solve", 40, 250, None),
            span("lp.pricing", 40, 50, Some(90.0)),
            span("lp.ftran", 90, 40, Some(80.0)),
            span("lp.btran", 130, 30, Some(85.0)),
            span("lp.factor", 160, 100, Some(3.0)),
            span("lp.refactorize", 260, 30, Some(3.0)),
            span("mip.node", 400, 500, None),
            span("lp.solve_warm", 410, 450, None),
            span("lp.price", 410, 20, Some(40.0)),
            span("lp.ftran", 430, 60, Some(40.0)),
            span("lp.factor", 490, 300, Some(9.0)),
            span("lp.refactorize", 790, 70, Some(9.0)),
        ]
    }

    #[test]
    fn refactorize_is_not_counted_twice() {
        let l = ledger(&pass());
        assert!(!l.contains_key("lp.refactorize"));
        let factor = l["lp.factor"];
        assert_eq!(factor.calls, 12);
        assert!((factor.self_s - 400e-6).abs() < 1e-12);
        // 250 − (50 + 40 + 30 + 100), not minus the repeated 30 as well.
        assert!((l["lp.solve"].self_s - 30e-6).abs() < 1e-12);
        assert!((l["lp.solve_warm"].self_s - 70e-6).abs() < 1e-12);
        assert_eq!(l["lp.ftran"].calls, 120);
        assert_eq!(l["mip.node"].calls, 2);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let l = ledger(&pass());
        let sum: f64 = l.values().map(|e| e.self_s).sum();
        let root = 1000e-6;
        assert!((sum - root).abs() <= 0.01 * root, "sum {sum} root {root}");
        assert!((l["mip.node"].self_s - (50e-6 + 50e-6)).abs() < 1e-12);
        assert!((l["mip.solve"].self_s - 160e-6).abs() < 1e-12);
    }

    #[test]
    fn a_kernel_filling_its_parent_stays_its_child() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("lp.solve", 0, 100, None),
            span("lp.factor", 0, 100, Some(1.0)),
        ];
        let l = ledger(&spans);
        assert_eq!(l["lp.solve"].self_s, 0.0);
        assert_eq!(l["bench.pass"].self_s, 0.0);
        assert!((l["lp.factor"].self_s - 100e-6).abs() < 1e-12);
    }
}
