//! Counters, gauges, and log-bucketed histograms, keyed by name.
//!
//! Histograms are [`LogHistogram`] sketches from [`crate::hist`]: 16
//! log-linear sub-buckets per power-of-two octave, bucketed straight from
//! the f64 bits so an observation costs two shifts and an array increment,
//! with no per-histogram configuration and bitwise-deterministic contents.
//!
//! The names the solvers write on every solve are interned: each has an id,
//! its position in the sorted table of its kind ([`COUNTERS`], [`GAUGES`],
//! [`HISTOGRAMS`]), and every registry holds one slot per id. A write finds
//! its id through a hash index built at compile time, so a fresh registry
//! allocates no key and drops in O(1). Any other name, a formatted one such
//! as `par.worker1.nodes` included, lives in a map. A snapshot merges the
//! slots and the map in name order, so an export does not depend on which
//! side holds a name.

use crate::hist::{self, LogHistogram};
use crate::json::Json;
use std::collections::BTreeMap;

/// The interned counter names, ascending.
const COUNTERS: [&str; 24] = [
    "greedy.accepted",
    "greedy.iterations",
    "greedy.total_nodes",
    "lp.bound_flips",
    "lp.degenerate_pivots",
    "lp.dual_fallbacks",
    "lp.dual_iters",
    "lp.dual_successes",
    "lp.health.bland_episodes",
    "lp.health.bland_iters",
    "lp.health.refactor_instability",
    "lp.health.refactor_scheduled",
    "lp.health.refactor_singular_recovery",
    "lp.health.singular_bases",
    "lp.iterations",
    "lp.pricing_full_scans",
    "lp.pricing_window_hits",
    "lp.primal_iters",
    "lp.refactorizations",
    "lp.solves",
    "lp.warm_calls",
    "mip.incumbents",
    "mip.nodes",
    "mip.rc_fixings",
];

/// The interned gauge names, ascending.
const GAUGES: [&str; 28] = [
    "greedy.runtime_s",
    "lp.health.growth_factor",
    "lp.health.max_pivot",
    "lp.health.min_pivot",
    "lp.health.verdict",
    "mem.lp.simplex_bytes",
    "mem.mip.model_bytes",
    "mem.mip.node_pool_peak_bytes",
    "mem.mip.tree_bytes",
    "mip.best_bound",
    "mip.final_gap",
    "mip.incumbent_objective",
    "mip.runtime_s",
    "mip.threads",
    "model.cols",
    "model.dynamic_states",
    "model.events_removed",
    "model.ints",
    "model.rows",
    "model.states_removed",
    "par.busy_fraction",
    "par.effective_parallelism",
    "par.pool_peak_depth",
    "par.workers",
    "watchdog.busy",
    "watchdog.progress_age_ms",
    "watchdog.stall_reports",
    "watchdog.threshold_ms",
];

/// The interned histogram names, ascending.
const HISTOGRAMS: [&str; 1] = ["lp.iters_per_solve"];

/// Buckets of an interned-name index: a power of two, at least twice the
/// longest table, so a probe always meets an empty bucket.
const BUCKETS: usize = 64;

/// The index bucket of a name: its last eight bytes (a shorter name's
/// bytes and its length), mixed by one multiplication.
const fn bucket(name: &[u8]) -> usize {
    let n = name.len();
    let mut tail = n as u64;
    let mut i = n.saturating_sub(8);
    while i < n {
        tail = tail << 8 ^ name[i] as u64;
        i += 1;
    }
    (tail.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

/// An open-addressed index of `table`: each name's id plus one sits in its
/// bucket or the next free one after it, and 0 marks a free bucket.
const fn index<const N: usize>(table: &[&str; N]) -> [u8; BUCKETS] {
    assert!(2 * N <= BUCKETS);
    let mut index = [0u8; BUCKETS];
    let mut id = 0;
    while id < N {
        let mut b = bucket(table[id].as_bytes());
        while index[b] != 0 {
            b = (b + 1) % BUCKETS;
        }
        index[b] = id as u8 + 1;
        id += 1;
    }
    index
}

const COUNTER_INDEX: [u8; BUCKETS] = index(&COUNTERS);
const GAUGE_INDEX: [u8; BUCKETS] = index(&GAUGES);
const HISTOGRAM_INDEX: [u8; BUCKETS] = index(&HISTOGRAMS);

/// The interned slots of one kind next to the map of the other names.
#[derive(Debug, Clone)]
struct Series<T, const N: usize> {
    table: &'static [&'static str; N],
    index: &'static [u8; BUCKETS],
    slots: [Option<T>; N],
    named: BTreeMap<String, T>,
}

impl<T, const N: usize> Series<T, N> {
    fn new(table: &'static [&'static str; N], index: &'static [u8; BUCKETS]) -> Self {
        Self {
            table,
            index,
            slots: [const { None }; N],
            named: BTreeMap::new(),
        }
    }

    /// The id of `name`, if it is interned: its bucket and the taken ones
    /// after it are probed until a free one.
    fn id(&self, name: &str) -> Option<usize> {
        let mut b = bucket(name.as_bytes());
        loop {
            let id = (self.index[b] as usize).checked_sub(1)?;
            if self.table[id] == name {
                return Some(id);
            }
            b = (b + 1) % BUCKETS;
        }
    }

    fn get(&self, name: &str) -> Option<&T> {
        match self.id(name) {
            Some(i) => self.slots[i].as_ref(),
            None => self.named.get(name),
        }
    }

    /// The value of `name`, created by `init` on its first write.
    fn entry(&mut self, name: &str, init: impl FnOnce() -> T) -> &mut T {
        if let Some(i) = self.id(name) {
            return self.slots[i].get_or_insert_with(init);
        }
        if !self.named.contains_key(name) {
            self.named.insert(name.to_string(), init());
        }
        self.named.get_mut(name).expect("inserted above")
    }

    /// Every value, in name order.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        let mut fixed = self
            .table
            .iter()
            .zip(&self.slots)
            .filter_map(|(k, v)| Some((*k, v.as_ref()?)))
            .peekable();
        let mut named = self.named.iter().map(|(k, v)| (k.as_str(), v)).peekable();
        std::iter::from_fn(move || match (fixed.peek(), named.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => named.next(),
            (Some(_), _) => fixed.next(),
            (None, _) => named.next(),
        })
    }
}

/// Aggregated metrics: counters (monotone u64), gauges (last write wins,
/// or a running extreme through [`MetricsRegistry::gauge_max`] and
/// [`MetricsRegistry::gauge_min`]), and log-scale histograms. Not
/// thread-safe by itself; the [`crate::Telemetry`] handle wraps it in a
/// mutex.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: Series<u64, { COUNTERS.len() }>,
    gauges: Series<f64, { GAUGES.len() }>,
    histograms: Series<LogHistogram, { HISTOGRAMS.len() }>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            counters: Series::new(&COUNTERS, &COUNTER_INDEX),
            gauges: Series::new(&GAUGES, &GAUGE_INDEX),
            histograms: Series::new(&HISTOGRAMS, &HISTOGRAM_INDEX),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name, || 0) += delta;
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        *self.gauges.entry(name, || value) = value;
    }

    /// Raises the gauge to `value` if it is unset or lower: the gauge keeps
    /// the largest value written through this method.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name, || value);
        *g = g.max(value);
    }

    /// Lowers the gauge to `value` if it is unset or higher.
    pub fn gauge_min(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name, || value);
        *g = g.min(value);
    }

    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name, LogHistogram::new)
            .observe(value);
    }

    /// The raw sketch behind a histogram, for quantile queries or text
    /// exposition without going through a snapshot.
    pub fn histogram_sketch(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into this registry: counters add, gauges take `other`'s
    /// last write, histograms merge bucket-wise. This is the per-thread merge
    /// used by the parallel MIP solver — each worker records into its own
    /// registry lock-free of the others, and the driver absorbs them at the
    /// end so exported quantities are identical regardless of thread count.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, delta) in other.counters.iter() {
            self.counter_add(name, *delta);
        }
        for (name, value) in other.gauges.iter() {
            self.gauge_set(name, *value);
        }
        for (name, hist) in other.histograms.iter() {
            self.histograms
                .entry(name, LogHistogram::new)
                .merge_from(hist);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.to_string(),
                        HistogramSnapshot {
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min(),
                            max: h.max(),
                            buckets: h
                                .nonzero()
                                .map(|(i, c)| (hist::bucket_upper(i), c))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Point-in-time view of one histogram: only non-empty buckets are kept, as
/// `(upper_bound, count)` pairs in increasing bound order.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile with the sketch's bounded relative error,
    /// reconstructed from the `(le, count)` pairs (same answer as
    /// [`LogHistogram::quantile`] on the live sketch).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(le, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                let mid = hist::bucket_mid(hist::index_for_upper(le));
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::from(self.count)),
            ("sum".into(), Json::from(self.sum)),
            ("min".into(), Json::from(self.min)),
            ("max".into(), Json::from(self.max)),
            ("mean".into(), Json::from(self.mean())),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|(le, c)| {
                            Json::Obj(vec![
                                ("le".into(), Json::from(*le)),
                                ("count".into(), Json::from(*c)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_tables_are_strictly_ascending() {
        for table in [&COUNTERS[..], &GAUGES[..], &HISTOGRAMS[..]] {
            assert!(table.windows(2).all(|w| w[0] < w[1]), "{table:?}");
        }
    }

    /// Interned and formatted names come out of one snapshot in name
    /// order, as they did when every name lived in the map.
    #[test]
    fn snapshot_merges_slots_and_map_in_name_order() {
        let mut r = MetricsRegistry::new();
        for name in ["mip.nodes", "a.first", "lp.solves", "z.last", "mip.nodez"] {
            r.counter_add(name, 1);
        }
        r.counter_add("lp.solves", 2);
        r.gauge_set("par.worker2.nodes", 5.0);
        r.gauge_set("par.workers", 2.0);
        r.gauge_set("par.worker1.nodes", 4.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["a.first", "lp.solves", "mip.nodes", "mip.nodez", "z.last"]
        );
        assert_eq!(snap.counter("lp.solves"), 3);
        let names: Vec<&str> = snap.gauges.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["par.worker1.nodes", "par.worker2.nodes", "par.workers"]
        );
        let mut merged = MetricsRegistry::new();
        merged.merge_from(&r);
        merged.merge_from(&r);
        assert_eq!(merged.counter("lp.solves"), 6);
        assert_eq!(merged.counter("z.last"), 2);
        assert_eq!(merged.gauge("par.worker1.nodes"), Some(4.0));
    }

    #[test]
    fn extreme_gauges_keep_the_worst_write() {
        let mut r = MetricsRegistry::new();
        for (name, values) in [
            ("lp.health.max_pivot", [2.0, 5.0, 3.0]),
            ("x.max", [2.0, 5.0, 3.0]),
        ] {
            for v in values {
                r.gauge_max(name, v);
            }
            assert_eq!(r.gauge(name), Some(5.0), "{name}");
        }
        for v in [2.0, 0.5, 3.0] {
            r.gauge_min("lp.health.min_pivot", v);
        }
        assert_eq!(r.gauge("lp.health.min_pivot"), Some(0.5));
        r.gauge_set("lp.health.max_pivot", 1.0);
        assert_eq!(r.gauge("lp.health.max_pivot"), Some(1.0));
    }

    #[test]
    fn histogram_aggregates() {
        let mut r = MetricsRegistry::new();
        for v in [0.75, 1.5, 1.25, 6.0] {
            r.observe("x", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("x").unwrap();
        assert_eq!(h.count, 4);
        assert!((h.sum - 9.5).abs() < 1e-12);
        assert_eq!(h.min, 0.75);
        assert_eq!(h.max, 6.0);
        assert!((h.mean() - 2.375).abs() < 1e-12);
        // Log-linear grid, 16 sub-buckets per octave: 0.75 ∈ [0.75, 0.78125),
        // 1.25 ∈ [1.25, 1.3125), 1.5 ∈ [1.5, 1.5625), 6.0 ∈ [6, 6.25).
        assert_eq!(
            h.buckets,
            vec![(0.78125, 1), (1.3125, 1), (1.5625, 1), (6.25, 1)]
        );
        // Quantiles from the snapshot match the live sketch and stay within
        // the sketch's relative-error bound of the exact order statistics.
        assert_eq!(h.quantile(0.0), 0.75);
        assert_eq!(h.quantile(1.0), 6.0);
        assert!((h.quantile(0.5) - 1.25).abs() / 1.25 <= 0.03125 + 1e-12);
        let sketch = r.histogram_sketch("x").unwrap();
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(h.quantile(q), sketch.quantile(q));
        }
    }
}
