//! # Log-bucketed HDR-style histogram
//!
//! [`LogHistogram`] is the repo's single source of truth for latency and
//! size percentiles. Its bucket grid is fixed: 64 octaves (exponents
//! −32..=31) of 16 log-linear sub-buckets each, plus one underflow and one
//! overflow bucket. It stores the counts of the buckets from the lowest to
//! the highest one observed, so a histogram of a few nearby values holds a
//! few counts and a fresh one allocates nothing. Bucketing is integer-only
//! — the octave comes straight from the f64 exponent bits and the
//! sub-bucket from the top four mantissa bits — so two histograms fed the
//! same values are bitwise identical regardless of insertion order,
//! platform, or optimization level.
//!
//! Quantile queries return the midpoint of the covering bucket, clamped to
//! the observed `[min, max]`. Bucket width is at most 1/16 of the bucket's
//! lower bound, so the reported value is within **3.125 %** relative error
//! of the true order statistic (the half-width of the widest bucket
//! relative to its smallest member).
//!
//! Histograms merge by bucket-wise addition ([`LogHistogram::merge_from`]),
//! which is exactly equivalent to observing the concatenation of both
//! sample streams — the property the per-worker telemetry merge relies on.

use crate::json::Json;

/// Sub-buckets per octave (power of two; 16 ⇒ 4 mantissa bits).
const SUB_BUCKETS: usize = 16;
/// Smallest octave exponent that gets its own buckets. Values below
/// 2^MIN_EXP (≈2.3e−10) land in the underflow bucket.
const MIN_EXP: i64 = -32;
/// One past the largest octave exponent. Values ≥ 2^MAX_EXP (≈4.3e9) land
/// in the overflow bucket.
const MAX_EXP: i64 = 32;
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;
/// Total bucket count: underflow + regular grid + overflow.
pub const NUM_BUCKETS: usize = OCTAVES * SUB_BUCKETS + 2;
const UNDERFLOW: usize = 0;
const OVERFLOW: usize = NUM_BUCKETS - 1;

/// Mergeable histogram with bounded-relative-error quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Index of the bucket `counts[0]` counts (0 while empty).
    first: usize,
    /// Counts of buckets `first..first + counts.len()`: the lowest to the
    /// highest observed, so the first and last are nonzero.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a value to its bucket index. Non-positive values and NaN count as
/// underflow (they are tracked in `count`/`min`/`max` but carry no
/// magnitude information).
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return UNDERFLOW;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if exp < MIN_EXP {
        return UNDERFLOW;
    }
    if exp >= MAX_EXP {
        return OVERFLOW;
    }
    let sub = ((bits >> 48) & 0xf) as usize;
    1 + (exp - MIN_EXP) as usize * SUB_BUCKETS + sub
}

/// Inclusive-lower/exclusive-upper bounds of a regular bucket. Underflow
/// reports `(0, 2^MIN_EXP)`; overflow reports `(2^MAX_EXP, ∞)`.
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    if index == UNDERFLOW {
        return (0.0, (MIN_EXP as f64).exp2());
    }
    if index >= OVERFLOW {
        return ((MAX_EXP as f64).exp2(), f64::INFINITY);
    }
    let k = index - 1;
    let exp = (k / SUB_BUCKETS) as i64 + MIN_EXP;
    let sub = (k % SUB_BUCKETS) as f64;
    let scale = (exp as f64).exp2();
    let lo = scale * (1.0 + sub / SUB_BUCKETS as f64);
    let hi = scale * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64);
    (lo, hi)
}

/// The exclusive upper bound of a bucket, used as the `le` edge in
/// cumulative expositions. Overflow gets a finite sentinel one octave past
/// the grid so the value survives a JSON round trip.
pub fn bucket_upper(index: usize) -> f64 {
    if index >= OVERFLOW {
        return ((MAX_EXP + 1) as f64).exp2();
    }
    bucket_bounds(index).1
}

/// Index of the bucket whose exclusive upper bound is `le` (a value
/// previously produced by [`bucket_upper`]).
pub(crate) fn index_for_upper(le: f64) -> usize {
    if le <= bucket_bounds(UNDERFLOW).1 {
        return UNDERFLOW;
    }
    if le >= ((MAX_EXP + 1) as f64).exp2() {
        return OVERFLOW;
    }
    // `le` is exactly the lower bound of the next bucket.
    bucket_index(le) - 1
}

/// Representative value reported for a bucket: its midpoint, except the
/// open-ended extremes which defer to the observed min/max via clamping.
pub(crate) fn bucket_mid(index: usize) -> f64 {
    if index == UNDERFLOW {
        return 0.0;
    }
    if index >= OVERFLOW {
        return f64::INFINITY;
    }
    let (lo, hi) = bucket_bounds(index);
    0.5 * (lo + hi)
}

/// Exact nearest-rank order statistic on a sorted slice: the single home
/// for exact percentile math in the repo (tests and small-n summaries).
/// `q` in `[0, 1]`; an empty slice yields 0.
pub fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl LogHistogram {
    pub fn new() -> Self {
        Self {
            first: 0,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds `c` to bucket `i`, widening the stored range to reach it.
    fn add(&mut self, i: usize, c: u64) {
        if self.counts.is_empty() {
            self.first = i;
        } else if i < self.first {
            self.counts
                .splice(0..0, std::iter::repeat_n(0, self.first - i));
            self.first = i;
        }
        let k = i - self.first;
        if k >= self.counts.len() {
            self.counts.resize(k + 1, 0);
        }
        self.counts[k] += c;
    }

    pub fn observe(&mut self, v: f64) {
        self.add(bucket_index(v), 1);
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-wise merge: equivalent to having observed both streams.
    pub fn merge_from(&mut self, other: &LogHistogram) {
        for (i, c) in other.nonzero() {
            self.add(i, c);
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Nearest-rank quantile with bounded relative error: the covering
    /// bucket's midpoint clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // The extremes are tracked exactly; only interior quantiles go
        // through the bucket approximation.
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.nonzero() {
            cum += c;
            if cum >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Non-empty buckets as `(index, count)` pairs, in index order.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (self.first + k, c))
    }

    /// Sparse deterministic JSON form: counts as `[[index, count], …]`.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .nonzero()
            .map(|(i, c)| Json::Arr(vec![Json::from(i as u64), Json::from(c)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::from(self.count)),
            ("sum".into(), Json::from(self.sum)),
            ("min".into(), Json::from(self.min())),
            ("max".into(), Json::from(self.max())),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }

    /// Inverse of [`to_json`]. Unknown or out-of-range indices are an error.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut h = Self::new();
        h.count = v
            .get("count")
            .and_then(Json::as_u64)
            .ok_or("histogram: missing count")?;
        h.sum = v
            .get("sum")
            .and_then(Json::as_f64)
            .ok_or("histogram: missing sum")?;
        let min = v
            .get("min")
            .and_then(Json::as_f64)
            .ok_or("histogram: missing min")?;
        let max = v
            .get("max")
            .and_then(Json::as_f64)
            .ok_or("histogram: missing max")?;
        if h.count > 0 {
            h.min = min;
            h.max = max;
        }
        for b in v
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or("histogram: missing buckets")?
        {
            let pair = b.as_array().ok_or("histogram: bucket is not a pair")?;
            if pair.len() != 2 {
                return Err("histogram: bucket is not a pair".into());
            }
            let idx = pair[0].as_u64().ok_or("histogram: bad bucket index")? as usize;
            let cnt = pair[1].as_u64().ok_or("histogram: bad bucket count")?;
            if idx >= NUM_BUCKETS {
                return Err(format!("histogram: bucket index {idx} out of range"));
            }
            if cnt > 0 {
                h.add(idx, cnt);
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn sample(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                // Log-uniform over ~6 orders of magnitude, the shape of
                // latency data.
                let u = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
                10f64.powf(-3.0 + 6.0 * u)
            })
            .collect()
    }

    #[test]
    fn bucket_mapping_is_log_linear() {
        assert_eq!(bucket_index(1.0), 1 + 32 * SUB_BUCKETS);
        assert_eq!(bucket_index(1.0624), 1 + 32 * SUB_BUCKETS);
        assert_eq!(bucket_index(1.0626), 1 + 32 * SUB_BUCKETS + 1);
        assert_eq!(bucket_index(2.0), 1 + 33 * SUB_BUCKETS);
        assert_eq!(bucket_index(0.5), 1 + 31 * SUB_BUCKETS);
        assert_eq!(bucket_index(0.0), UNDERFLOW);
        assert_eq!(bucket_index(-3.0), UNDERFLOW);
        assert_eq!(bucket_index(f64::NAN), UNDERFLOW);
        assert_eq!(bucket_index(1e300), OVERFLOW);
        assert_eq!(bucket_index(1e-300), UNDERFLOW);
        // Every value sits inside its claimed bucket.
        for v in [1e-9, 0.003, 0.9, 1.0, 17.2, 4096.5, 3.9e9] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v < hi, "{v} outside [{lo},{hi})");
        }
    }

    #[test]
    fn quantiles_within_relative_error_of_exact() {
        let values = sample(0xfeed, 2000);
        let mut hist = LogHistogram::new();
        for &v in &values {
            hist.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let approx = hist.quantile(q);
            let rel = (approx - exact).abs() / exact;
            assert!(rel <= 0.03125 + 1e-12, "q={q}: {approx} vs {exact} ({rel})");
        }
        assert_eq!(hist.quantile(0.0), hist.min());
        assert_eq!(hist.quantile(1.0), hist.max());
    }

    #[test]
    fn merge_equals_concatenate() {
        let a = sample(1, 700);
        let b = sample(2, 1300);
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hc = LogHistogram::new();
        for &v in &a {
            ha.observe(v);
            hc.observe(v);
        }
        for &v in &b {
            hb.observe(v);
            hc.observe(v);
        }
        ha.merge_from(&hb);
        assert_eq!(ha.count(), hc.count());
        assert_eq!(ha.min(), hc.min());
        assert_eq!(ha.max(), hc.max());
        assert_eq!(ha.counts, hc.counts);
        // Sum differs only by float addition order; quantiles are identical.
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut h = LogHistogram::new();
        for &v in &sample(0xabc, 500) {
            h.observe(v);
        }
        h.observe(0.0); // exercise underflow
        let text = h.to_json().to_string();
        let back = LogHistogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        let back = LogHistogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn empty_percentile_sweep_is_all_zero() {
        let h = LogHistogram::new();
        for q in [-1.0, 0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0, 2.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LogHistogram::new();
        h.observe(3.7);
        assert_eq!(h.count(), 1);
        // min = max = the sample, so the clamp collapses every quantile to
        // it exactly (no bucket-midpoint error on a single observation).
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.7, "q={q}");
        }
        assert_eq!(h.min(), 3.7);
        assert_eq!(h.max(), 3.7);
        assert_eq!(h.mean(), 3.7);
        let back = LogHistogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn overflow_bucket_values_stay_finite_and_round_trip() {
        let mut h = LogHistogram::new();
        h.observe(1e10); // past 2^32 ≈ 4.3e9: overflow bucket
        h.observe(5e12);
        assert_eq!(bucket_index(1e10), OVERFLOW);
        assert_eq!(bucket_index(5e12), OVERFLOW);
        // The overflow bucket's midpoint is ∞; the clamp to the observed
        // max keeps every reported quantile finite.
        for q in [0.5, 0.9, 0.99] {
            let v = h.quantile(q);
            assert!(v.is_finite(), "q={q} reported {v}");
            assert_eq!(v, 5e12);
        }
        assert_eq!(h.quantile(0.0), 1e10);
        let text = h.to_json().to_string();
        let back = LogHistogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn disjoint_range_merge_is_byte_stable() {
        // A microseconds-range and a kiloseconds-range stream share no
        // octave, so the merge must be a pure union of buckets.
        let mut lo = LogHistogram::new();
        let mut hi = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 1..=64u64 {
            let v = 1e-6 * i as f64;
            lo.observe(v);
            all.observe(v);
        }
        for i in 1..=64u64 {
            let v = 1e3 * i as f64;
            hi.observe(v);
            all.observe(v);
        }
        let (nlo, nhi) = (lo.nonzero().count(), hi.nonzero().count());
        let mut merged_ab = lo.clone();
        merged_ab.merge_from(&hi);
        let mut merged_ba = hi.clone();
        merged_ba.merge_from(&lo);
        assert_eq!(merged_ab.nonzero().count(), nlo + nhi);
        assert_eq!(merged_ab.count(), 128);
        assert_eq!(merged_ab.min(), 1e-6);
        assert_eq!(merged_ab.max(), 64e3);
        // Byte-stable: both merge orders serialize identically (counts,
        // min/max, and the commutative sum all agree bit for bit).
        assert_eq!(
            merged_ab.to_json().to_string(),
            merged_ba.to_json().to_string()
        );
        // And the merged buckets equal the concatenated stream's buckets,
        // so every quantile matches the single-histogram answer exactly.
        assert_eq!(
            merged_ab.nonzero().collect::<Vec<_>>(),
            all.nonzero().collect::<Vec<_>>()
        );
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(merged_ab.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn exact_quantile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(exact_quantile(&sorted, 0.5), 50.0);
        assert_eq!(exact_quantile(&sorted, 0.99), 99.0);
        assert_eq!(exact_quantile(&sorted, 1.0), 100.0);
        assert_eq!(exact_quantile(&sorted, 0.0), 1.0);
        assert_eq!(exact_quantile(&[], 0.5), 0.0);
    }
}
