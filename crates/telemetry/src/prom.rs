//! # Hand-rolled Prometheus-style text exposition
//!
//! Renders a histogram or the numeric leaves of a JSON document in the
//! Prometheus text format, and parses such text back into
//! `(name, labels, value)` samples so CI can prove the wire round-trips.
//! Zero dependencies, deterministic output: metric names are the dotted
//! telemetry keys (or JSON paths) with dots replaced by underscores, in
//! document order.

use crate::hist::{bucket_upper, LogHistogram};
use crate::json::Json;

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Raw label block without braces (`le="0.5"`), empty when unlabelled.
    pub labels: String,
    pub value: f64,
}

/// `serve.util.node_max` → `serve_util_node_max` (Prometheus identifier
/// charset).
pub fn metric_name(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn push_sample(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_value(value));
    out.push('\n');
}

fn format_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
            s.push_str(".0");
        }
        s
    }
}

/// Renders one histogram in cumulative-bucket form (`_bucket{le=…}`,
/// `_sum`, `_count`).
pub fn render_histogram(key: &str, hist: &LogHistogram) -> String {
    let name = metric_name(key);
    let mut out = format!("# TYPE {name} histogram\n");
    let mut cum = 0u64;
    for (index, count) in hist.nonzero() {
        cum += count;
        let le = format_value(bucket_upper(index));
        push_sample(
            &mut out,
            &format!("{name}_bucket"),
            &format!("le=\"{le}\""),
            cum as f64,
        );
    }
    push_sample(
        &mut out,
        &format!("{name}_bucket"),
        "le=\"+Inf\"",
        hist.count() as f64,
    );
    push_sample(&mut out, &format!("{name}_sum"), "", hist.sum());
    push_sample(&mut out, &format!("{name}_count"), "", hist.count() as f64);
    out
}

/// Renders every numeric leaf of a JSON document as a gauge named by its
/// object path under `prefix`: `{"funnel": {"decided": 5}}` under `serve`
/// becomes `serve_funnel_decided 5.0`, in document order. Strings,
/// booleans, nulls and arrays are skipped: a gauge is one named number.
pub fn render_json_gauges(prefix: &str, doc: &Json) -> String {
    fn walk(out: &mut String, path: &str, v: &Json) {
        match v {
            Json::Num(x) => {
                let name = metric_name(path);
                out.push_str(&format!("# TYPE {name} gauge\n"));
                push_sample(out, &name, "", *x);
            }
            Json::Obj(fields) => {
                for (key, child) in fields {
                    walk(out, &format!("{path}.{key}"), child);
                }
            }
            Json::Null | Json::Bool(_) | Json::Str(_) | Json::Arr(_) => {}
        }
    }
    let mut out = String::new();
    walk(&mut out, prefix, doc);
    out
}

/// Parses exposition text back into samples. Comments and blank lines are
/// skipped; any other malformed line is an error (CI uses this to prove
/// the scrape is well-formed).
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value_str) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", ln + 1))?;
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            s => s
                .parse::<f64>()
                .map_err(|e| format!("line {}: bad value {s:?}: {e}", ln + 1))?,
        };
        let (name, labels) = match head.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels", ln + 1))?;
                (n, labels)
            }
            None => (head, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", ln + 1));
        }
        samples.push(Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_render_is_cumulative_and_parses_back() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 2.1, 130.0] {
            h.observe(v);
        }
        let text = render_histogram("serve.admit.latency_ms", &h);
        let samples = parse(&text).unwrap();
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "serve_admit_latency_ms_bucket")
            .collect();
        // Cumulative counts are non-decreasing and end at the total.
        let mut last = 0.0;
        for b in &buckets {
            assert!(b.value >= last);
            last = b.value;
        }
        assert_eq!(last, 4.0);
        assert_eq!(buckets.last().unwrap().labels, "le=\"+Inf\"");
        let count = samples
            .iter()
            .find(|s| s.name == "serve_admit_latency_ms_count")
            .unwrap();
        assert_eq!(count.value, 4.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no_value_here\n").is_err());
        assert!(parse("bad name 1.0 2.0 extra\n").is_err());
        assert!(parse("unterminated{le=\"1\" 3.0\n").is_err());
        assert!(parse("# comment only\n\n").unwrap().is_empty());
    }
}
