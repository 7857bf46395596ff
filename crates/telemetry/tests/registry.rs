//! Black-box tests for the telemetry handle: counter/gauge/histogram
//! semantics, the disabled handle being a strict no-op, and the JSON export.

use tvnep_telemetry::Telemetry;

#[test]
fn counters_accumulate_and_gauges_overwrite() {
    let t = Telemetry::metrics_only();
    t.counter_add("nodes", 3);
    t.counter_add("nodes", 4);
    t.counter_add("other", 1);
    t.gauge_set("gap", 0.5);
    t.gauge_set("gap", 0.125);

    let snap = t.snapshot();
    assert_eq!(snap.counter("nodes"), 7);
    assert_eq!(snap.counter("other"), 1);
    assert_eq!(snap.counter("missing"), 0);
    assert_eq!(snap.gauge("gap"), Some(0.125));
    assert_eq!(snap.gauge("missing"), None);
}

#[test]
fn histograms_bucket_on_log_scale() {
    let t = Telemetry::metrics_only();
    for v in [0.3, 1.0, 1.5, 3.0, 1000.0] {
        t.observe("lp_iters", v);
    }
    let snap = t.snapshot();
    let h = snap.histogram("lp_iters").expect("histogram recorded");
    assert_eq!(h.count, 5);
    assert_eq!(h.min, 0.3);
    assert_eq!(h.max, 1000.0);
    assert!((h.mean() - 1005.8 / 5.0).abs() < 1e-9);
    // Buckets are (upper_bound, count) in increasing order on the 16-per-
    // octave log-linear grid; each observation lands in its own bucket here.
    assert_eq!(h.buckets.len(), 5);
    assert!(h.buckets.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(h.buckets.iter().map(|(_, c)| c).sum::<u64>(), 5);
    // 1.0 ∈ [1, 1.0625), 1000 ∈ [992, 1024)… check via the quantile API
    // instead of pinning the grid: every quantile is within 3.125 %.
    for (q, exact) in [(0.0, 0.3), (0.5, 1.5), (1.0, 1000.0)] {
        assert!((h.quantile(q) - exact).abs() / exact <= 0.03125 + 1e-12);
    }
}

#[test]
fn disabled_handle_is_noop() {
    let t = Telemetry::disabled();
    assert!(!t.is_enabled());
    assert!(!t.spans_enabled());
    t.counter_add("nodes", 10);
    t.gauge_set("gap", 1.0);
    t.observe("h", 2.0);
    drop(t.span("ignored"));

    let snap = t.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(t.spans().is_empty());
    assert_eq!(t.elapsed(), std::time::Duration::ZERO);
}

#[test]
fn export_json_is_valid_and_complete() {
    use tvnep_telemetry::json::Json;

    let t = Telemetry::with_spans();
    t.counter_add("mip.nodes", 12);
    t.gauge_set("mip.gap", 0.25);
    t.observe("lp.iters_per_node", 8.0);
    drop(t.span("lp.solve"));

    let doc = Json::parse(&t.export_json().pretty()).expect("export is valid JSON");
    let metrics = doc.get("metrics").expect("metrics section");
    assert_eq!(
        metrics
            .get("counters")
            .unwrap()
            .get("mip.nodes")
            .unwrap()
            .as_u64(),
        Some(12)
    );
    assert_eq!(
        metrics
            .get("gauges")
            .unwrap()
            .get("mip.gap")
            .unwrap()
            .as_f64(),
        Some(0.25)
    );
    let hist = metrics
        .get("histograms")
        .unwrap()
        .get("lp.iters_per_node")
        .unwrap();
    assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    // Spans go to `--chrome-trace` / `--trace`, never into the export.
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["elapsed_s", "metrics"]);
}
