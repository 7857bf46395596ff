//! Schema round-trip tests for the `BENCH_*.json` documents: everything the
//! harness writes must survive `pretty` → `parse` exactly (the property the
//! journal replay and the regression gate rely on), and the documents
//! committed at the repo root must still parse and carry their gate keys.

use std::path::PathBuf;

use tvnep_bench::campaign::{bench_doc, run_campaign, CampaignOptions};
use tvnep_bench::HarnessConfig;
use tvnep_telemetry::Json;
use tvnep_workloads::WorkloadConfig;

fn get<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

#[test]
fn campaign_bench_doc_round_trips() {
    let dir = std::env::temp_dir().join(format!("tvnep-schemas-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        cfg: HarnessConfig {
            workload: WorkloadConfig::tiny(),
            seeds: vec![1],
            flexibilities: vec![0.0, 1.0],
            threads: 1,
            ..HarnessConfig::default()
        },
        labels: vec!["csigma_access".into(), "greedy_access".into()],
        journal_path: dir.join("journal.jsonl"),
        quiet: true,
    };
    let summary = run_campaign(&opts).expect("campaign");
    let doc = bench_doc(&summary, &opts);

    // Exact print/parse round trip — byte-stable replay depends on this.
    let reparsed = Json::parse(&doc.pretty()).expect("re-parse bench doc");
    assert_eq!(reparsed, doc);

    // The keys the regression gate consumes.
    assert_eq!(get(&doc, "bench").as_str(), Some("campaign"));
    assert!(get(&doc, "schema_version").as_f64().is_some());
    get(&doc, "config");
    get(&doc, "host");
    let Json::Arr(cells) = get(&doc, "cells") else {
        panic!("cells is not an array")
    };
    assert_eq!(cells.len(), 4);
    for cell in cells {
        for key in [
            "cell",
            "skipped",
            "wall_s",
            "status",
            "nodes",
            "lp_iters",
            "threads",
            "peak_bytes",
        ] {
            get(cell, key);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_bench_documents_still_parse() {
    let root: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (file, required) in [
        ("BENCH_parallel.json", vec!["bench", "runs"]),
        (
            "BENCH_introspection.json",
            vec![
                "bench",
                "runs",
                "spans_off_overhead_pct",
                "alloc_off_overhead_pct",
                "alloc_ns_per_op_off",
                "alloc_ns_per_op_on",
                "tolerance_pct",
                "serve",
            ],
        ),
        (
            "BENCH_campaign.json",
            vec!["bench", "schema_version", "config", "host", "cells"],
        ),
        ("BENCH_serve.json", vec!["bench", "config", "cells"]),
    ] {
        let path = root.join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {file}: {e}"));
        for key in required {
            assert!(doc.get(key).is_some(), "{file} lost key {key:?}");
        }
        assert_eq!(Json::parse(&doc.pretty()).as_ref(), Ok(&doc), "{file}");
    }

    // The serve SLO baseline additionally carries the gate columns in every
    // cell, and a committed baseline with violations would be nonsense.
    let text = std::fs::read_to_string(root.join("BENCH_serve.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("serve_slo"));
    for cell in doc.get("cells").and_then(Json::as_array).unwrap() {
        for key in [
            "cell",
            "threads",
            "decisions",
            "accepted",
            "shed",
            "violations",
            "total_nodes",
            "epochs",
            "overruns",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "wall_s",
        ] {
            get(cell, key);
        }
        assert_eq!(cell.get("violations").and_then(Json::as_u64), Some(0));
    }

    // The introspection baseline's serve-observability ladder carries the
    // disabled-overhead gate columns.
    let text = std::fs::read_to_string(root.join("BENCH_introspection.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    let serve = get(&doc, "serve");
    for key in [
        "admissions",
        "runs",
        "disabled_overhead_pct",
        "metrics_only_overhead_pct",
    ] {
        get(serve, key);
    }
}

/// The latency-histogram sketch every `*_ms` percentile in the repo now
/// flows through must survive `to_json` → print → parse → `from_json`
/// byte-identically — the property the metrics export and any future
/// baseline comparison of histogram sections rely on.
#[test]
fn histogram_json_round_trips_byte_identical() {
    use tvnep_telemetry::LogHistogram;

    let mut h = LogHistogram::new();
    // splitmix64 log-uniform samples over ~6 decades, plus the edge buckets.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..5000 {
        let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
        h.observe(10f64.powf(-3.0 + 6.0 * unit));
    }
    h.observe(0.0); // underflow bucket
    h.observe(1e200); // overflow bucket

    let doc = h.to_json();
    let text = doc.to_string();
    let reparsed = Json::parse(&text).expect("histogram JSON parses");
    assert_eq!(reparsed, doc, "print/parse round trip");
    assert_eq!(reparsed.to_string(), text, "byte-identical re-print");

    let restored = LogHistogram::from_json(&reparsed).expect("histogram from_json");
    assert_eq!(restored.to_json().to_string(), text, "lossless restore");
    assert_eq!(restored.count(), h.count());
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(restored.quantile(q).to_bits(), h.quantile(q).to_bits());
    }
}
