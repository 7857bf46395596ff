//! End-to-end CLI pipeline test: generate → solve → verify through the JSON
//! interchange format, invoked as a library (the binary's plumbing) and
//! checked against the domain verifier.

use std::time::Duration;
use tvnep_core::{solve_tvnep, BuildOptions, Formulation, Objective};
use tvnep_mip::{MipOptions, MipStatus};
use tvnep_model::is_feasible;
use tvnep_telemetry::Json;
use tvnep_workloads::{generate, WorkloadConfig};

use tvnep_harness::format::{InstanceDoc, SolutionDoc};

#[test]
fn json_pipeline_generate_solve_verify() {
    let inst = generate(&WorkloadConfig::tiny(), 5).with_flexibility_after(1.0);
    // Serialize + reparse the instance (as the CLI does across process runs).
    let json = InstanceDoc::from_instance(&inst).to_json().to_string();
    let doc = InstanceDoc::from_json(&Json::parse(&json).unwrap()).unwrap();
    let inst2 = doc.into_instance().unwrap();

    let out = solve_tvnep(
        &inst2,
        Formulation::CSigma,
        Objective::AccessControl,
        BuildOptions::default_for(Formulation::CSigma),
        &MipOptions::with_time_limit(Duration::from_secs(60)),
    );
    assert_eq!(out.mip.status, MipStatus::Optimal);
    let sol = out.solution.unwrap();

    // Roundtrip the solution and verify against the *original* instance.
    let sjson = SolutionDoc::from_solution(&sol).to_json().to_string();
    let sdoc = SolutionDoc::from_json(&Json::parse(&sjson).unwrap()).unwrap();
    let sol2 = sdoc.into_solution();
    assert!(is_feasible(&inst, &sol2));
}

#[test]
fn malformed_documents_error_cleanly() {
    let bad = InstanceDoc::from_json(&Json::parse("{\"horizon\": -1}").unwrap());
    assert!(bad.is_err());
    let bad2 = SolutionDoc::from_json(&Json::parse("[1,2,3]").unwrap());
    assert!(bad2.is_err());
    assert!(Json::parse("{not json").is_err());
}

#[test]
fn solve_emits_complete_metrics() {
    // The `--metrics-out` path of the CLI, exercised in-process: solve with a
    // full telemetry handle and check the exported JSON carries everything
    // the acceptance criteria name.
    let inst = generate(&WorkloadConfig::tiny(), 5).with_flexibility_after(1.0);
    let telemetry = tvnep_telemetry::Telemetry::metrics_only();
    let mut opts = MipOptions::with_time_limit(Duration::from_secs(60));
    opts.telemetry = telemetry.clone();
    let out = solve_tvnep(
        &inst,
        Formulation::CSigma,
        Objective::AccessControl,
        BuildOptions::default_for(Formulation::CSigma),
        &opts,
    );
    assert_eq!(out.mip.status, MipStatus::Optimal);

    let exported = telemetry.export_json().to_string();
    let doc = Json::parse(&exported).expect("export is valid JSON");
    assert!(doc.get("elapsed_s").and_then(Json::as_f64).is_some());
    let metrics = doc.get("metrics").expect("metrics section");
    let counters = metrics.get("counters").expect("counters");
    let counter = |name: &str| -> u64 {
        counters
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("mip.nodes"), out.mip.nodes);
    assert!(counter("lp.iterations") > 0, "simplex iterations recorded");
    let gauges = metrics
        .get("gauges")
        .expect("gauges")
        .as_object()
        .unwrap()
        .to_vec();
    let gauge = |name: &str| -> f64 {
        gauges
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("gauge {name} missing"))
    };
    assert!((gauge("mip.incumbent_objective") - out.mip.objective.unwrap()).abs() < 1e-9);
    assert!(gauge("mip.final_gap") < 1e-6);
    assert!(gauge("mip.runtime_s") >= 0.0);
    assert!(gauge("model.rows") > 0.0 && gauge("model.cols") > 0.0);
    assert!(doc.get("timeline").is_none());
}
