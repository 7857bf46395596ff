//! Malformed input through the real binary: instance files, solution
//! documents, client lines and write-ahead-log records that break the
//! premises of Definition 2.1 end in an error naming the request, the
//! substrate or the record (exit 1, or an `error` event after which the
//! session goes on), never in a panic (exit 101).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use tvnep_graph::{EdgeId, NodeId};
use tvnep_harness::format::{embedding_to_json, InstanceDoc, RequestDoc, SolutionDoc};
use tvnep_model::{Embedding, ScheduledRequest};
use tvnep_telemetry::Json;
use tvnep_workloads::{generate, WorkloadConfig};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tvnep-cli")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvnep-malformed-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(path: &Path, text: &str) -> String {
    std::fs::write(path, text).unwrap();
    path.display().to_string()
}

/// Runs the binary on `args`, feeding `stdin` (a refusal may exit before
/// reading it).
fn run(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tvnep-cli");
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    child.wait_with_output().unwrap()
}

/// Exit 1 with `needle` in the error line.
fn assert_refused(out: &Output, needle: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains(needle), "expected '{needle}' in: {err}");
}

fn tiny() -> InstanceDoc {
    InstanceDoc::from_instance(&generate(&WorkloadConfig::tiny(), 7).with_flexibility_after(1.0))
}

/// A two-node, one-link request starting at 0 with duration 2.
fn pair_request(name: &str, latest_end: f64) -> RequestDoc {
    RequestDoc {
        name: name.into(),
        num_nodes: 2,
        edges: vec![[0, 1]],
        node_demands: vec![0.5, 0.5],
        edge_demands: vec![0.2],
        earliest_start: 0.0,
        latest_end,
        duration: 2.0,
    }
}

fn submit_line(doc: &RequestDoc) -> String {
    Json::Obj(vec![
        ("op".into(), Json::from("submit")),
        ("request".into(), doc.to_json()),
        (
            "mapping".into(),
            Json::Arr(vec![Json::from(0u64), Json::from(1u64)]),
        ),
    ])
    .to_string()
}

#[test]
fn info_refuses_instances_that_break_the_model() {
    let dir = scratch("info");
    type Break = fn(&mut InstanceDoc);
    let cases: [(&str, Break, bool); 6] = [
        ("zero_duration", |d| d.requests[1].duration = 0.0, true),
        // Would size the virtual graph before any other check.
        (
            "huge_node_count",
            |d| d.requests[1].num_nodes = 1 << 62,
            true,
        ),
        (
            "negative_demand",
            |d| d.requests[1].node_demands[0] = -1.0,
            true,
        ),
        (
            "negative_capacity",
            |d| d.substrate.node_capacities[0] = -1.0,
            false,
        ),
        (
            "unknown_node",
            |d| d.fixed_node_mappings.as_mut().unwrap()[1][0] = 99,
            true,
        ),
        (
            "past_horizon",
            |d| d.requests[1].latest_end = d.horizon + 5.0,
            true,
        ),
    ];
    for (name, break_it, names_request) in cases {
        let mut doc = tiny();
        break_it(&mut doc);
        let needle = if names_request {
            format!("request '{}'", doc.requests[1].name)
        } else {
            "substrate".to_string()
        };
        let path = write(&dir.join(format!("{name}.json")), &doc.to_json().pretty());
        assert_refused(&run(&["info", &path], ""), &needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_refuses_solutions_verify_calls_malformed() {
    let dir = scratch("explain");
    let doc = tiny();
    let inst = write(&dir.join("instance.json"), &doc.to_json().pretty());
    let entry = |accepted: bool, r: &RequestDoc| ScheduledRequest {
        accepted,
        start: r.earliest_start,
        end: r.earliest_start + r.duration,
        embedding: None,
    };
    let solution = |scheduled: Vec<ScheduledRequest>| {
        SolutionDoc {
            objective: None,
            scheduled,
        }
        .to_json()
        .pretty()
    };
    // One entry short: verify reports ShapeMismatch.
    let short = solution(doc.requests[1..].iter().map(|r| entry(false, r)).collect());
    // The first request accepted without an embedding: MissingEmbedding.
    let bare = solution(
        doc.requests
            .iter()
            .enumerate()
            .map(|(i, r)| entry(i == 0, r))
            .collect(),
    );
    for (name, text, needle) in [
        ("short", short, "ShapeMismatch"),
        ("bare", bare, "MissingEmbedding"),
    ] {
        let path = write(&dir.join(format!("{name}.json")), &text);
        assert_refused(&run(&["explain", &inst, &path], ""), needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_a_window_just_short_of_its_duration_with_an_error() {
    let dir = scratch("serve");
    let inst = write(&dir.join("instance.json"), &tiny().to_json().pretty());
    // 5e-10 short: inside a 1e-9 tolerance, outside the model's 1e-12.
    let input = format!(
        "{}\n{}\n",
        submit_line(&pair_request("short", 1.9999999995)),
        submit_line(&pair_request("ok", 3.0))
    );
    let out = run(&["serve", "--instance", &inst, "--epoch", "1"], &input);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let events: Vec<Json> = stdout.lines().map(|l| Json::parse(l).unwrap()).collect();
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        kinds,
        ["hello", "error", "ack", "decision", "epoch", "bye"],
        "{stdout}"
    );
    let reason = events[1].get("reason").and_then(Json::as_str).unwrap();
    assert!(reason.contains("request 'short'"), "{reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_refuses_wal_records_that_break_the_model() {
    let dir = scratch("wal");
    let mut config = tiny();
    config.requests.clear();
    config.fixed_node_mappings = None;
    let horizon = config.horizon;
    let header = |doc: &InstanceDoc| {
        Json::Obj(vec![
            ("event".into(), Json::from("serve_config")),
            ("instance".into(), doc.to_json()),
        ])
        .to_string()
    };
    let submitted = |doc: &RequestDoc| {
        Json::Obj(vec![
            ("event".into(), Json::from("submitted")),
            ("id".into(), Json::from(0u64)),
            ("request".into(), doc.to_json()),
            (
                "mapping".into(),
                Json::Arr(vec![Json::from(0u64), Json::from(1u64)]),
            ),
        ])
        .to_string()
    };
    let mut negative = config.clone();
    negative.substrate.node_capacities[0] = -1.0;
    let mut zero = pair_request("zero", 3.0);
    zero.duration = 0.0;
    // A decision on request 0 at `start` with the `verdict` fields, on a
    // node map and flow that fit.
    let embedding = Embedding {
        node_map: vec![NodeId(0), NodeId(1)],
        edge_flows: vec![vec![(EdgeId(0), 1.0)]],
    };
    let decision = |start: f64, verdict: &[(&str, Json)]| {
        let mut fields = vec![
            ("event".into(), Json::from("decision")),
            ("id".into(), Json::from(0u64)),
        ];
        fields.extend(verdict.iter().map(|(k, v)| (k.to_string(), v.clone())));
        fields.push(("start".into(), Json::from(start)));
        fields.push(("end".into(), Json::from(start + 2.0)));
        fields.extend(embedding_to_json(&embedding));
        Json::Obj(fields).to_string()
    };
    let ok = submitted(&pair_request("ok", 3.0));
    let yes = [("accepted", Json::from(true))];
    let accepted = decision(0.0, &yes);
    // One more submission makes the recovered service admit against the
    // restored reservation.
    let later = format!("{}\n", submit_line(&pair_request("later", 3.0)));
    for (name, wal, needle) in [
        ("negative_capacity", header(&negative), "serve_config"),
        // Journaled but never decided, so recovery re-queues it.
        (
            "zero_duration",
            format!("{}\n{}", header(&config), submitted(&zero)),
            "submitted #0",
        ),
        (
            "decision_past_horizon",
            format!(
                "{}\n{ok}\n{}",
                header(&config),
                decision(horizon + 3.0, &yes)
            ),
            "decision #0",
        ),
        // Would replay as a rejection.
        (
            "decision_without_accepted",
            format!("{}\n{ok}\n{}", header(&config), decision(0.0, &[])),
            "decision #0 without accepted",
        ),
        // Would replay as a rejection before the solver ran.
        (
            "accepted_with_reason",
            format!(
                "{}\n{ok}\n{}",
                header(&config),
                decision(
                    0.0,
                    &[yes[0].clone(), ("reason", Json::from("stale window"))]
                )
            ),
            "decision #0 accepted with a reason",
        ),
        // Would restore the reservation twice.
        (
            "decision_twice",
            format!("{}\n{ok}\n{accepted}\n{accepted}", header(&config)),
            "decision #0 twice",
        ),
        // Would queue the request twice.
        (
            "submitted_twice",
            format!("{}\n{ok}\n{ok}", header(&config)),
            "submitted #0 twice",
        ),
        // Terminated, so not a torn write: would hide every record after it.
        (
            "line_not_json",
            format!("{}\nnot json\n{ok}", header(&config)),
            "line 2 is not JSON",
        ),
    ] {
        let path = write(&dir.join(format!("{name}.wal")), &format!("{wal}\n"));
        assert_refused(&run(&["serve", "--wal", &path], &later), needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
