//! End-to-end test of `tvnep-cli serve` in pipe mode: drive the real binary
//! with a fixed submission stream, parse the decision events, re-verify
//! every accepted schedule with the independent Definition-2.1 verifier,
//! and require the whole session transcript to be byte-identical across
//! reruns (decisions are a pure function of the stream: an admission scans
//! its candidate starts with no budget and no deadline).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use tvnep_graph::{grid, NodeId};
use tvnep_harness::format::{embedding_from_json, InstanceDoc, RequestDoc};
use tvnep_model::tol::VERIFY_TOL;
use tvnep_model::{verify_with_tol, Instance, ScheduledRequest, Substrate, TemporalSolution};
use tvnep_telemetry::Json;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tvnep-cli")
}

fn substrate() -> Substrate {
    Substrate::uniform(grid(2, 2), 3.5, 5.0)
}

const HORIZON: f64 = 20.0;

fn write_instance(path: &Path) {
    let inst = Instance::new(substrate(), Vec::new(), HORIZON, None);
    let doc = InstanceDoc::from_instance(&inst);
    std::fs::write(path, doc.to_json().pretty()).expect("write instance");
}

/// A fixed, fully deterministic submission stream: rigid-ish star requests
/// with staggered arrivals, dense enough on the 2×2 grid that some are
/// rejected.
fn stream() -> Vec<(RequestDoc, Vec<usize>)> {
    (0..6)
        .map(|i| {
            let es = 0.2 * i as f64;
            let doc = RequestDoc {
                name: format!("s{i}"),
                num_nodes: 3,
                edges: vec![[0, 1], [0, 2]],
                node_demands: vec![2.0, 1.5, 1.5],
                edge_demands: vec![0.5, 0.5],
                earliest_start: es,
                latest_end: es + 2.4,
                duration: 2.0,
            };
            let mapping = vec![i % 4, (i + 1) % 4, (i + 2) % 4];
            (doc, mapping)
        })
        .collect()
}

fn submit_line(doc: &RequestDoc, mapping: &[usize]) -> String {
    Json::Obj(vec![
        ("op".into(), Json::from("submit")),
        ("request".into(), doc.to_json()),
        (
            "mapping".into(),
            Json::Arr(mapping.iter().map(|&n| Json::from(n as u64)).collect()),
        ),
    ])
    .to_string()
}

/// Runs one full pipe session against the real binary and returns stdout.
fn run_session(instance: &Path, input: &str) -> String {
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--instance",
            &instance.display().to_string(),
            "--epoch",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tvnep-cli serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stream");
    let out = child.wait_with_output().expect("serve session");
    assert!(out.status.success(), "serve exited with {}", out.status);
    String::from_utf8(out.stdout).expect("utf8 transcript")
}

#[test]
fn pipe_session_decides_verifies_and_replays_byte_identical() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tvnep-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let instance = dir.join("substrate.json");
    write_instance(&instance);

    let stream = stream();
    let mut input = String::new();
    for (doc, mapping) in &stream {
        input.push_str(&submit_line(doc, mapping));
        input.push('\n');
    }
    input.push_str("{\"op\":\"dump\"}\n");

    let transcript = run_session(&instance, &input);
    let events: Vec<Json> = transcript
        .lines()
        .map(|l| Json::parse(l).expect("server emits valid JSON"))
        .collect();

    // Protocol frame: hello first, bye last, one decision per submission.
    let kind = |e: &Json| e.get("event").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(kind(&events[0]), "hello");
    assert_eq!(kind(events.last().unwrap()), "bye");
    let decisions: Vec<&Json> = events.iter().filter(|e| kind(e) == "decision").collect();
    assert_eq!(decisions.len(), stream.len(), "{transcript}");
    let accepted = decisions
        .iter()
        .filter(|d| d.get("accepted").and_then(Json::as_bool) == Some(true))
        .count();
    assert!(accepted >= 1, "stream too hard: nothing accepted");
    assert!(
        accepted < stream.len(),
        "stream too easy: contention never rejected anything"
    );

    // Independent audit: rebuild the submitted instance and the decided
    // schedules, then run the Definition-2.1 verifier over them.
    let mut scheduled = vec![None; stream.len()];
    for d in &decisions {
        let id = d.get("id").and_then(Json::as_u64).expect("decision id") as usize;
        let ok = d.get("accepted").and_then(Json::as_bool).unwrap();
        scheduled[id] = Some(ScheduledRequest {
            accepted: ok,
            start: d.get("start").and_then(Json::as_f64).unwrap(),
            end: d.get("end").and_then(Json::as_f64).unwrap(),
            embedding: embedding_from_json(d).expect("well-formed embedding"),
        });
    }
    let requests = stream
        .iter()
        .map(|(doc, _)| doc.to_request().expect("valid stream"))
        .collect();
    let maps = stream
        .iter()
        .map(|(_, m)| m.iter().map(|&n| NodeId(n)).collect())
        .collect();
    let audit = Instance::new(substrate(), requests, HORIZON, Some(maps));
    let solution = TemporalSolution {
        scheduled: scheduled.into_iter().map(Option::unwrap).collect(),
        reported_objective: None,
    };
    let violations = verify_with_tol(&audit, &solution, VERIFY_TOL);
    assert!(violations.is_empty(), "{violations:?}");

    // The whole transcript — acks, decisions, epochs, dump, bye — is a pure
    // function of the input stream: a rerun must be byte-identical.
    let rerun = run_session(&instance, &input);
    assert_eq!(transcript, rerun, "serve session is not deterministic");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL belongs to one service: a second `load --wal` on a WAL that holds
/// records is refused, naming it, and leaves it byte for byte as the first
/// run wrote it, which `serve --wal` then recovers in full.
#[test]
fn a_second_load_on_a_wal_is_refused_and_the_first_recovers() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tvnep-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("load.wal");
    let wal_arg = wal.display().to_string();
    let load = || {
        Command::new(bin())
            .args(["load", "--seed", "7", "--wal", &wal_arg, "-o"])
            .arg(dir.join("slo.json"))
            .output()
            .expect("spawn tvnep-cli load")
    };
    assert!(load().status.success());
    let first = std::fs::read(&wal).unwrap();

    let again = load();
    let err = String::from_utf8_lossy(&again.stderr);
    assert!(!again.status.success(), "{err}");
    assert!(err.contains(&wal_arg), "the refusal names the WAL: {err}");
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        first,
        "the WAL is left as it was"
    );

    let mut child = Command::new(bin())
        .args(["serve", "--wal", &wal_arg])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tvnep-cli serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    writeln!(stdin, "{{\"op\":\"shutdown\"}}").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve session");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("53 decision(s) replayed"), "{err}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let bye = Json::parse(stdout.lines().last().expect("a bye event")).unwrap();
    assert_eq!(bye.get("decided").and_then(Json::as_u64), Some(53));
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        first,
        "recovery wrote nothing"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
