//! End-to-end crash diagnostics: drive the real binary into a deliberate
//! mid-epoch panic with the fault injector, require a parseable black-box
//! dump on disk, render it with `postmortem` (exit 0), and pin the
//! deterministic raw projection byte-identical across reruns.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use tvnep_graph::grid;
use tvnep_harness::format::{InstanceDoc, RequestDoc};
use tvnep_model::{Instance, Substrate};
use tvnep_telemetry::Json;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tvnep-cli")
}

fn write_instance(path: &Path) {
    let inst = Instance::new(
        Substrate::uniform(grid(2, 2), 3.5, 5.0),
        Vec::new(),
        20.0,
        None,
    );
    std::fs::write(path, InstanceDoc::from_instance(&inst).to_json().pretty())
        .expect("write instance");
}

fn submit_line(i: usize) -> String {
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
    let mapping = [i % 4, (i + 1) % 4, (i + 2) % 4];
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

/// Runs a pipe session that trips the epoch-1 fault injector; returns the
/// parsed dump. The server must die (panic exit), not shut down cleanly.
fn crash_session(dir: &Path, tag: &str) -> Json {
    let instance = dir.join(format!("substrate-{tag}.json"));
    write_instance(&instance);
    let dump_path = dir.join(format!("crash-{tag}.json"));
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--instance",
            &instance.display().to_string(),
            "--epoch",
            "2",
            "--fault-panic-epoch",
            "1",
            "--blackbox-out",
            &dump_path.display().to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tvnep-cli serve");
    let mut input = String::new();
    for i in 0..4 {
        input.push_str(&submit_line(i));
        input.push('\n');
    }
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stream");
    let out = child.wait_with_output().expect("serve session");
    assert!(
        !out.status.success(),
        "fault-injected server exited cleanly: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let raw = std::fs::read_to_string(&dump_path).expect("panic hook wrote the dump");
    Json::parse(&raw).expect("dump is valid JSON")
}

fn postmortem(dump: &Path, raw: bool) -> (bool, String) {
    let mut args = vec!["postmortem".to_string(), dump.display().to_string()];
    if raw {
        args.push("--raw".into());
    }
    let out = Command::new(bin())
        .args(&args)
        .output()
        .expect("run postmortem");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf8 narrative"),
    )
}

#[test]
fn injected_panic_leaves_a_dump_postmortem_can_narrate() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tvnep-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let dump = crash_session(&dir, "a");
    let sget = |k: &str| dump.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    assert_eq!(sget("schema"), "tvnep.blackbox.v1");
    assert_eq!(sget("trigger"), "panic");
    assert_eq!(sget("verdict"), "Panicked");
    assert!(
        sget("reason").contains("fault injection"),
        "reason: {}",
        sget("reason")
    );
    let workers = dump.get("workers").and_then(Json::as_array).unwrap();
    assert!(!workers.is_empty(), "dump carries no rings");
    let recorded: u64 = workers
        .iter()
        .filter_map(|w| w.get("recorded").and_then(Json::as_u64))
        .sum();
    assert!(recorded > 0, "no events recorded before the crash");

    // The narrative renderer accepts the dump and tells the panic story.
    let dump_path = dir.join("crash-a.json");
    let (ok, narrative) = postmortem(&dump_path, false);
    assert!(ok, "postmortem exited non-zero");
    assert!(narrative.contains("Panicked"), "{narrative}");
    assert!(narrative.contains("fault injection"), "{narrative}");

    // The deterministic raw projection is byte-identical across reruns:
    // the submission stream, the decisions, and the crash point are all
    // pure functions of the input at one worker thread.
    let _second = crash_session(&dir, "b");
    let (ok_a, raw_a) = postmortem(&dir.join("crash-a.json"), true);
    let (ok_b, raw_b) = postmortem(&dir.join("crash-b.json"), true);
    assert!(ok_a && ok_b);
    assert!(raw_a.contains("tvnep.blackbox.raw.v1"), "{raw_a}");
    assert_eq!(raw_a, raw_b, "raw projections diverged across reruns");
}

#[test]
fn clean_solve_writes_a_dump_with_final_state() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tvnep-blackbox-solve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let instance = dir.join("instance.json");
    let gen = Command::new(bin())
        .args([
            "generate",
            "--preset",
            "tiny",
            "--seed",
            "1",
            "--flex",
            "1.0",
            "-o",
            &instance.display().to_string(),
        ])
        .output()
        .expect("generate instance");
    assert!(gen.status.success());
    let dump_path = dir.join("clean.json");
    let solution = dir.join("solution.json");
    let solve = Command::new(bin())
        .args([
            "solve",
            &instance.display().to_string(),
            "--blackbox-out",
            &dump_path.display().to_string(),
            "-o",
            &solution.display().to_string(),
        ])
        .output()
        .expect("run solve");
    assert!(solve.status.success());
    let dump = Json::parse(&std::fs::read_to_string(&dump_path).unwrap()).unwrap();
    assert_eq!(
        dump.get("verdict").and_then(Json::as_str),
        Some("Clean"),
        "clean solve must dump a Clean verdict"
    );
    // The dump's final registers agree with the solution the CLI wrote.
    let sol = Json::parse(&std::fs::read_to_string(&solution).unwrap()).unwrap();
    let sol_obj = sol
        .get("objective")
        .and_then(Json::as_f64)
        .expect("solution has an objective");
    let incumbent = dump
        .get("incumbent")
        .and_then(Json::as_f64)
        .expect("dump has an incumbent");
    assert!(
        (incumbent - sol_obj).abs() <= 1e-9 * (1.0 + sol_obj.abs()),
        "incumbent {incumbent} vs solution objective {sol_obj}"
    );
    let (ok, narrative) = postmortem(&dump_path, false);
    assert!(ok);
    assert!(narrative.contains("Clean"), "{narrative}");
}
