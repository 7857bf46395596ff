//! Crash-recovery test for `tvnep-cli serve`: SIGKILL the service mid-run
//! with undecided submissions in flight, corrupt the WAL tail (as a torn
//! write would), restart from the WAL alone (no instance file), finish the
//! stream, and require the WAL's decision record — and a final state dump —
//! to be byte-identical to an uninterrupted reference run.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

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

/// Same contended fixed stream as the end-to-end serve test.
fn submit_lines() -> Vec<String> {
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
            let mapping: Vec<usize> = vec![i % 4, (i + 1) % 4, (i + 2) % 4];
            Json::Obj(vec![
                ("op".into(), Json::from("submit")),
                ("request".into(), doc.to_json()),
                (
                    "mapping".into(),
                    Json::Arr(mapping.iter().map(|&n| Json::from(n as u64)).collect()),
                ),
            ])
            .to_string()
        })
        .collect()
}

fn spawn_serve(instance: Option<&Path>, wal: &Path) -> (Child, ChildStdin) {
    let mut args: Vec<String> = vec!["serve".into()];
    if let Some(p) = instance {
        args.push("--instance".into());
        args.push(p.display().to_string());
    }
    args.extend([
        "--wal".into(),
        wal.display().to_string(),
        "--epoch".into(),
        "2".into(),
    ]);
    let mut child = Command::new(bin())
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tvnep-cli serve");
    let stdin = child.stdin.take().expect("stdin piped");
    (child, stdin)
}

fn wal_lines_with(path: &Path, marker: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|l| l.contains(marker))
        .map(str::to_string)
        .collect()
}

#[test]
fn sigkill_mid_run_recovers_to_byte_identical_decisions() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tvnep-serve-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let instance = dir.join("substrate.json");
    write_instance(&instance);
    let lines = submit_lines();

    // --- Reference: the whole stream in one uninterrupted session.
    let ref_wal = dir.join("ref.wal");
    let (child, mut stdin) = spawn_serve(Some(&instance), &ref_wal);
    for l in &lines {
        writeln!(stdin, "{l}").unwrap();
    }
    writeln!(stdin, "{{\"op\":\"dump\"}}").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("reference session");
    assert!(out.status.success());
    let ref_stdout = String::from_utf8(out.stdout).unwrap();
    let ref_dump = ref_stdout
        .lines()
        .find(|l| l.contains("\"event\":\"dump\""))
        .expect("reference dump")
        .to_string();
    let ref_decisions = wal_lines_with(&ref_wal, "\"event\":\"decision\"");
    assert_eq!(ref_decisions.len(), lines.len());

    // --- Crash run: submit 3 of 6 (one full epoch decided, one submission
    // pending), then SIGKILL without any shutdown path running.
    let wal = dir.join("crash.wal");
    let (mut child, mut stdin) = spawn_serve(Some(&instance), &wal);
    for l in &lines[..3] {
        writeln!(stdin, "{l}").unwrap();
    }
    stdin.flush().unwrap();
    for _ in 0..5000 {
        if wal_lines_with(&wal, "\"event\":\"decision\"").len() >= 2
            && wal_lines_with(&wal, "\"event\":\"submitted\"").len() >= 3
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL"); // no destructors, no flush
    let _ = child.wait();
    assert_eq!(
        wal_lines_with(&wal, "\"event\":\"decision\"").len(),
        2,
        "expected exactly the first epoch decided before the crash"
    );

    // Simulate a torn final write: a partial JSON line with no newline.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal)
            .expect("WAL must exist after kill");
        f.write_all(b"{\"event\":\"decision\", \"id\": 99, \"acce")
            .unwrap();
    }

    // --- Restart from the WAL alone: the header reconstructs the substrate,
    // replayed decisions rebuild the reservations, the undecided submission
    // is re-queued. Feed the rest of the stream and dump the final state.
    let (child, mut stdin) = spawn_serve(None, &wal);
    for l in &lines[3..] {
        writeln!(stdin, "{l}").unwrap();
    }
    writeln!(stdin, "{{\"op\":\"dump\"}}").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("recovered session");
    assert!(out.status.success());
    let rec_stdout = String::from_utf8(out.stdout).unwrap();
    let rec_dump = rec_stdout
        .lines()
        .find(|l| l.contains("\"event\":\"dump\""))
        .expect("recovered dump")
        .to_string();

    // The recovered service decided the remaining four submissions…
    assert_eq!(
        rec_stdout.matches("\"event\":\"decision\"").count(),
        lines.len() - 2
    );
    // …and the WAL's full decision record is byte-identical to the
    // uninterrupted run: same ids, same accept/reject, same schedules, same
    // embeddings — the torn tail and the crash left no trace.
    assert_eq!(
        wal_lines_with(&wal, "\"event\":\"decision\""),
        ref_decisions,
        "decision log diverged after crash recovery"
    );
    // The final reservation state matches too.
    assert_eq!(
        rec_dump, ref_dump,
        "state dump diverged after crash recovery"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
