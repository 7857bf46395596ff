//! End-to-end introspection artifacts: `solve --chrome-trace --tree-out`
//! must produce a Perfetto-loadable trace-event document and a DOT tree
//! whose node count equals the `mip.nodes` metric, and `explain` must render
//! a narrative for the same run. Drives the real binary, as CI does.

use std::path::PathBuf;
use std::process::Command;

use tvnep_telemetry::Json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tvnep-cli"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tvnep-introspection-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) {
    let out = cmd.output().expect("spawn tvnep-cli");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Checks the Chrome trace-event document: `traceEvents` array, complete
/// events with monotone `ts` and non-negative `dur`, and a `thread_name`
/// metadata record for every tid used by an event.
fn check_chrome_trace(path: &PathBuf) {
    let text = std::fs::read_to_string(path).unwrap();
    let doc = Json::parse(&text).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());
    let mut named_tids = Vec::new();
    let mut used_tids = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut complete = 0usize;
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        let tid = e.get("tid").unwrap().as_u64().unwrap();
        match ph {
            "M" => {
                assert_eq!(e.get("name").unwrap().as_str(), Some("thread_name"));
                named_tids.push(tid);
            }
            "X" => {
                complete += 1;
                used_tids.push(tid);
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                let dur = e.get("dur").unwrap().as_f64().unwrap();
                assert!(ts >= last_ts, "events sorted by start timestamp");
                assert!(dur >= 0.0);
                last_ts = ts;
                assert!(e.get("name").unwrap().as_str().is_some());
                assert_eq!(e.get("pid").unwrap().as_u64(), Some(1));
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(complete > 0, "at least one complete event");
    for tid in used_tids {
        assert!(
            named_tids.contains(&tid),
            "tid {tid} has a thread_name metadata record"
        );
    }
}

#[test]
fn solve_produces_valid_trace_tree_and_explanation() {
    let dir = workdir("solve");
    let inst = dir.join("inst.json");
    let sol = dir.join("sol.json");
    let trace = dir.join("trace.json");
    let tree_dot = dir.join("tree.dot");
    let tree_json = dir.join("tree.json");
    let metrics = dir.join("metrics.json");

    // 3-request grid instance (tiny preset: 2×2 grid, 3 star requests).
    run_ok(bin().args([
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "1",
        "--flex",
        "1.0",
        "-o",
        inst.to_str().unwrap(),
    ]));
    run_ok(bin().args([
        "solve",
        inst.to_str().unwrap(),
        "--time-limit",
        "120",
        "--chrome-trace",
        trace.to_str().unwrap(),
        "--tree-out",
        tree_dot.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "-o",
        sol.to_str().unwrap(),
    ]));

    check_chrome_trace(&trace);

    // DOT node count equals the mip.nodes metric of the same run.
    let mdoc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let mip_nodes = mdoc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("mip.nodes"))
        .and_then(Json::as_u64)
        .expect("mip.nodes counter");
    let dot = std::fs::read_to_string(&tree_dot).unwrap();
    assert!(dot.starts_with("digraph"));
    assert_eq!(dot.matches("[label=\"#").count() as u64, mip_nodes);

    // The metrics document embeds the explanation.
    let explain = mdoc.get("explain").expect("explain section");
    let reqs = explain.get("requests").unwrap().as_array().unwrap();
    assert_eq!(reqs.len(), 3);

    // A .json tree-out round-trips through the in-repo parser with the same
    // node count.
    run_ok(bin().args([
        "solve",
        inst.to_str().unwrap(),
        "--time-limit",
        "120",
        "--tree-out",
        tree_json.to_str().unwrap(),
        "-o",
        sol.to_str().unwrap(),
    ]));
    let tdoc = Json::parse(&std::fs::read_to_string(&tree_json).unwrap()).unwrap();
    assert!(!tdoc.get("nodes").unwrap().as_array().unwrap().is_empty());

    // `explain` renders a narrative for every request of the solved instance.
    let out = bin()
        .args(["explain", inst.to_str().unwrap(), sol.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // One header line per request. Narratives may mention other requests
    // ("start at the end of request 'R1'"), so count headers, not mentions.
    assert_eq!(
        text.lines().filter(|l| l.starts_with("request ")).count(),
        3
    );
    assert!(text.contains("ACCEPTED") || text.contains("REJECTED"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn greedy_chrome_trace_includes_iteration_spans() {
    let dir = workdir("greedy");
    let inst = dir.join("inst.json");
    let trace = dir.join("trace.json");
    run_ok(bin().args([
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "2",
        "--flex",
        "1.0",
        "-o",
        inst.to_str().unwrap(),
    ]));
    run_ok(bin().args([
        "greedy",
        inst.to_str().unwrap(),
        "--time-limit",
        "60",
        "--chrome-trace",
        trace.to_str().unwrap(),
        "-o",
        dir.join("sol.json").to_str().unwrap(),
    ]));
    check_chrome_trace(&trace);
    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let iter_spans = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("greedy.iteration"))
        .count();
    assert_eq!(iter_spans, 3, "one span per greedy iteration");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace` prints the spans, one line each, at every thread count: at two
/// threads `mip.solve` sits on the calling thread (`tid=0`) and the LP solves
/// on the workers' tids. The metrics document never carries a `timeline`.
#[test]
fn trace_prints_worker_spans_at_two_threads() {
    let dir = workdir("trace");
    let inst = dir.join("inst.json");
    let metrics = dir.join("m.json");
    run_ok(bin().args([
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "7",
        "--flex",
        "1.0",
        "-o",
        inst.to_str().unwrap(),
    ]));
    let out = bin()
        .args([
            "solve",
            inst.to_str().unwrap(),
            "--threads",
            "2",
            "--trace",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "-o",
            dir.join("sol.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn tvnep-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "solve failed\nstderr: {stderr}");

    // `[start +dur] tid=N name k=v ...`
    let spans: Vec<(u32, &str)> = stderr
        .lines()
        .filter(|l| l.starts_with('['))
        .map(|l| {
            let (_, rest) = l.split_once("] tid=").expect("span line shape");
            let mut words = rest.split(' ');
            let tid = words.next().unwrap().parse().expect("numeric tid");
            (tid, words.next().expect("span name"))
        })
        .collect();
    assert!(
        spans.contains(&(0, "mip.solve")),
        "no tid=0 mip.solve line in\n{stderr}"
    );
    // A worker's LPs are dual solves (`lp.solve_warm`); a primal fallback
    // would print as `lp.solve`. Either is a worker's LP span.
    assert!(
        spans
            .iter()
            .any(|&(tid, name)| tid >= 1 && matches!(name, "lp.solve" | "lp.solve_warm")),
        "no worker LP solve line in\n{stderr}"
    );

    let mdoc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert!(mdoc.get("metrics").is_some());
    assert!(mdoc.get("timeline").is_none());
    std::fs::remove_dir_all(&dir).ok();
}
