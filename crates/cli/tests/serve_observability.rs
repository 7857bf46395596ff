//! End-to-end test of the PR-9 observability plane against the real binary
//! over TCP: a live server answers the `metrics` wire and a Prometheus-style
//! `GET /metrics` scrape during active load, survives back-to-back client
//! sessions, feeds the `top` subcommand, and every scraped utilization gauge
//! is recomputed here — verifier-style, from the decision transcript alone —
//! and must match bitwise (Definition 2.1 loads at event-interval midpoints).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use tvnep_graph::{grid, EdgeId, NodeId};
use tvnep_harness::format::{embedding_from_json, InstanceDoc, RequestDoc};
use tvnep_model::{Instance, Substrate};
use tvnep_telemetry::{exact_quantile, prom, Json};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tvnep-cli")
}

fn substrate() -> Substrate {
    Substrate::uniform(grid(2, 2), 3.5, 5.0)
}

const HORIZON: f64 = 40.0;

/// Contended deterministic stream: rigid-ish windows force rejections on
/// the 2×2 grid, while every end stays far beyond the water mark (max
/// earliest_start 0.8) so nothing is GC'd mid-test.
fn stream() -> Vec<(RequestDoc, Vec<usize>)> {
    (0..5)
        .map(|i| {
            let es = 0.2 * i as f64;
            let doc = RequestDoc {
                name: format!("o{i}"),
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

/// Spawns `serve --listen 127.0.0.1:0` and returns the child plus the
/// address parsed from the startup banner on stderr.
fn spawn_server(dir: &Path) -> (Child, String) {
    let instance = dir.join("substrate.json");
    let inst = Instance::new(substrate(), Vec::new(), HORIZON, None);
    std::fs::write(
        &instance,
        InstanceDoc::from_instance(&inst).to_json().pretty(),
    )
    .expect("write instance");
    let slo = dir.join("slo.json");
    std::fs::write(
        &slo,
        "{\"window_epochs\": 8, \"acceptance_ratio_min\": 0.4, \
         \"p99_ms_max\": 30000.0}",
    )
    .expect("write slo doc");

    let mut child = Command::new(bin())
        .args([
            "serve",
            "--instance",
            &instance.display().to_string(),
            "--listen",
            "127.0.0.1:0",
            "--tick-ms",
            "100",
            "--epoch",
            "2",
            "--slo",
            &slo.display().to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tvnep-cli serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut addr = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).expect("read banner") > 0 {
        if let Some(rest) = line.trim().strip_prefix("tvnep-serve: listening on ") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    // Keep draining stderr so the server never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    (child, addr.expect("server printed its listening address"))
}

/// One protocol session: writes `input`, closes the write side, returns all
/// emitted events (hello … bye).
fn session(addr: &str, input: &str) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input.as_bytes()).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| Json::parse(&l.expect("read event")).expect("valid JSON event"))
        .collect()
}

fn kind(e: &Json) -> &str {
    e.get("event").and_then(Json::as_str).unwrap_or("?")
}

/// Verifier-style recomputation of the utilization summary from the decision
/// transcript: same probe times, same open-interval activity test, same
/// summation order as the verifier — Definition 2.1 from scratch.
struct Recomputed {
    points: usize,
    node_max: f64,
    edge_max: f64,
    edge_p95: f64,
    node_peaks: Vec<f64>,
}

fn recompute_util(decisions: &[&Json], stream: &[(RequestDoc, Vec<usize>)]) -> Recomputed {
    struct Entry {
        start: f64,
        end: f64,
        node_load: Vec<f64>,
        edge_load: Vec<f64>,
    }
    let sub = substrate();
    let mut entries: Vec<Entry> = Vec::new();
    let mut sorted: Vec<&&Json> = decisions.iter().collect();
    sorted.sort_by_key(|d| d.get("id").and_then(Json::as_u64).expect("decision id"));
    for d in sorted {
        if d.get("accepted").and_then(Json::as_bool) != Some(true) {
            continue;
        }
        let id = d.get("id").and_then(Json::as_u64).unwrap() as usize;
        let request = stream[id].0.to_request().expect("valid stream");
        let emb = embedding_from_json(d)
            .expect("well-formed embedding")
            .expect("accepted decisions carry embeddings");
        entries.push(Entry {
            start: d.get("start").and_then(Json::as_f64).unwrap(),
            end: d.get("end").and_then(Json::as_f64).unwrap(),
            node_load: (0..sub.num_nodes())
                .map(|n| emb.node_allocation(&request, NodeId(n)))
                .collect(),
            edge_load: (0..sub.num_edges())
                .map(|e| emb.edge_allocation(&request, EdgeId(e)))
                .collect(),
        });
    }
    let mut times: Vec<f64> = entries.iter().flat_map(|e| [e.start, e.end]).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let node_caps = sub.node_capacities();
    let edge_caps = sub.edge_capacities();
    let mut node_max = 0.0f64;
    let mut edge_max = 0.0f64;
    let mut node_peaks = vec![0.0f64; node_caps.len()];
    let mut edge_peaks = vec![0.0f64; edge_caps.len()];
    let mut points = 0usize;
    for w in times.windows(2) {
        let t = 0.5 * (w[0] + w[1]);
        points += 1;
        for (n, &cap) in node_caps.iter().enumerate() {
            let load: f64 = entries
                .iter()
                .filter(|e| e.start < t && t < e.end)
                .map(|e| e.node_load[n])
                .sum();
            let u = if cap > 0.0 { load / cap } else { 0.0 };
            node_max = node_max.max(u);
            node_peaks[n] = node_peaks[n].max(u);
        }
        for (e, &cap) in edge_caps.iter().enumerate() {
            let load: f64 = entries
                .iter()
                .filter(|en| en.start < t && t < en.end)
                .map(|en| en.edge_load[e])
                .sum();
            let u = if cap > 0.0 { load / cap } else { 0.0 };
            edge_max = edge_max.max(u);
            edge_peaks[e] = edge_peaks[e].max(u);
        }
    }
    edge_peaks.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Recomputed {
        points,
        node_max,
        edge_max,
        edge_p95: exact_quantile(&edge_peaks, 0.95),
        node_peaks,
    }
}

#[test]
fn live_server_metrics_scrape_and_top() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tvnep-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut child, addr) = spawn_server(&dir);
    let stream = stream();

    // --- Session 1: active load, then a metrics snapshot mid-stream.
    let mut input = String::new();
    for (doc, mapping) in &stream[..3] {
        input.push_str(&submit_line(doc, mapping));
        input.push('\n');
    }
    input.push_str("{\"op\":\"metrics\"}\n");
    let evs1 = session(&addr, &input);
    assert_eq!(kind(&evs1[0]), "hello");
    assert_eq!(kind(evs1.last().unwrap()), "bye");
    let m1 = evs1
        .iter()
        .find(|e| kind(e) == "metrics")
        .expect("metrics answered during active load");
    let funnel = m1.get("funnel").unwrap();
    assert_eq!(funnel.get("submitted").and_then(Json::as_u64), Some(3));
    // Epoch size 2: two decided in-session, the third still queued when the
    // snapshot was taken (decided at EOF, before `bye`).
    assert_eq!(funnel.get("decided").and_then(Json::as_u64), Some(2));
    assert_eq!(funnel.get("queued").and_then(Json::as_u64), Some(1));
    assert!(m1.get("slo").is_some(), "SLO doc was configured");
    assert!(m1.get("util").is_some(), "util is always in the snapshot");

    // --- Session 2 (regression: the accept loop serves back-to-back
    // sessions): the rest of the stream, state carried over.
    let mut input = String::new();
    for (doc, mapping) in &stream[3..] {
        input.push_str(&submit_line(doc, mapping));
        input.push('\n');
    }
    let evs2 = session(&addr, &input);
    assert_eq!(kind(&evs2[0]), "hello", "second session greeted");

    // --- `top --frames 1 --raw`: one snapshot after all decisions landed.
    let top = Command::new(bin())
        .args(["top", &addr, "--frames", "1", "--raw"])
        .output()
        .expect("run top");
    assert!(top.status.success(), "top failed: {top:?}");
    let m = Json::parse(String::from_utf8(top.stdout).unwrap().trim())
        .expect("top --raw prints one metrics event");
    let funnel = m.get("funnel").unwrap();
    assert_eq!(funnel.get("submitted").and_then(Json::as_u64), Some(5));
    assert_eq!(funnel.get("decided").and_then(Json::as_u64), Some(5));
    let accepted = funnel.get("accepted").and_then(Json::as_u64).unwrap();
    assert!(accepted >= 1, "stream too hard");
    assert!(accepted < 5, "stream too easy: no contention");

    // --- The scraped utilization gauges equal the verifier-style
    // recomputation from the decision transcript, bitwise.
    let decisions: Vec<&Json> = evs1
        .iter()
        .chain(&evs2)
        .filter(|e| kind(e) == "decision")
        .collect();
    assert_eq!(decisions.len(), 5);
    let want = recompute_util(&decisions, &stream);
    let util = m.get("util").expect("util gauges present");
    let g = |k: &str| util.get(k).and_then(Json::as_f64).unwrap();
    assert_eq!(
        util.get("points").and_then(Json::as_u64),
        Some(want.points as u64)
    );
    assert_eq!(g("node_max"), want.node_max, "node_max must match bitwise");
    assert_eq!(g("edge_max"), want.edge_max, "edge_max must match bitwise");
    assert_eq!(g("edge_p95"), want.edge_p95, "edge_p95 must match bitwise");
    let peaks: Vec<f64> = util
        .get("node_peaks")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(peaks, want.node_peaks, "per-node peaks must match bitwise");

    // --- Raw HTTP scrape on the same port: parseable Prometheus text
    // carrying the same numbers.
    let mut sock = TcpStream::connect(&addr).expect("connect for scrape");
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("read scrape");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("header/body split");
    let samples = prom::parse(body).expect("exposition parses back");
    let sample = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .value
    };
    assert_eq!(sample("serve_funnel_decided"), 5.0);
    assert_eq!(sample("serve_funnel_accepted"), accepted as f64);
    assert_eq!(sample("serve_util_node_max"), want.node_max);
    assert_eq!(sample("serve_util_edge_p95"), want.edge_p95);
    assert_eq!(sample("serve_admit_latency_ms_count"), 5.0);

    // --- Shutdown via the protocol; the server must exit cleanly.
    let evs = session(&addr, "{\"op\":\"shutdown\"}\n");
    assert!(evs.iter().any(|e| kind(e) == "bye"));
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
