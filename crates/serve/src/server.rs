//! The service event loop: line-delimited JSON over stdin/stdout (pipe
//! mode, fully deterministic and what the integration tests drive) or a TCP
//! listener whose read timeout doubles as the epoch tick.
//!
//! Both modes share [`serve_connection`]: read an op per line, queue
//! submissions, close epochs when the configured batch size fills, on an
//! explicit `tick`, or — TCP only — when the tick interval elapses with
//! pending work. Every decision hits the WAL before its line is written to
//! the client (write-ahead ordering), so a crash at any instant loses at
//! most submissions that were never acknowledged.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::TcpListener;
use std::time::Duration;

use crate::protocol::{self, Op};
use crate::EpochRunner;
use tvnep_telemetry::Json;

/// Why [`serve_connection`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disconnect {
    /// Input ended; the server can accept another connection.
    Eof,
    /// The client asked the whole server to stop.
    Shutdown,
}

fn emit(out: &mut (impl Write + ?Sized), line: &str) -> io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

fn emit_json(out: &mut impl Write, event: &Json) -> io::Result<()> {
    emit(out, &event.to_string())
}

/// Serves an HTTP-ish `GET` on the protocol port: `/metrics` answers with
/// the Prometheus text exposition, anything else with a 404. One response
/// per connection (`Connection: close`), which is all a scraper needs.
fn serve_http_get(
    runner: &EpochRunner,
    request_line: &str,
    out: &mut impl Write,
) -> io::Result<()> {
    let path = request_line
        .split_whitespace()
        .nth(1)
        .unwrap_or("/")
        .to_string();
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        ("200 OK", runner.prometheus_text())
    } else {
        ("404 Not Found", String::from("only /metrics is served\n"))
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.write_all(head.as_bytes())?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// Runs the protocol over one connection until EOF or `shutdown`. A read
/// timeout (TCP mode) is treated as a tick: pending submissions are decided
/// and the loop keeps reading.
///
/// The `hello` greeting is deferred until the first input line so the same
/// port can answer HTTP-ish `GET /metrics` scrapes: a connection whose
/// first line is a `GET` request gets one HTTP response and is closed,
/// everything else gets the greeting followed by the JSON event protocol.
/// Output ordering for protocol clients is unchanged — `hello` still
/// precedes every other event.
pub fn serve_connection(
    runner: &mut EpochRunner,
    input: &mut impl BufRead,
    out: &mut impl Write,
) -> io::Result<Disconnect> {
    let mut greeted = false;
    let greet = |runner: &EpochRunner, out: &mut dyn Write, greeted: &mut bool| {
        if *greeted {
            return Ok(());
        }
        *greeted = true;
        emit(
            out,
            &protocol::hello_event(
                runner.core().substrate().num_nodes(),
                runner.core().substrate().num_edges(),
                runner.core().horizon(),
            )
            .to_string(),
        )
    };
    let mut line = String::new();
    loop {
        // SIGTERM (observed between reads, or on a TCP tick timeout): flush
        // what we can, persist a `Terminated` black-box dump, then re-raise
        // with the default disposition so the exit status stays honest. The
        // flag is only ever set when the CLI installed the handler.
        if tvnep_telemetry::blackbox::sigterm::pending() {
            if greeted {
                for l in runner.run_epoch()? {
                    emit(out, &l)?;
                }
                let s = runner.stats();
                emit_json(out, &protocol::bye_event(s.decided, s.accepted))?;
            }
            if let Some(rec) = tvnep_telemetry::blackbox::current() {
                let _ = rec.write_dump("sigterm", "Terminated", "SIGTERM received");
            }
            tvnep_telemetry::blackbox::sigterm::reraise_default();
            return Ok(Disconnect::Shutdown);
        }
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => {
                // EOF: decide whatever is still queued, then say goodbye.
                greet(runner, out, &mut greeted)?;
                for l in runner.run_epoch()? {
                    emit(out, &l)?;
                }
                let s = runner.stats();
                emit_json(out, &protocol::bye_event(s.decided, s.accepted))?;
                return Ok(Disconnect::Eof);
            }
            Ok(_) => {}
            // A socket read timeout is the epoch tick in TCP mode. Before
            // the client's first line nothing is emitted (the connection
            // could still turn out to be an HTTP scrape).
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if greeted {
                    for l in runner.run_epoch()? {
                        emit(out, &l)?;
                    }
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        if !greeted && line.starts_with("GET ") {
            serve_http_get(runner, line.trim(), out)?;
            return Ok(Disconnect::Eof);
        }
        greet(runner, out, &mut greeted)?;
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_op(line.trim()) {
            Err(e) => emit_json(out, &protocol::error_event(&e))?,
            Ok(Op::Submit { doc, mapping }) => match runner.submit(doc, mapping)? {
                Ok(id) => {
                    emit_json(out, &protocol::ack_event(id, runner.pending_len()))?;
                    if runner.epoch_due() {
                        for l in runner.run_epoch()? {
                            emit(out, &l)?;
                        }
                    }
                }
                Err(reason) => emit_json(out, &protocol::error_event(&reason))?,
            },
            Ok(Op::Tick) => {
                for l in runner.run_epoch()? {
                    emit(out, &l)?;
                }
            }
            Ok(Op::Dump) => emit_json(out, &runner.dump())?,
            Ok(Op::Metrics) => emit_json(out, &runner.metrics_event())?,
            Ok(Op::DumpBlackbox) => emit_json(out, &runner.blackbox_event())?,
            Ok(Op::Shutdown) => {
                for l in runner.run_epoch()? {
                    emit(out, &l)?;
                }
                let s = runner.stats();
                emit_json(out, &protocol::bye_event(s.decided, s.accepted))?;
                return Ok(Disconnect::Shutdown);
            }
        }
    }
}

/// Pipe mode: the protocol over stdin/stdout. Returns when stdin closes or
/// a `shutdown` op arrives.
pub fn run_pipe(runner: &mut EpochRunner) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = stdin.lock();
    let mut out = stdout.lock();
    serve_connection(runner, &mut input, &mut out).map(|_| ())
}

/// TCP mode: accepts one client at a time on `addr`; `tick` is both the
/// read timeout and the epoch cadence while a client is connected. Returns
/// when a client sends `shutdown`.
pub fn run_tcp(runner: &mut EpochRunner, addr: &str, tick: Duration) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("tvnep-serve: listening on {}", listener.local_addr()?);
    loop {
        let (stream, peer) = listener.accept()?;
        eprintln!("tvnep-serve: client {peer} connected");
        stream.set_read_timeout(Some(tick))?;
        let mut out = stream.try_clone()?;
        let mut input = BufReader::new(stream);
        match serve_connection(runner, &mut input, &mut out) {
            Ok(Disconnect::Shutdown) => return Ok(()),
            Ok(Disconnect::Eof) => continue,
            // A dropped client must not kill the service.
            Err(e)
                if e.kind() == ErrorKind::BrokenPipe || e.kind() == ErrorKind::ConnectionReset =>
            {
                eprintln!("tvnep-serve: client {peer} vanished: {e}");
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeOptions;
    use tvnep_graph::grid;
    use tvnep_harness::format::RequestDoc;
    use tvnep_model::Substrate;

    fn submit_line(name: &str, es: f64) -> String {
        let doc = RequestDoc {
            name: name.into(),
            num_nodes: 2,
            edges: vec![[0, 1]],
            node_demands: vec![1.0, 0.0],
            edge_demands: vec![0.1],
            earliest_start: es,
            latest_end: es + 8.0,
            duration: 2.0,
        };
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

    fn events(out: &[u8]) -> Vec<Json> {
        String::from_utf8_lossy(out)
            .lines()
            .map(|l| Json::parse(l).expect("server emits valid JSON"))
            .collect()
    }

    #[test]
    fn pipe_session_end_to_end() {
        let substrate = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let mut runner = EpochRunner::new(
            substrate,
            20.0,
            ServeOptions {
                epoch_size: 2,
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        let script = format!(
            "{}\n{}\nnot json\n{}\n{{\"op\":\"dump\"}}\n{{\"op\":\"metrics\"}}\n",
            submit_line("a", 0.0),
            submit_line("b", 0.5),
            submit_line("c", 1.0),
        );
        let mut input = io::Cursor::new(script.into_bytes());
        let mut out = Vec::new();
        let end = serve_connection(&mut runner, &mut input, &mut out).unwrap();
        assert_eq!(end, Disconnect::Eof);

        let evs = events(&out);
        let kinds: Vec<&str> = evs
            .iter()
            .map(|e| e.get("event").and_then(Json::as_str).unwrap())
            .collect();
        // hello, ack a, ack b, epoch of two decisions, error (bad line),
        // ack c, dump, metrics, then EOF flushes c and says bye.
        assert_eq!(
            kinds,
            vec![
                "hello", "ack", "ack", "decision", "decision", "epoch", "error", "ack", "dump",
                "metrics", "decision", "epoch", "bye"
            ]
        );
        let bye = evs.last().unwrap();
        assert_eq!(bye.get("decided").and_then(Json::as_u64), Some(3));
        // The mid-session dump shows the two decided reservations and the
        // still-pending third submission.
        let dump = evs
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("dump"))
            .unwrap();
        assert_eq!(dump.get("pending").and_then(Json::as_u64), Some(1));
        assert_eq!(
            dump.get("reservations")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn shutdown_op_flushes_and_stops() {
        let substrate = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let mut runner = EpochRunner::new(
            substrate,
            20.0,
            ServeOptions {
                epoch_size: 0, // manual ticks only
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        let script = format!(
            "{}\n{{\"op\":\"shutdown\"}}\nignored\n",
            submit_line("a", 0.0)
        );
        let mut input = io::Cursor::new(script.into_bytes());
        let mut out = Vec::new();
        let end = serve_connection(&mut runner, &mut input, &mut out).unwrap();
        assert_eq!(end, Disconnect::Shutdown);
        let evs = events(&out);
        let kinds: Vec<&str> = evs
            .iter()
            .map(|e| e.get("event").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(kinds, vec!["hello", "ack", "decision", "epoch", "bye"]);
    }

    #[test]
    fn metrics_verb_reports_funnel_and_latency() {
        let substrate = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let mut runner = EpochRunner::new(
            substrate,
            20.0,
            ServeOptions {
                epoch_size: 2,
                slo: Some(crate::SloDoc::default()),
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        let script = format!(
            "{}\n{}\n{{\"op\":\"metrics\"}}\n{{\"op\":\"shutdown\"}}\n",
            submit_line("a", 0.0),
            submit_line("b", 0.5),
        );
        let mut input = io::Cursor::new(script.into_bytes());
        let mut out = Vec::new();
        serve_connection(&mut runner, &mut input, &mut out).unwrap();
        let evs = events(&out);
        let m = evs
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("metrics"))
            .expect("metrics event emitted");
        let funnel = m.get("funnel").unwrap();
        assert_eq!(funnel.get("submitted").and_then(Json::as_u64), Some(2));
        assert_eq!(funnel.get("decided").and_then(Json::as_u64), Some(2));
        assert_eq!(funnel.get("accepted").and_then(Json::as_u64), Some(2));
        assert_eq!(funnel.get("rejected").and_then(Json::as_u64), Some(0));
        let lat = m.get("latency_ms").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(2));
        assert!(lat.get("p99").and_then(Json::as_f64).unwrap() >= 0.0);
        let window = m.get("window").unwrap();
        assert_eq!(
            window.get("acceptance_ratio").and_then(Json::as_f64),
            Some(1.0)
        );
        let slo = m.get("slo").expect("slo section when a doc is set");
        assert!(slo.get("acceptance_burn").and_then(Json::as_f64).unwrap() <= 0.0 + 1e-12);
        // Every number in the exposition parses back.
        let text = runner.prometheus_text();
        let samples = tvnep_telemetry::prom::parse(&text).unwrap();
        let decided = samples
            .iter()
            .find(|s| s.name == "serve_funnel_decided")
            .unwrap();
        assert_eq!(decided.value, 2.0);
        assert!(samples
            .iter()
            .any(|s| s.name == "serve_admit_latency_ms_count"));
    }

    #[test]
    fn http_get_scrape_answers_and_preserves_protocol() {
        let substrate = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let mut runner = EpochRunner::new(substrate, 20.0, ServeOptions::default(), None).unwrap();
        let mut input = io::Cursor::new(b"GET /metrics HTTP/1.0\r\n\r\n".to_vec());
        let mut out = Vec::new();
        let end = serve_connection(&mut runner, &mut input, &mut out).unwrap();
        assert_eq!(end, Disconnect::Eof);
        let response = String::from_utf8(out).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(tvnep_telemetry::prom::parse(body).unwrap().len() > 5);

        // An unknown path gets a 404, not a protocol greeting.
        let mut input = io::Cursor::new(b"GET /other HTTP/1.0\r\n".to_vec());
        let mut out = Vec::new();
        serve_connection(&mut runner, &mut input, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().starts_with("HTTP/1.0 404"));

        // A protocol session on the same runner still greets first.
        let mut input = io::Cursor::new(b"{\"op\":\"metrics\"}\n".to_vec());
        let mut out = Vec::new();
        serve_connection(&mut runner, &mut input, &mut out).unwrap();
        let evs = events(&out);
        assert_eq!(evs[0].get("event").and_then(Json::as_str), Some("hello"));
    }

    /// Regression for the "one session per server lifetime" gap: two
    /// back-to-back TCP sessions against one live server, each greeted and
    /// served, with state carried across the reconnect.
    #[test]
    fn tcp_serves_sequential_sessions() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let substrate = Substrate::uniform(grid(2, 2), 1.0, 5.0);
        let mut runner = EpochRunner::new(
            substrate,
            20.0,
            ServeOptions {
                epoch_size: 1,
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Inline run_tcp's accept loop against the pre-bound listener.
            loop {
                let (stream, _) = listener.accept().unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_millis(50)))
                    .unwrap();
                let mut out = stream.try_clone().unwrap();
                let mut input = BufReader::new(stream);
                match serve_connection(&mut runner, &mut input, &mut out) {
                    Ok(Disconnect::Shutdown) => return runner.stats().decided,
                    Ok(Disconnect::Eof) => continue,
                    Err(e) => panic!("server error: {e}"),
                }
            }
        });

        let session = |script: &str| -> Vec<Json> {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(script.as_bytes()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            BufReader::new(stream)
                .lines()
                .map(|l| Json::parse(&l.unwrap()).unwrap())
                .collect()
        };

        // Session 1 submits and disconnects.
        let evs1 = session(&format!("{}\n", submit_line("a", 0.0)));
        assert_eq!(evs1[0].get("event").and_then(Json::as_str), Some("hello"));
        assert!(evs1
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("decision")));

        // Session 2 connects after session 1 ended: greeted again, sees the
        // carried-over state, and shuts the server down.
        let evs2 = session(&format!(
            "{}\n{{\"op\":\"metrics\"}}\n{{\"op\":\"shutdown\"}}\n",
            submit_line("b", 1.0)
        ));
        assert_eq!(evs2[0].get("event").and_then(Json::as_str), Some("hello"));
        let m = evs2
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("metrics"))
            .expect("metrics over TCP");
        assert_eq!(
            m.get("funnel")
                .unwrap()
                .get("submitted")
                .and_then(Json::as_u64),
            Some(2),
            "state persists across sessions"
        );
        assert_eq!(server.join().unwrap(), 2);
    }
}
