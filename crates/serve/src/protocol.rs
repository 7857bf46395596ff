//! Line-delimited JSON protocol of the embedding service.
//!
//! Every message is one JSON object per line. Client → server **ops**:
//!
//! | op              | fields                            | effect                         |
//! |-----------------|-----------------------------------|--------------------------------|
//! | `submit`        | `request` (RequestDoc), `mapping` | queue for the next epoch       |
//! | `tick`          | —                                 | close the epoch now            |
//! | `metrics`       | —                                 | funnel, latency, SLO snapshot  |
//! | `dump`          | —                                 | reservation state snapshot     |
//! | `dump-blackbox` | —                                 | flight-recorder dump           |
//! | `shutdown`      | —                                 | final epoch, then exit         |
//!
//! Server → client **events**: `hello`, `ack`, `decision`, `epoch`,
//! `metrics`, `dump`, `blackbox`, `error`, `bye`. Decision events carry
//! only deterministic fields (no wall-clock times), which is what makes the
//! decision log byte-comparable across a crash/recovery boundary; timing
//! lives in `metrics` and in the load generator's SLO report.
//!
//! A submission is decoded by the one request codec
//! ([`RequestDoc::from_json`]) and checked by the model's constructors
//! ([`RequestDoc::to_request`] → `Request::try_new`) and the admission
//! core's window and mapping checks, so a malformed client line becomes an
//! `error` event instead of a panic.

use tvnep_core::AdmitDecision;
use tvnep_harness::format::{embedding_to_json, RequestDoc};
use tvnep_model::Request;
use tvnep_telemetry::Json;

/// A parsed client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Queue a request (with its a-priori node mapping) for the next epoch.
    Submit {
        doc: RequestDoc,
        mapping: Vec<usize>,
    },
    /// Close the current admission epoch immediately.
    Tick,
    /// Report the deterministic reservation-state snapshot.
    Dump,
    /// Report the observability snapshot (funnel, latency percentiles,
    /// utilization, SLO burn) as a `metrics` event.
    Metrics,
    /// Emit (and, when a dump path is configured, persist) the black-box
    /// flight-recorder dump as a `blackbox` event.
    DumpBlackbox,
    /// Run a final epoch over the pending queue, then stop the server.
    Shutdown,
}

/// Parses one protocol line into an [`Op`].
pub fn parse_op(line: &str) -> Result<Op, String> {
    let j = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing 'op' field")?;
    match op {
        "submit" => {
            let rd = j.get("request").ok_or("submit without 'request'")?;
            let doc = RequestDoc::from_json(rd).map_err(|e| e.to_string())?;
            let mapping = j
                .get("mapping")
                .and_then(Json::as_array)
                .ok_or("submit without 'mapping' array")?
                .iter()
                .map(|n| n.as_usize().ok_or("mapping entries must be node indices"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Op::Submit { doc, mapping })
        }
        "tick" => Ok(Op::Tick),
        "dump" => Ok(Op::Dump),
        "metrics" => Ok(Op::Metrics),
        "dump-blackbox" => Ok(Op::DumpBlackbox),
        "shutdown" => Ok(Op::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Builds the domain [`Request`] a submitted document describes, or says
/// why it is invalid (a delegation to [`RequestDoc::to_request`]).
pub fn request_from_doc(doc: &RequestDoc) -> Result<Request, String> {
    doc.to_request().map_err(|e| e.0)
}

// ---------------------------------------------------------------------------
// Server → client events.

/// `hello` greeting: protocol version and substrate shape.
pub fn hello_event(substrate_nodes: usize, substrate_edges: usize, horizon: f64) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::from("hello")),
        ("proto".into(), Json::from(1u64)),
        ("substrate_nodes".into(), Json::from(substrate_nodes)),
        ("substrate_edges".into(), Json::from(substrate_edges)),
        ("horizon".into(), Json::from(horizon)),
    ])
}

/// `ack`: the submission is queued under `id`.
pub fn ack_event(id: u64, pending: usize) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::from("ack")),
        ("id".into(), Json::from(id)),
        ("pending".into(), Json::from(pending)),
    ])
}

/// `error`: the offending op was dropped, the connection stays up.
pub fn error_event(reason: &str) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::from("error")),
        ("reason".into(), Json::from(reason)),
    ])
}

/// `epoch` marker after a batch of decisions (not part of the WAL — epoch
/// boundaries legitimately differ across a crash/recovery).
pub fn epoch_event(epoch: u64, decided: usize) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::from("epoch")),
        ("epoch".into(), Json::from(epoch)),
        ("decided".into(), Json::from(decided)),
    ])
}

/// `bye`: emitted right before the server exits.
pub fn bye_event(decided: u64, accepted: u64) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::from("bye")),
        ("decided".into(), Json::from(decided)),
        ("accepted".into(), Json::from(accepted)),
    ])
}

/// A solver-made `decision` event. Deterministic fields only: no wall-clock
/// quantities (`nodes` counts the admission's LP solves, one per candidate
/// start that passes the node check, a pure function of the reservation
/// state).
pub fn decision_event(d: &AdmitDecision) -> Json {
    let mut fields = vec![
        ("event".into(), Json::from("decision")),
        ("id".into(), Json::from(d.id)),
        ("name".into(), Json::from(d.name.as_str())),
        ("accepted".into(), Json::from(d.accepted)),
        ("start".into(), Json::from(d.start)),
        ("end".into(), Json::from(d.end)),
        ("nodes".into(), Json::from(d.nodes)),
    ];
    if let Some(emb) = &d.embedding {
        fields.extend(embedding_to_json(emb));
    }
    if let Some(ex) = &d.explain {
        fields.push(("explain".into(), ex.to_json()));
    }
    Json::Obj(fields)
}

/// A `decision` event for a request rejected before the solver ran (stale
/// window, overload shedding). The `reason` field distinguishes these from
/// solver rejections, which carry an `explain` instead.
pub fn rejected_decision_event(
    id: u64,
    name: &str,
    earliest_start: f64,
    duration: f64,
    reason: &str,
) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::from("decision")),
        ("id".into(), Json::from(id)),
        ("name".into(), Json::from(name)),
        ("accepted".into(), Json::from(false)),
        ("start".into(), Json::from(earliest_start)),
        ("end".into(), Json::from(earliest_start + duration)),
        ("nodes".into(), Json::from(0u64)),
        ("reason".into(), Json::from(reason)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_graph::{EdgeId, NodeId};
    use tvnep_harness::format::embedding_from_json;
    use tvnep_model::Embedding;

    fn star_doc() -> RequestDoc {
        RequestDoc {
            name: "r".into(),
            num_nodes: 3,
            edges: vec![[0, 1], [0, 2]],
            node_demands: vec![1.0, 0.5, 0.5],
            edge_demands: vec![0.25, 0.25],
            earliest_start: 1.0,
            latest_end: 5.0,
            duration: 2.0,
        }
    }

    #[test]
    fn submit_roundtrip() {
        let line = Json::Obj(vec![
            ("op".into(), Json::from("submit")),
            ("request".into(), star_doc().to_json()),
            (
                "mapping".into(),
                Json::Arr(vec![Json::from(0u64), Json::from(1u64), Json::from(2u64)]),
            ),
        ])
        .to_string();
        match parse_op(&line).unwrap() {
            Op::Submit { doc, mapping } => {
                assert_eq!(doc.name, "r");
                assert_eq!(doc.edges, vec![[0, 1], [0, 2]]);
                assert_eq!(mapping, vec![0, 1, 2]);
                let req = request_from_doc(&doc).unwrap();
                assert_eq!(req.num_nodes(), 3);
                assert_eq!(req.duration, 2.0);
            }
            other => panic!("wrong op {other:?}"),
        }
    }

    #[test]
    fn malformed_submissions_are_errors_not_panics() {
        let mut short_window = star_doc();
        short_window.latest_end = 2.0; // window 1 < duration 2
        assert!(request_from_doc(&short_window).is_err());

        let mut bad_demands = star_doc();
        bad_demands.node_demands.pop();
        assert!(request_from_doc(&bad_demands).is_err());

        let mut negative = star_doc();
        negative.edge_demands[0] = -1.0;
        assert!(request_from_doc(&negative).is_err());

        let mut loopy = star_doc();
        loopy.edges[0] = [1, 1];
        assert!(request_from_doc(&loopy).is_err());

        let mut out_of_range = star_doc();
        out_of_range.edges[0] = [0, 7];
        assert!(request_from_doc(&out_of_range).is_err());

        // A window 5e-10 shorter than the duration: beyond the model's
        // 1e-12 tolerance, so an error rather than a panic at decision time.
        let mut barely_short = star_doc();
        barely_short.latest_end = barely_short.earliest_start + barely_short.duration - 5e-10;
        assert!(request_from_doc(&barely_short).is_err());

        assert!(parse_op("{\"op\":\"warp\"}").is_err());
        assert!(parse_op("{\"op\":\"stats\"}").is_err());
        assert!(parse_op("not json").is_err());
        assert!(parse_op("{\"op\":\"submit\"}").is_err());
    }

    #[test]
    fn simple_ops_parse() {
        assert!(matches!(parse_op("{\"op\":\"tick\"}").unwrap(), Op::Tick));
        assert!(matches!(
            parse_op("{\"op\":\"metrics\"}").unwrap(),
            Op::Metrics
        ));
        assert!(matches!(parse_op("{\"op\":\"dump\"}").unwrap(), Op::Dump));
        assert!(matches!(
            parse_op("{\"op\":\"dump-blackbox\"}").unwrap(),
            Op::DumpBlackbox
        ));
        assert!(matches!(
            parse_op("{\"op\":\"shutdown\"}").unwrap(),
            Op::Shutdown
        ));
    }

    #[test]
    fn embedding_roundtrips_through_decision_json() {
        let emb = Embedding {
            node_map: vec![NodeId(1), NodeId(0)],
            edge_flows: vec![vec![(EdgeId(0), 0.5), (EdgeId(2), 0.5)]],
        };
        let d = AdmitDecision {
            id: 3,
            name: "r".into(),
            accepted: true,
            start: 1.5,
            end: 3.5,
            embedding: Some(emb.clone()),
            explain: None,
            nodes: 12,
            runtime: std::time::Duration::from_millis(2),
        };
        let j = decision_event(&d);
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(3));
        let back = embedding_from_json(&j).unwrap().unwrap();
        assert_eq!(back.node_map, emb.node_map);
        assert_eq!(back.edge_flows, emb.edge_flows);
    }
}
