//! Line-delimited JSON protocol of the embedding service.
//!
//! Every message is one JSON object per line. Client → server **ops**:
//!
//! | op         | fields                                | effect                      |
//! |------------|---------------------------------------|-----------------------------|
//! | `submit`   | `request` (RequestDoc), `mapping`     | queue for the next epoch    |
//! | `tick`     | —                                     | close the epoch now         |
//! | `stats`    | —                                     | wall-clock service counters |
//! | `dump`     | —                                     | reservation state snapshot  |
//! | `dump-blackbox` | —                                | flight-recorder dump        |
//! | `shutdown` | —                                     | final epoch, then exit      |
//!
//! Server → client **events**: `hello`, `ack`, `decision`, `epoch`,
//! `stats`, `dump`, `error`, `bye`. Decision events carry only
//! deterministic fields (no wall-clock times), which is what makes the
//! decision log byte-comparable across a crash/recovery boundary; timing
//! lives in `stats` and in the load generator's SLO report.
//!
//! Submissions are validated here — demand/edge shape, finite positive
//! duration, a window at least as long as the duration — so a malformed
//! client line becomes an `error` event instead of a panic inside the
//! domain constructors.

use tvnep_core::explain::{Explanation, RequestExplanation};
use tvnep_core::AdmitDecision;
use tvnep_graph::{DiGraph, EdgeId, NodeId};
use tvnep_harness::format::RequestDoc;
use tvnep_model::{Embedding, Request};
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
    /// Report wall-clock service counters.
    Stats,
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
            let doc = RequestDoc::from_json_value(rd)?;
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
        "stats" => Ok(Op::Stats),
        "dump" => Ok(Op::Dump),
        "metrics" => Ok(Op::Metrics),
        "dump-blackbox" => Ok(Op::DumpBlackbox),
        "shutdown" => Ok(Op::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Standalone `RequestDoc` JSON round-trip (the harness format only
/// serializes requests embedded in instance documents).
pub trait RequestDocExt: Sized {
    fn from_json_value(j: &Json) -> Result<Self, String>;
    fn to_json_value(&self) -> Json;
}

impl RequestDocExt for RequestDoc {
    fn from_json_value(j: &Json) -> Result<Self, String> {
        let arr_f64 = |key: &str| -> Result<Vec<f64>, String> {
            j.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("request field '{key}' must be an array"))?
                .iter()
                .map(|v| v.as_f64().ok_or(format!("'{key}': expected numbers")))
                .collect()
        };
        let edges = j
            .get("edges")
            .and_then(Json::as_array)
            .ok_or("request field 'edges' must be an array")?
            .iter()
            .map(|p| {
                let pair = p.as_array().filter(|a| a.len() == 2);
                let pair = pair.ok_or("'edges': expected [a, b] pairs")?;
                let a = pair[0]
                    .as_usize()
                    .ok_or("'edges': indices must be integers")?;
                let b = pair[1]
                    .as_usize()
                    .ok_or("'edges': indices must be integers")?;
                Ok([a, b])
            })
            .collect::<Result<Vec<_>, String>>()?;
        let num_f64 = |key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("request field '{key}' must be a number"))
        };
        Ok(RequestDoc {
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or("request field 'name' must be a string")?
                .to_string(),
            num_nodes: j
                .get("num_nodes")
                .and_then(Json::as_usize)
                .ok_or("request field 'num_nodes' must be a non-negative integer")?,
            edges,
            node_demands: arr_f64("node_demands")?,
            edge_demands: arr_f64("edge_demands")?,
            earliest_start: num_f64("earliest_start")?,
            latest_end: num_f64("latest_end")?,
            duration: num_f64("duration")?,
        })
    }

    fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("num_nodes".into(), Json::from(self.num_nodes)),
            (
                "edges".into(),
                Json::Arr(
                    self.edges
                        .iter()
                        .map(|&[a, b]| Json::Arr(vec![Json::from(a), Json::from(b)]))
                        .collect(),
                ),
            ),
            (
                "node_demands".into(),
                Json::Arr(self.node_demands.iter().map(|&v| Json::from(v)).collect()),
            ),
            (
                "edge_demands".into(),
                Json::Arr(self.edge_demands.iter().map(|&v| Json::from(v)).collect()),
            ),
            ("earliest_start".into(), Json::from(self.earliest_start)),
            ("latest_end".into(), Json::from(self.latest_end)),
            ("duration".into(), Json::from(self.duration)),
        ])
    }
}

/// Validates a submitted request document and builds the domain [`Request`]
/// — this is the boundary where client input stops being able to panic the
/// domain constructors.
pub fn request_from_doc(doc: &RequestDoc) -> Result<Request, String> {
    let mut g = DiGraph::with_nodes(doc.num_nodes);
    for &[a, b] in &doc.edges {
        if a >= doc.num_nodes || b >= doc.num_nodes {
            return Err(format!(
                "request '{}': edge [{a}, {b}] out of range",
                doc.name
            ));
        }
        if a == b {
            return Err(format!("request '{}': self-loop at node {a}", doc.name));
        }
        g.add_edge(NodeId(a), NodeId(b));
    }
    if doc.node_demands.len() != doc.num_nodes || doc.edge_demands.len() != doc.edges.len() {
        return Err(format!("request '{}': demand lengths mismatch", doc.name));
    }
    if doc
        .node_demands
        .iter()
        .chain(&doc.edge_demands)
        .any(|d| !d.is_finite() || *d < 0.0)
    {
        return Err(format!(
            "request '{}': demands must be finite and >= 0",
            doc.name
        ));
    }
    if !doc.duration.is_finite() || doc.duration <= 0.0 {
        return Err(format!("request '{}': duration must be positive", doc.name));
    }
    if !doc.earliest_start.is_finite() || doc.earliest_start < 0.0 {
        return Err(format!(
            "request '{}': earliest_start must be >= 0",
            doc.name
        ));
    }
    if !doc.latest_end.is_finite() || doc.latest_end < doc.earliest_start + doc.duration - 1e-9 {
        return Err(format!(
            "request '{}': window [{}, {}] shorter than duration {}",
            doc.name, doc.earliest_start, doc.latest_end, doc.duration
        ));
    }
    Ok(Request::new(
        doc.name.clone(),
        g,
        doc.node_demands.clone(),
        doc.edge_demands.clone(),
        doc.earliest_start,
        doc.latest_end,
        doc.duration,
    ))
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
/// quantities (`nodes` counts the admission's LP solves, one per tried
/// start, a pure function of the reservation state).
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
        fields.push((
            "node_map".into(),
            Json::Arr(emb.node_map.iter().map(|n| Json::from(n.0)).collect()),
        ));
        fields.push((
            "edge_flows".into(),
            Json::Arr(
                emb.edge_flows
                    .iter()
                    .map(|fl| {
                        Json::Arr(
                            fl.iter()
                                .map(|&(e, f)| Json::Arr(vec![Json::from(e.0), Json::from(f)]))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(ex) = &d.explain {
        fields.push(("explain".into(), explain_to_json(ex)));
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

/// Per-request explain narrative as JSON (delegates to the whole-solution
/// serializer over a singleton explanation).
pub fn explain_to_json(ex: &RequestExplanation) -> Json {
    let whole = Explanation {
        requests: vec![ex.clone()],
    };
    let j = whole.to_json();
    j.get("requests")
        .and_then(Json::as_array)
        .and_then(|a| a.first())
        .cloned()
        .unwrap_or(Json::Null)
}

/// Rebuilds the embedding recorded in a `decision` event (WAL replay).
pub fn embedding_from_decision(d: &Json) -> Result<Embedding, String> {
    let node_map = d
        .get("node_map")
        .and_then(Json::as_array)
        .ok_or("accepted decision without node_map")?
        .iter()
        .map(|n| n.as_usize().map(NodeId).ok_or("bad node_map entry"))
        .collect::<Result<Vec<_>, _>>()?;
    let edge_flows = d
        .get("edge_flows")
        .and_then(Json::as_array)
        .ok_or("accepted decision without edge_flows")?
        .iter()
        .map(|fl| {
            fl.as_array()
                .ok_or("edge_flows rows must be arrays")?
                .iter()
                .map(|term| {
                    let arr = term.as_array().filter(|a| a.len() == 2);
                    let arr = arr.ok_or("edge_flows terms must be [edge, frac]")?;
                    let e = arr[0].as_usize().ok_or("bad edge index")?;
                    let f = arr[1].as_f64().ok_or("bad flow fraction")?;
                    Ok((EdgeId(e), f))
                })
                .collect::<Result<Vec<_>, &'static str>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Embedding {
        node_map,
        edge_flows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ("request".into(), star_doc().to_json_value()),
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

        assert!(parse_op("{\"op\":\"warp\"}").is_err());
        assert!(parse_op("not json").is_err());
        assert!(parse_op("{\"op\":\"submit\"}").is_err());
    }

    #[test]
    fn simple_ops_parse() {
        assert!(matches!(parse_op("{\"op\":\"tick\"}").unwrap(), Op::Tick));
        assert!(matches!(parse_op("{\"op\":\"stats\"}").unwrap(), Op::Stats));
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
        let back = embedding_from_decision(&j).unwrap();
        assert_eq!(back.node_map, emb.node_map);
        assert_eq!(back.edge_flows, emb.edge_flows);
    }
}
