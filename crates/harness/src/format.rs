//! JSON interchange format for TVNEP instances and solutions.
//!
//! The one codec of every document the workspace reads: the core crates
//! stay serde-free, and instance documents are plain DTOs that convert
//! into the domain types only through the model's constructors, which say
//! why a document is invalid. The format mirrors the paper's tables:
//! substrate (Table I), requests with demands and temporal parameters
//! (Tables II and VI), optional pinned node mappings, and solutions per
//! Definition 2.1, whose embeddings have one writer and one reader
//! ([`embedding_to_json`], [`embedding_from_json`]). Serialization runs on
//! the self-contained [`Json`] value type from `tvnep-telemetry`.

use tvnep_graph::{DiGraph, EdgeId, NodeId};
use tvnep_model::{Embedding, Instance, Request, ScheduledRequest, Substrate, TemporalSolution};
use tvnep_telemetry::Json;

/// Top-level instance document.
#[derive(Debug, Clone)]
pub struct InstanceDoc {
    /// The physical network.
    pub substrate: SubstrateDoc,
    /// Time horizon `T`.
    pub horizon: f64,
    /// VNet requests.
    pub requests: Vec<RequestDoc>,
    /// Optional a-priori node mappings: `mappings[r][v]` = substrate node
    /// index hosting virtual node `v` of request `r`.
    pub fixed_node_mappings: Option<Vec<Vec<usize>>>,
}

/// Substrate network (Table I).
#[derive(Debug, Clone)]
pub struct SubstrateDoc {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Directed edges as `[from, to]` index pairs.
    pub edges: Vec<[usize; 2]>,
    /// Per-node capacities (`c_S` on nodes).
    pub node_capacities: Vec<f64>,
    /// Per-edge capacities (`c_S` on links), aligned with `edges`.
    pub edge_capacities: Vec<f64>,
}

/// One VNet request (Tables II + VI).
#[derive(Debug, Clone)]
pub struct RequestDoc {
    /// Identifier used in reports.
    pub name: String,
    /// Number of virtual nodes.
    pub num_nodes: usize,
    /// Virtual links as `[from, to]` pairs.
    pub edges: Vec<[usize; 2]>,
    /// Node demands `c_R(N_v)`.
    pub node_demands: Vec<f64>,
    /// Link demands `c_R(L_v)`, aligned with `edges`.
    pub edge_demands: Vec<f64>,
    /// Earliest start `t^s`.
    pub earliest_start: f64,
    /// Latest end `t^e`.
    pub latest_end: f64,
    /// Duration `d`.
    pub duration: f64,
}

/// Solution document (Definition 2.1 output).
#[derive(Debug, Clone)]
pub struct SolutionDoc {
    /// Objective value reported by the producing algorithm.
    pub objective: Option<f64>,
    /// Per-request schedule and embedding, aligned with the instance's
    /// requests; each embedding is written as `node_map` and `edge_flows`
    /// by [`embedding_to_json`].
    pub scheduled: Vec<ScheduledRequest>,
}

/// Errors produced by document validation.
#[derive(Debug)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "format error: {}", self.0)
    }
}

impl std::error::Error for FormatError {}

// ---------------------------------------------------------------------------
// Json extraction helpers.

fn want<'a>(j: &'a Json, key: &str) -> Result<&'a Json, FormatError> {
    j.get(key)
        .ok_or_else(|| FormatError(format!("missing field `{key}`")))
}

fn want_f64(j: &Json, key: &str) -> Result<f64, FormatError> {
    want(j, key)?
        .as_f64()
        .ok_or_else(|| FormatError(format!("field `{key}` must be a number")))
}

fn want_usize(j: &Json, key: &str) -> Result<usize, FormatError> {
    want(j, key)?
        .as_usize()
        .ok_or_else(|| FormatError(format!("field `{key}` must be a non-negative integer")))
}

fn want_bool(j: &Json, key: &str) -> Result<bool, FormatError> {
    want(j, key)?
        .as_bool()
        .ok_or_else(|| FormatError(format!("field `{key}` must be a boolean")))
}

fn want_str(j: &Json, key: &str) -> Result<String, FormatError> {
    Ok(want(j, key)?
        .as_str()
        .ok_or_else(|| FormatError(format!("field `{key}` must be a string")))?
        .to_string())
}

fn want_array<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], FormatError> {
    want(j, key)?
        .as_array()
        .ok_or_else(|| FormatError(format!("field `{key}` must be an array")))
}

fn f64_array(j: &Json, key: &str) -> Result<Vec<f64>, FormatError> {
    want_array(j, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| FormatError(format!("field `{key}`: expected numbers")))
        })
        .collect()
}

fn pair_array(j: &Json, key: &str) -> Result<Vec<[usize; 2]>, FormatError> {
    want_array(j, key)?
        .iter()
        .map(|v| {
            let arr = v
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| FormatError(format!("field `{key}`: expected [a, b] pairs")))?;
            let a = arr[0]
                .as_usize()
                .ok_or_else(|| FormatError(format!("field `{key}`: indices must be integers")))?;
            let b = arr[1]
                .as_usize()
                .ok_or_else(|| FormatError(format!("field `{key}`: indices must be integers")))?;
            Ok([a, b])
        })
        .collect()
}

fn pairs_to_json(pairs: &[[usize; 2]]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&[a, b]| Json::Arr(vec![Json::from(a), Json::from(b)]))
            .collect(),
    )
}

fn f64s_to_json(vals: &[f64]) -> Json {
    Json::Arr(vals.iter().map(|&v| Json::from(v)).collect())
}

/// Builds the graph a document describes. `num_nodes` is read from input,
/// so it is bounded by the number of per-node values the document holds
/// before anything is allocated for it.
fn build_graph(
    num_nodes: usize,
    per_node_values: usize,
    edges: &[[usize; 2]],
) -> Result<DiGraph, String> {
    if num_nodes > per_node_values {
        return Err(format!(
            "{num_nodes} nodes but only {per_node_values} per-node values"
        ));
    }
    let mut g = DiGraph::with_nodes(num_nodes);
    for &[a, b] in edges {
        if a >= num_nodes || b >= num_nodes {
            return Err(format!("edge [{a}, {b}] out of range"));
        }
        if a == b {
            return Err(format!("self-loop at node {a}"));
        }
        g.add_edge(NodeId(a), NodeId(b));
    }
    Ok(g)
}

impl RequestDoc {
    /// Serializes into a [`Json`] value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("num_nodes".into(), Json::from(self.num_nodes)),
            ("edges".into(), pairs_to_json(&self.edges)),
            ("node_demands".into(), f64s_to_json(&self.node_demands)),
            ("edge_demands".into(), f64s_to_json(&self.edge_demands)),
            ("earliest_start".into(), Json::from(self.earliest_start)),
            ("latest_end".into(), Json::from(self.latest_end)),
            ("duration".into(), Json::from(self.duration)),
        ])
    }

    /// Parses from a [`Json`] value.
    pub fn from_json(j: &Json) -> Result<Self, FormatError> {
        Ok(Self {
            name: want_str(j, "name")?,
            num_nodes: want_usize(j, "num_nodes")?,
            edges: pair_array(j, "edges")?,
            node_demands: f64_array(j, "node_demands")?,
            edge_demands: f64_array(j, "edge_demands")?,
            earliest_start: want_f64(j, "earliest_start")?,
            latest_end: want_f64(j, "latest_end")?,
            duration: want_f64(j, "duration")?,
        })
    }

    /// Builds the domain [`Request`]; an invalid document is an error that
    /// names the request ([`Request::try_new`] gives the reason).
    pub fn to_request(&self) -> Result<Request, FormatError> {
        let g = build_graph(self.num_nodes, self.node_demands.len(), &self.edges)
            .map_err(|e| FormatError(format!("request '{}': {e}", self.name)))?;
        Request::try_new(
            self.name.clone(),
            g,
            self.node_demands.clone(),
            self.edge_demands.clone(),
            self.earliest_start,
            self.latest_end,
            self.duration,
        )
        .map_err(FormatError)
    }

    /// Converts a domain [`Request`] into a document.
    pub fn from_request(r: &Request) -> Self {
        let g = r.graph();
        Self {
            name: r.name.clone(),
            num_nodes: r.num_nodes(),
            edges: g
                .edge_ids()
                .map(|e| {
                    let (a, b) = g.endpoints(e);
                    [a.0, b.0]
                })
                .collect(),
            node_demands: (0..r.num_nodes())
                .map(|v| r.node_demand(NodeId(v)))
                .collect(),
            edge_demands: (0..r.num_edges())
                .map(|l| r.edge_demand(EdgeId(l)))
                .collect(),
            earliest_start: r.earliest_start,
            latest_end: r.latest_end,
            duration: r.duration,
        }
    }
}

impl InstanceDoc {
    /// Serializes into a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let substrate = Json::Obj(vec![
            ("num_nodes".into(), Json::from(self.substrate.num_nodes)),
            ("edges".into(), pairs_to_json(&self.substrate.edges)),
            (
                "node_capacities".into(),
                f64s_to_json(&self.substrate.node_capacities),
            ),
            (
                "edge_capacities".into(),
                f64s_to_json(&self.substrate.edge_capacities),
            ),
        ]);
        let requests = Json::Arr(self.requests.iter().map(RequestDoc::to_json).collect());
        let mut fields = vec![
            ("substrate".into(), substrate),
            ("horizon".into(), Json::from(self.horizon)),
            ("requests".into(), requests),
        ];
        if let Some(maps) = &self.fixed_node_mappings {
            fields.push((
                "fixed_node_mappings".into(),
                Json::Arr(
                    maps.iter()
                        .map(|m| Json::Arr(m.iter().map(|&n| Json::from(n)).collect()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Parses from a [`Json`] value.
    pub fn from_json(j: &Json) -> Result<Self, FormatError> {
        let s = want(j, "substrate")?;
        let substrate = SubstrateDoc {
            num_nodes: want_usize(s, "num_nodes")?,
            edges: pair_array(s, "edges")?,
            node_capacities: f64_array(s, "node_capacities")?,
            edge_capacities: f64_array(s, "edge_capacities")?,
        };
        let requests = want_array(j, "requests")?
            .iter()
            .map(RequestDoc::from_json)
            .collect::<Result<Vec<_>, FormatError>>()?;
        let fixed_node_mappings = match j.get("fixed_node_mappings") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_array()
                    .ok_or_else(|| FormatError("fixed_node_mappings must be an array".into()))?
                    .iter()
                    .map(|m| {
                        m.as_array()
                            .ok_or_else(|| {
                                FormatError("fixed_node_mappings rows must be arrays".into())
                            })?
                            .iter()
                            .map(|n| {
                                n.as_usize().ok_or_else(|| {
                                    FormatError("mapping entries must be node indices".into())
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(Self {
            substrate,
            horizon: want_f64(j, "horizon")?,
            requests,
            fixed_node_mappings,
        })
    }

    /// Validates and converts into a domain [`Instance`]: the model's
    /// constructors ([`Substrate::try_new`], [`Request::try_new`],
    /// [`Instance::try_new`]) give the reason a document is invalid.
    pub fn into_instance(self) -> Result<Instance, FormatError> {
        let s = self.substrate;
        let graph = build_graph(s.num_nodes, s.node_capacities.len(), &s.edges)
            .map_err(|e| FormatError(format!("substrate: {e}")))?;
        let substrate =
            Substrate::try_new(graph, s.node_capacities, s.edge_capacities).map_err(FormatError)?;
        let requests = self
            .requests
            .iter()
            .map(RequestDoc::to_request)
            .collect::<Result<Vec<_>, _>>()?;
        let mappings = self.fixed_node_mappings.map(|maps| {
            maps.into_iter()
                .map(|m| m.into_iter().map(NodeId).collect())
                .collect()
        });
        Instance::try_new(substrate, requests, self.horizon, mappings).map_err(FormatError)
    }

    /// Converts a domain [`Instance`] into a document.
    pub fn from_instance(inst: &Instance) -> Self {
        let sg = inst.substrate.graph();
        Self {
            substrate: SubstrateDoc {
                num_nodes: sg.num_nodes(),
                edges: sg
                    .edge_ids()
                    .map(|e| {
                        let (a, b) = sg.endpoints(e);
                        [a.0, b.0]
                    })
                    .collect(),
                node_capacities: inst.substrate.node_capacities().to_vec(),
                edge_capacities: inst.substrate.edge_capacities().to_vec(),
            },
            horizon: inst.horizon,
            requests: inst.requests.iter().map(RequestDoc::from_request).collect(),
            fixed_node_mappings: inst.fixed_node_mappings.as_ref().map(|maps| {
                maps.iter()
                    .map(|m| m.iter().map(|n| n.0).collect())
                    .collect()
            }),
        }
    }
}

/// The JSON fields of an embedding, `node_map` then `edge_flows`: the one
/// writer of both, for solution documents and the service's decision
/// events alike.
pub fn embedding_to_json(emb: &Embedding) -> [(String, Json); 2] {
    let flows = |fl: &Vec<(EdgeId, f64)>| {
        Json::Arr(
            fl.iter()
                .map(|&(e, f)| Json::Arr(vec![Json::from(e.0), Json::from(f)]))
                .collect(),
        )
    };
    [
        (
            "node_map".into(),
            Json::Arr(emb.node_map.iter().map(|n| Json::from(n.0)).collect()),
        ),
        (
            "edge_flows".into(),
            Json::Arr(emb.edge_flows.iter().map(flows).collect()),
        ),
    ]
}

/// Reads the embedding in an object's `node_map` and `edge_flows` fields
/// (the inverse of [`embedding_to_json`]): `None` when both are absent, an
/// error when only one is present or either is malformed.
pub fn embedding_from_json(j: &Json) -> Result<Option<Embedding>, FormatError> {
    let field = |key: &str| j.get(key).filter(|v| !matches!(v, Json::Null));
    let (nm, ef) = match (field("node_map"), field("edge_flows")) {
        (None, None) => return Ok(None),
        (Some(nm), Some(ef)) => (nm, ef),
        _ => {
            return Err(FormatError(
                "node_map and edge_flows must be both present or both absent".into(),
            ))
        }
    };
    let bad = |what: &str| FormatError(what.into());
    let node_map = nm
        .as_array()
        .ok_or_else(|| bad("node_map must be an array"))?
        .iter()
        .map(|n| {
            n.as_usize()
                .map(NodeId)
                .ok_or_else(|| bad("node_map entries must be indices"))
        })
        .collect::<Result<_, _>>()?;
    let edge_flows = ef
        .as_array()
        .ok_or_else(|| bad("edge_flows must be an array"))?
        .iter()
        .map(|fl| {
            fl.as_array()
                .ok_or_else(|| bad("edge_flows rows must be arrays"))?
                .iter()
                .map(|term| {
                    let arr = term.as_array().filter(|a| a.len() == 2);
                    let arr = arr.ok_or_else(|| bad("edge_flows terms must be [edge, frac]"))?;
                    let e = arr[0]
                        .as_usize()
                        .ok_or_else(|| bad("edge index must be an integer"))?;
                    let f = arr[1]
                        .as_f64()
                        .ok_or_else(|| bad("flow fraction must be a number"))?;
                    Ok((EdgeId(e), f))
                })
                .collect::<Result<Vec<_>, FormatError>>()
        })
        .collect::<Result<_, _>>()?;
    Ok(Some(Embedding {
        node_map,
        edge_flows,
    }))
}

impl SolutionDoc {
    /// Serializes into a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let scheduled = Json::Arr(
            self.scheduled
                .iter()
                .map(|s| {
                    let mut fields = vec![
                        ("accepted".into(), Json::from(s.accepted)),
                        ("start".into(), Json::from(s.start)),
                        ("end".into(), Json::from(s.end)),
                    ];
                    if let Some(emb) = &s.embedding {
                        fields.extend(embedding_to_json(emb));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        );
        let mut fields = Vec::new();
        if let Some(obj) = self.objective {
            fields.push(("objective".into(), Json::from(obj)));
        }
        fields.push(("scheduled".into(), scheduled));
        Json::Obj(fields)
    }

    /// Parses from a [`Json`] value.
    pub fn from_json(j: &Json) -> Result<Self, FormatError> {
        let scheduled = want_array(j, "scheduled")?
            .iter()
            .map(|s| {
                Ok(ScheduledRequest {
                    accepted: want_bool(s, "accepted")?,
                    start: want_f64(s, "start")?,
                    end: want_f64(s, "end")?,
                    embedding: embedding_from_json(s)?,
                })
            })
            .collect::<Result<Vec<_>, FormatError>>()?;
        let objective = match j.get("objective") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| FormatError("objective must be a number".into()))?,
            ),
        };
        Ok(Self {
            objective,
            scheduled,
        })
    }

    /// Converts a domain solution into a document.
    pub fn from_solution(sol: &TemporalSolution) -> Self {
        Self {
            objective: sol.reported_objective,
            scheduled: sol.scheduled.clone(),
        }
    }

    /// Converts into a domain [`TemporalSolution`]. Whether it fits an
    /// instance is the verifier's question.
    pub fn into_solution(self) -> TemporalSolution {
        TemporalSolution {
            scheduled: self.scheduled,
            reported_objective: self.objective,
        }
    }
}

/// Machine-readable form of a verifier [`Violation`]: a `kind` tag plus the
/// violation's fields, so tooling can consume `tvnep-cli verify --json`
/// output without parsing the `Debug` rendering.
pub fn violation_to_json(v: &tvnep_model::Violation) -> Json {
    use tvnep_model::Violation as V;
    let mut fields: Vec<(String, Json)> = Vec::new();
    let kind = match v {
        V::ShapeMismatch => "shape_mismatch",
        V::WrongDuration { request } => {
            fields.push(("request".into(), Json::from(*request)));
            "wrong_duration"
        }
        V::OutsideWindow { request } => {
            fields.push(("request".into(), Json::from(*request)));
            "outside_window"
        }
        V::MissingEmbedding { request } => {
            fields.push(("request".into(), Json::from(*request)));
            "missing_embedding"
        }
        V::FlowConservation {
            request,
            link,
            at,
            imbalance,
        } => {
            fields.push(("request".into(), Json::from(*request)));
            fields.push(("link".into(), Json::from(*link)));
            fields.push(("at_node".into(), Json::from(at.0)));
            fields.push(("imbalance".into(), Json::from(*imbalance)));
            "flow_conservation"
        }
        V::FlowRange { request, link } => {
            fields.push(("request".into(), Json::from(*request)));
            fields.push(("link".into(), Json::from(*link)));
            "flow_range"
        }
        V::NodeCapacity {
            node,
            time,
            load,
            capacity,
        } => {
            fields.push(("node".into(), Json::from(node.0)));
            fields.push(("time".into(), Json::from(*time)));
            fields.push(("load".into(), Json::from(*load)));
            fields.push(("capacity".into(), Json::from(*capacity)));
            "node_capacity"
        }
        V::EdgeCapacity {
            edge,
            time,
            load,
            capacity,
        } => {
            fields.push(("edge".into(), Json::from(edge.0)));
            fields.push(("time".into(), Json::from(*time)));
            fields.push(("load".into(), Json::from(*load)));
            fields.push(("capacity".into(), Json::from(*capacity)));
            "edge_capacity"
        }
    };
    fields.insert(0, ("kind".into(), Json::from(kind)));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvnep_workloads::{generate, WorkloadConfig};

    #[test]
    fn instance_roundtrip() {
        let inst = generate(&WorkloadConfig::tiny(), 3);
        let doc = InstanceDoc::from_instance(&inst);
        let json = doc.to_json().pretty();
        let back = InstanceDoc::from_json(&Json::parse(&json).unwrap()).unwrap();
        let inst2 = back.into_instance().unwrap();
        assert_eq!(inst.num_requests(), inst2.num_requests());
        assert_eq!(inst.substrate.num_edges(), inst2.substrate.num_edges());
        assert_eq!(inst.horizon, inst2.horizon);
        assert_eq!(inst.fixed_node_mappings, inst2.fixed_node_mappings);
        for (a, b) in inst.requests.iter().zip(&inst2.requests) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.duration, b.duration);
            assert_eq!(a.earliest_start, b.earliest_start);
        }
    }

    #[test]
    fn bad_edge_rejected() {
        let doc = InstanceDoc {
            substrate: SubstrateDoc {
                num_nodes: 2,
                edges: vec![[0, 5]],
                node_capacities: vec![1.0, 1.0],
                edge_capacities: vec![1.0],
            },
            horizon: 1.0,
            requests: vec![],
            fixed_node_mappings: None,
        };
        assert!(doc.into_instance().is_err());
    }

    #[test]
    fn inconsistent_embedding_rejected() {
        let text = r#"{"scheduled": [{"accepted": true, "start": 0, "end": 1, "node_map": [0]}]}"#;
        assert!(SolutionDoc::from_json(&Json::parse(text).unwrap()).is_err());
    }

    #[test]
    fn solution_roundtrip_preserves_flows() {
        let doc = SolutionDoc {
            objective: Some(4.25),
            scheduled: vec![ScheduledRequest {
                accepted: true,
                start: 0.5,
                end: 2.0,
                embedding: Some(Embedding {
                    node_map: vec![NodeId(1), NodeId(0)],
                    edge_flows: vec![vec![(EdgeId(0), 0.5), (EdgeId(2), 0.5)]],
                }),
            }],
        };
        let text = doc.to_json().pretty();
        let back = SolutionDoc::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.objective, Some(4.25));
        let sol = back.into_solution();
        let emb = sol.scheduled[0].embedding.as_ref().unwrap();
        assert_eq!(emb.node_map, vec![NodeId(1), NodeId(0)]);
        assert_eq!(emb.edge_flows[0], vec![(EdgeId(0), 0.5), (EdgeId(2), 0.5)]);
    }
}
