//! Assembles complete TVNEP mixed-integer programs: formulation × objective,
//! and converts MIP solutions back into [`TemporalSolution`]s.

use crate::embedding::{EmbeddingVars, NodeMapVars};
use crate::events::{EventOptions, EventScheme, EventVars, SigmaClass};
use crate::states::{build_state_allocations, StateLoads};
use tvnep_graph::{EdgeId, NodeId};
use tvnep_mip::{MipModel, MipOptions, MipResult, Sense, VarId};
use tvnep_model::{DependencyGraph, Embedding, Instance, ScheduledRequest, TemporalSolution};

/// The three continuous-time MIP formulations of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Formulation {
    /// Δ-Model: 2|R| events, state *changes* with big-M pinning (weak).
    Delta,
    /// Σ-Model: 2|R| events, explicit per-request state allocations.
    Sigma,
    /// cΣ-Model: |R|+1 events, state-space/symmetry reduction + cuts.
    CSigma,
}

impl Formulation {
    /// Lower-case name used in telemetry and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            Formulation::Delta => "delta",
            Formulation::Sigma => "sigma",
            Formulation::CSigma => "csigma",
        }
    }
}

/// Objective functions of Section IV-E (plus the makespan objective the
/// abstract mentions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Maximize accepted revenue `Σ x_R · d_R · Σ_v c_R(v)` (access control).
    AccessControl,
    /// All requests embedded; maximize the earliness fee (IV-E2).
    MaxEarliness,
    /// All requests embedded; maximize the number of nodes never loaded
    /// above `fraction` of their capacity (IV-E3).
    BalanceNodeLoad {
        /// The threshold `f ∈ (0, 1)`.
        fraction: f64,
    },
    /// All requests embedded; maximize the number of links that can be
    /// disabled over the whole horizon (IV-E4).
    DisableLinks,
    /// All requests embedded; minimize the completion time of the last one.
    MinMakespan,
}

impl Objective {
    fn sense(self) -> Sense {
        match self {
            Objective::MinMakespan => Sense::Minimize,
            _ => Sense::Maximize,
        }
    }
}

/// Model-strength options (dependency cuts on/off etc.).
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Event-model options; see [`EventOptions`].
    pub event: EventOptions,
    /// Splittable (default) or unsplittable virtual-link flows.
    pub flow_mode: crate::embedding::FlowMode,
}

impl BuildOptions {
    /// The paper's configuration: plain Δ and Σ, fully-armed cΣ.
    pub fn default_for(f: Formulation) -> Self {
        match f {
            Formulation::Delta | Formulation::Sigma => Self {
                event: EventOptions {
                    dependency_ranges: false,
                    pairwise_cuts: false,
                    ordering_cuts: false,
                },
                flow_mode: crate::embedding::FlowMode::Splittable,
            },
            Formulation::CSigma => Self {
                event: EventOptions {
                    dependency_ranges: true,
                    pairwise_cuts: true,
                    ordering_cuts: true,
                },
                flow_mode: crate::embedding::FlowMode::Splittable,
            },
        }
    }
}

/// Objective-specific auxiliary variables.
#[derive(Debug, Default)]
pub struct AuxVars {
    /// `F(N_s)` for [`Objective::BalanceNodeLoad`].
    pub f_nodes: Vec<VarId>,
    /// `D(L_s)` for [`Objective::DisableLinks`].
    pub d_links: Vec<VarId>,
    /// Makespan variable.
    pub t_max: Option<VarId>,
}

/// Model-size and reduction statistics recorded while building (the
/// quantities Section IV-C's presolve argument is about).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Constraint rows in the final MIP.
    pub rows: usize,
    /// Columns (variables) in the final MIP.
    pub cols: usize,
    /// Integer/binary columns.
    pub ints: usize,
    /// `(R, s_i)` cells with Σ statically 0 — no allocation rows emitted.
    pub static_zero_states: usize,
    /// `(R, s_i)` cells with Σ statically 1 — demand folded into constants.
    pub static_one_states: usize,
    /// `(R, s_i)` cells that still need a Σ expression.
    pub dynamic_states: usize,
    /// Events the compact scheme saved versus the full `2|R|` scheme.
    pub events_removed: usize,
}

impl BuildStats {
    /// Cells removed from the dynamic state grid by the classification.
    pub fn states_removed(&self) -> usize {
        self.static_zero_states + self.static_one_states
    }
}

/// A fully-built TVNEP model ready for the MIP solver.
pub struct BuiltModel {
    /// The mixed-integer program.
    pub mip: MipModel,
    /// Embedding variables for extraction.
    pub emb: EmbeddingVars,
    /// Event/temporal variables for extraction.
    pub events: EventVars,
    /// State-load expressions (needed by some objectives).
    pub loads: StateLoads,
    /// Objective-specific variables.
    pub aux: AuxVars,
    /// The formulation used.
    pub formulation: Formulation,
    /// The objective used.
    pub objective: Objective,
    /// Size and reduction statistics of the build.
    pub stats: BuildStats,
}

/// Builds the MIP for `instance` under the given formulation and objective.
pub fn build_model(
    instance: &Instance,
    formulation: Formulation,
    objective: Objective,
    opts: BuildOptions,
) -> BuiltModel {
    let mut m = MipModel::new(objective.sense());
    let dep = DependencyGraph::new(&instance.requests);
    let emb = crate::embedding::build_embedding_with(&mut m, instance, opts.flow_mode);
    let scheme = match formulation {
        Formulation::Delta | Formulation::Sigma => EventScheme::Full,
        Formulation::CSigma => EventScheme::Compact,
    };
    let events = EventVars::build(&mut m, instance, scheme, &dep, opts.event);
    let loads = match formulation {
        Formulation::Delta => crate::delta::build_delta_states(&mut m, instance, &emb, &events),
        Formulation::Sigma | Formulation::CSigma => {
            build_state_allocations(&mut m, instance, &emb, &events)
        }
    };

    let mut aux = AuxVars::default();
    match objective {
        Objective::AccessControl => {
            for (r, req) in instance.requests.iter().enumerate() {
                m.set_obj(emb.x_r[r], req.revenue());
            }
        }
        Objective::MaxEarliness => {
            fix_all_requests(&mut m, &emb);
            let mut offset = 0.0;
            for (r, req) in instance.requests.iter().enumerate() {
                let denom = req.latest_start() - req.earliest_start;
                if denom > 1e-9 {
                    // d·(1 − (t⁺ − t^s)/denom) = d + d·t^s/denom − (d/denom)·t⁺.
                    m.set_obj(events.t_plus[r], -req.duration / denom);
                    offset += req.duration * (1.0 + req.earliest_start / denom);
                } else {
                    // Rigid request: starts at t^s, contributes d.
                    offset += req.duration;
                }
            }
            m.set_obj_offset(offset);
        }
        Objective::BalanceNodeLoad { fraction } => {
            assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
            fix_all_requests(&mut m, &emb);
            let sub = &instance.substrate;
            for n in sub.graph().nodes() {
                let f_var = m.add_binary(1.0);
                aux.f_nodes.push(f_var);
                let cap = sub.node_capacity(n);
                // load + (1−f)·cap·F ≤ cap, per state (from IV-E3's
                // (1−F)(1−f)c ≥ load − f·c).
                for state_loads in &loads.node {
                    let row = &state_loads[n.0];
                    if row.is_empty() {
                        continue;
                    }
                    let mut terms = row.clone();
                    terms.push((f_var, (1.0 - fraction) * cap));
                    m.add_le(&terms, cap);
                }
            }
        }
        Objective::DisableLinks => {
            fix_all_requests(&mut m, &emb);
            let sub = &instance.substrate;
            let total_vlinks: usize = instance.requests.iter().map(|r| r.num_edges()).sum();
            for e in sub.graph().edge_ids() {
                let d_var = m.add_binary(1.0);
                aux.d_links.push(d_var);
                // Σ_{R, L_v} x_E(L_v, e) ≤ M·(1 − D); the paper writes
                // |R|·(1−D), we use the safe bound Σ_R |E_R|.
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for r in 0..instance.num_requests() {
                    for l in 0..instance.requests[r].num_edges() {
                        terms.push((emb.x_e[r][l][e.0], 1.0));
                    }
                }
                terms.push((d_var, total_vlinks as f64));
                m.add_le(&terms, total_vlinks as f64);
            }
        }
        Objective::MinMakespan => {
            fix_all_requests(&mut m, &emb);
            let t_max = m.add_continuous(0.0, instance.horizon, 1.0);
            aux.t_max = Some(t_max);
            for r in 0..instance.num_requests() {
                m.add_ge(&[(t_max, 1.0), (events.t_minus[r], -1.0)], 0.0);
            }
        }
    }

    // Reduction statistics over the request × state grid (Section IV-C):
    // how much of the Σ grid the classification resolved statically, and how
    // many events the compact scheme dropped relative to the full 2|R| one.
    let k = instance.num_requests();
    let mut stats = BuildStats {
        rows: m.num_rows(),
        cols: m.num_vars(),
        ints: m.num_integers(),
        events_removed: (2 * k).saturating_sub(events.num_events),
        ..BuildStats::default()
    };
    for i in 1..=events.num_states() {
        for r in 0..k {
            match events.sigma_class(r, i) {
                SigmaClass::StaticZero => stats.static_zero_states += 1,
                SigmaClass::StaticOne => stats.static_one_states += 1,
                SigmaClass::Dynamic => stats.dynamic_states += 1,
            }
        }
    }

    BuiltModel {
        mip: m,
        emb,
        events,
        loads,
        aux,
        formulation,
        objective,
        stats,
    }
}

fn fix_all_requests(m: &mut MipModel, emb: &EmbeddingVars) {
    for &xr in &emb.x_r {
        m.fix_var(xr, 1.0);
    }
}

impl BuiltModel {
    /// Converts a MIP point into a [`TemporalSolution`].
    pub fn extract_solution(&self, instance: &Instance, x: &[f64]) -> TemporalSolution {
        let mut scheduled = Vec::with_capacity(instance.num_requests());
        for r in 0..instance.num_requests() {
            let accepted = x[self.emb.x_r[r].0] > 0.5;
            let start = x[self.events.t_plus[r].0];
            let end = x[self.events.t_minus[r].0];
            let embedding = accepted.then(|| {
                let node_map: Vec<NodeId> = match &self.emb.node_maps[r] {
                    NodeMapVars::Fixed(map) => map.clone(),
                    NodeMapVars::Free(vars) => vars
                        .iter()
                        .map(|per_node| {
                            let (best, _) = per_node
                                .iter()
                                .enumerate()
                                .max_by(|a, b| x[a.1 .0].partial_cmp(&x[b.1 .0]).expect("finite"))
                                .expect("substrate non-empty");
                            NodeId(best)
                        })
                        .collect(),
                };
                let edge_flows: Vec<Vec<(EdgeId, f64)>> = self.emb.x_e[r]
                    .iter()
                    .map(|per_edge| {
                        per_edge
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| x[v.0] > 1e-7)
                            .map(|(e, v)| (EdgeId(e), x[v.0]))
                            .collect()
                    })
                    .collect();
                Embedding {
                    node_map,
                    edge_flows,
                }
            });
            scheduled.push(ScheduledRequest {
                accepted,
                start,
                end,
                embedding,
            });
        }
        TemporalSolution {
            scheduled,
            reported_objective: None,
        }
    }
}

/// Outcome of an end-to-end TVNEP solve.
pub struct TvnepOutcome {
    /// Raw MIP result (status, bound, gap, nodes, runtime).
    pub mip: MipResult,
    /// Extracted solution when the solver found an incumbent.
    pub solution: Option<TemporalSolution>,
}

/// Records a finished model build's size and Section IV-C state-space
/// reduction as `model.*` gauges (a later build overwrites them).
pub(crate) fn emit_build_stats(telemetry: &tvnep_telemetry::Telemetry, stats: &BuildStats) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.gauge_set("model.rows", stats.rows as f64);
    telemetry.gauge_set("model.cols", stats.cols as f64);
    telemetry.gauge_set("model.ints", stats.ints as f64);
    telemetry.gauge_set("model.events_removed", stats.events_removed as f64);
    telemetry.gauge_set("model.states_removed", stats.states_removed() as f64);
    telemetry.gauge_set("model.dynamic_states", stats.dynamic_states as f64);
}

/// Builds and solves `instance` under the given configuration.
pub fn solve_tvnep(
    instance: &Instance,
    formulation: Formulation,
    objective: Objective,
    build_opts: BuildOptions,
    mip_opts: &MipOptions,
) -> TvnepOutcome {
    let build_span = mip_opts.telemetry.span("model.build");
    let built = build_model(instance, formulation, objective, build_opts);
    drop(
        build_span
            .arg("rows", built.stats.rows as f64)
            .arg("cols", built.stats.cols as f64)
            .arg("events_removed", built.stats.events_removed as f64),
    );
    emit_build_stats(&mip_opts.telemetry, &built.stats);
    let result = tvnep_mip::solve_with(&built.mip, mip_opts);
    let solution = result.x.as_ref().map(|x| {
        let mut s = built.extract_solution(instance, x);
        s.reported_objective = result.objective;
        s
    });
    TvnepOutcome {
        mip: result,
        solution,
    }
}
