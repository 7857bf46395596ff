//! # tvnep-core — continuous-time models for the Temporal VNet Embedding Problem
//!
//! The paper's primary contribution, implemented end to end:
//!
//! * [`embedding`] — static embedding variables/constraints (Tables III–V);
//! * [`events`] — the abstract event-point model (Section III-A), both the
//!   2|R|-event scheme of the Δ/Σ-Models and the compact |R|+1-event scheme
//!   of the cΣ-Model, including the temporal constraints of Table XIII and
//!   the temporal dependency graph cuts of Table XIV;
//! * [`delta`] — the Δ-Model (state changes, Section III-B);
//! * [`states`] — the explicit state allocations of the Σ/cΣ-Models
//!   (Tables VIII–IX) with the state-space reduction of Section IV-C;
//! * [`formulation`] — model assembly for the five objectives (Section IV-E
//!   plus makespan), solving, and solution extraction;
//! * [`greedy`] — the polynomial-time greedy algorithm cΣᴳ_A (Section V).
//!
//! Solutions are returned as [`tvnep_model::TemporalSolution`]s and can be
//! checked against Definition 2.1 with the independent verifier in
//! `tvnep-model`.

pub mod delta;
pub mod discrete;
pub mod embedding;
pub mod events;
pub mod explain;
pub mod formulation;
pub mod greedy;
pub mod mapping;
pub mod service;
pub mod states;
pub mod util;

pub use discrete::{build_discrete, discretization_gap, solve_discrete, DiscreteModel};
pub use embedding::{build_embedding, build_embedding_with, EmbeddingVars, FlowMode, NodeMapVars};
pub use events::{EventOptions, EventScheme, EventVars, SigmaClass};
pub use explain::{
    explain_solution, BindingConstraint, Blocker, Explanation, Fate, RequestExplanation, Resource,
};
pub use formulation::{
    build_model, solve_tvnep, AuxVars, BuildOptions, BuildStats, BuiltModel, Formulation,
    Objective, TvnepOutcome,
};
pub use greedy::{greedy_csigma, GreedyIterationRecord, GreedyOptions, GreedyOutcome};
pub use mapping::{greedy_with_lp_mappings, lp_rounding_mappings, random_mappings};
pub use service::{
    AdmitDecision, AdmitError, Reservation, ReservationRef, ServiceCore, ServiceOptions,
    SubproblemHandles,
};
pub use states::{build_state_allocations, StateLoads};
pub use util::{node_peaks, util_jsonl, util_points, util_summary, UtilPoint, UtilSummary};
