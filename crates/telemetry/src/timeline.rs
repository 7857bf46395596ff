//! The solve timeline: typed events stamped with elapsed time.

use crate::json::Json;
use std::time::Duration;

/// One solver event. Variants mirror the quantities the paper reports
/// (Sections V–VI): LP relaxation solves, state-space presolve reductions,
/// and per-request greedy acceptance decisions. Branch-and-bound nodes and
/// incumbents are not timeline events: the search tree, the progress stream
/// and the flight recorder carry them.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A top-level solve began (e.g. `"mip"`, `"greedy"`).
    SolveStart { what: String },
    /// The matching end, with the terminal status string.
    SolveEnd { what: String, status: String },
    /// A MIP model finished building.
    ModelBuilt {
        formulation: String,
        rows: usize,
        cols: usize,
        ints: usize,
    },
    /// Section IV-C state-space reduction: how much smaller the cΣ/Σ state
    /// grid got because Σ values were statically known.
    PresolveReduction {
        events_removed: usize,
        states_removed: usize,
        dynamic_states: usize,
    },
    /// An LP (re-)solve began; `warm` distinguishes dual warm starts.
    LpSolveStart { warm: bool },
    /// The matching end: simplex iterations spent, status, objective value.
    LpSolveEnd {
        iters: u64,
        status: String,
        obj: f64,
    },
    /// One iteration of the greedy cΣᴳ algorithm (one candidate request).
    GreedyIteration {
        request: usize,
        accepted: bool,
        model_rows: usize,
        model_cols: usize,
    },
}

impl Event {
    pub fn name(&self) -> &'static str {
        match self {
            Event::SolveStart { .. } => "solve_start",
            Event::SolveEnd { .. } => "solve_end",
            Event::ModelBuilt { .. } => "model_built",
            Event::PresolveReduction { .. } => "presolve_reduction",
            Event::LpSolveStart { .. } => "lp_solve_start",
            Event::LpSolveEnd { .. } => "lp_solve_end",
            Event::GreedyIteration { .. } => "greedy_iteration",
        }
    }

    fn fields(&self) -> Vec<(String, Json)> {
        match self {
            Event::SolveStart { what } => vec![("what".into(), Json::from(what.as_str()))],
            Event::SolveEnd { what, status } => vec![
                ("what".into(), Json::from(what.as_str())),
                ("status".into(), Json::from(status.as_str())),
            ],
            Event::ModelBuilt {
                formulation,
                rows,
                cols,
                ints,
            } => vec![
                ("formulation".into(), Json::from(formulation.as_str())),
                ("rows".into(), Json::from(*rows)),
                ("cols".into(), Json::from(*cols)),
                ("ints".into(), Json::from(*ints)),
            ],
            Event::PresolveReduction {
                events_removed,
                states_removed,
                dynamic_states,
            } => vec![
                ("events_removed".into(), Json::from(*events_removed)),
                ("states_removed".into(), Json::from(*states_removed)),
                ("dynamic_states".into(), Json::from(*dynamic_states)),
            ],
            Event::LpSolveStart { warm } => vec![("warm".into(), Json::from(*warm))],
            Event::LpSolveEnd { iters, status, obj } => vec![
                ("iters".into(), Json::from(*iters)),
                ("status".into(), Json::from(status.as_str())),
                ("obj".into(), Json::from(*obj)),
            ],
            Event::GreedyIteration {
                request,
                accepted,
                model_rows,
                model_cols,
            } => vec![
                ("request".into(), Json::from(*request)),
                ("accepted".into(), Json::from(*accepted)),
                ("model_rows".into(), Json::from(*model_rows)),
                ("model_cols".into(), Json::from(*model_cols)),
            ],
        }
    }
}

/// An [`Event`] plus its timestamp relative to handle creation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    pub at: Duration,
    pub event: Event,
}

impl TimedEvent {
    /// `{ "t_us": .., "event": "..", ..fields }` — flat, one object per event.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("t_us".to_string(), Json::from(self.at.as_micros() as u64)),
            ("event".to_string(), Json::from(self.event.name())),
        ];
        fields.extend(self.event.fields());
        Json::Obj(fields)
    }
}

/// Append-only event log. Timestamps are monotone because events are stamped
/// with `Instant::elapsed` at record time, in append order.
#[derive(Debug, Clone, Default)]
pub struct SolveTimeline {
    events: Vec<TimedEvent>,
}

impl SolveTimeline {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, at: Duration, event: Event) {
        self.events.push(TimedEvent { at, event });
    }

    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}
