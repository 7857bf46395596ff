//! # tvnep-model — domain model for the Temporal VNet Embedding Problem
//!
//! Problem data (Tables I, II, VI of the paper), solution types
//! (Definition 2.1's output), an independent feasibility verifier, and the
//! temporal dependency graph of Section IV-C.
//!
//! The verifier ([`verify::verify`]) implements Definition 2.1 directly —
//! interval sweep plus explicit flow-conservation checks — and serves as the
//! ground-truth oracle for every algorithm in the workspace.

pub mod depgraph;
pub mod instance;
pub mod request;
pub mod solution;
pub mod substrate;
pub mod tol;
pub mod verify;

pub use depgraph::{earliest, latest, DepNode, DependencyGraph};
pub use instance::{check_mapping, check_window, Instance, NodeMapping};
pub use request::Request;
pub use solution::{Embedding, ScheduledRequest, TemporalSolution};
pub use substrate::Substrate;
pub use verify::{is_feasible, verify, verify_with_tol, Violation, VERIFY_TOL};
