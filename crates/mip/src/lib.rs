//! # tvnep-mip — LP-based branch-and-bound MIP solver
//!
//! Mixed-integer programming substrate for the TVNEP reproduction (the paper
//! used Gurobi; see DESIGN.md for the substitution rationale). Models are
//! built through [`MipModel`] and solved by [`solve`]/[`solve_with`], which
//! run branch and bound over warm-started simplex relaxations from
//! `tvnep-lp`.
//!
//! The result reports exactly what the paper's evaluation plots: incumbent
//! objective, best bound, relative *objective gap* (∞ when no feasible point
//! was found within the limit), node count and runtime.
//!
//! ```
//! use tvnep_mip::{MipModel, solve, MipStatus};
//! // max 5x + 4y st 6x + 4y <= 24, x + 2y <= 6, x,y >= 0 integer.
//! let mut m = MipModel::maximize();
//! let x = m.add_integer(0.0, 10.0, 5.0);
//! let y = m.add_integer(0.0, 10.0, 4.0);
//! m.add_le(&[(x, 6.0), (y, 4.0)], 24.0);
//! m.add_le(&[(x, 1.0), (y, 2.0)], 6.0);
//! let r = solve(&m);
//! assert_eq!(r.status, MipStatus::Optimal);
//! assert_eq!(r.objective.unwrap().round() as i64, 20); // x = 4, y = 0
//! ```

pub mod branch_and_bound;
pub mod model;
mod parallel;
pub mod progress;
pub mod tree;

pub use branch_and_bound::{
    solve, solve_with, MipOptions, MipProgress, MipResult, MipStatus, ProgressFn,
};
pub use model::{MipModel, Sense, VarKind, MIP_INF};
pub use progress::{
    IncumbentSource, ProgressEvent, ProgressKind, ProgressRecorder, ProgressSummary,
};
pub use tree::{NodeOutcome, SearchTree, TreeNode};
pub use tvnep_lp::{VarId, INF};
