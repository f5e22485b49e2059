//! Baseline legalizers for multi-row height standard cell designs.
//!
//! Three comparison points for the MLL algorithm of `mrl-legalize`:
//!
//! * [`IlpLegalizer`] — the paper's quality baseline (Section 6): the same
//!   incremental driver as Algorithm 1, but each local problem is solved
//!   to optimality. Two interchangeable optimal engines are provided: the
//!   faithful mixed-integer program solved with `mrl-ilp` (the paper used
//!   `lpsolve`), and MLL's insertion-point search under exact evaluation,
//!   whose result equals scoring every insertion point, so it provably
//!   reaches the same optimum and runs much faster ([`LocalSolver`]).
//! * [`AbacusLegalizer`] — the classic row-based legalizer
//!   (Spindler et al., ISPD 2008) extended to mixed heights the way the
//!   paper's introduction describes prior work doing: multi-row cells are
//!   pre-placed greedily as macros, then single-row cells are legalized by
//!   Abacus dynamic clustering.
//! * [`TetrisLegalizer`] — the greedy left-to-right legalizer (Hill's
//!   patent, ref. \[7\]) where placed cells never move, which the paper
//!   cites as producing high displacement at high densities.
//!
//! # Examples
//!
//! ```
//! use mrl_db::{DesignBuilder, PlacementState};
//! use mrl_baselines::{IlpLegalizer, LocalSolver};
//! use mrl_legalize::LegalizerConfig;
//!
//! let mut b = DesignBuilder::new(4, 30);
//! for i in 0..6 {
//!     let c = b.add_cell(format!("c{i}"), 3, 1 + (i % 2));
//!     b.set_input_position(c, 10.0 + 0.5 * i as f64, 1.0);
//! }
//! let design = b.finish()?;
//! let mut state = PlacementState::new(&design);
//! let ilp = IlpLegalizer::new(LegalizerConfig::default(), LocalSolver::Milp);
//! let stats = ilp.legalize(&design, &mut state)?;
//! assert_eq!(stats.placed, 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abacus;
mod ilp_local;
mod tetris;

pub use abacus::AbacusLegalizer;
pub use ilp_local::{IlpLegalizer, LocalSolver};
pub use tetris::TetrisLegalizer;

#[doc(hidden)]
pub use ilp_local::milp_local_cost;
