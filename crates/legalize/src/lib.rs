//! Multi-row Local Legalization (MLL) — the algorithm of Chow, Pui &
//! Young, *"Legalization Algorithm for Multiple-Row Height Standard Cell
//! Design"*, DAC 2016.
//!
//! Standard legalizers (Abacus, Tetris, …) assume cell overlaps are
//! independent between rows; multi-row height cells break that assumption.
//! MLL legalizes one cell at a time within a small window around its target
//! position:
//!
//! 1. **Local region extraction** ([`LocalRegion`], Section 2.1.3): pick
//!    one continuous run of free sites per row around the target; cells
//!    fully inside those runs are *local* and may shift horizontally, all
//!    other cells are frozen.
//! 2. **Insertion interval construction** ([`region::LocalRegion::insertion_intervals`],
//!    Section 5.1.1): from the leftmost/rightmost placements of the local
//!    cells, compute for every gap the feasible x-range of the target cell.
//! 3. **Insertion point enumeration** ([`enumerate_insertion_points`],
//!    Section 5.1.3): a scanline over interval endpoints with pairwise
//!    segment queues yields every valid combination of `h` gaps in `h`
//!    consecutive rows with a common cutline, skipping combinations split
//!    by a multi-row cell and rows with incompatible power rails.
//! 4. **Insertion point evaluation** ([`evaluate`], Section 5.2): each
//!    cell's displacement is a one-sided hinge of the target position; the
//!    optimal position is a clamped median of critical positions. Both the
//!    paper's neighbor-only approximation and an exact O(|C_W|)
//!    chain-propagation evaluator are provided ([`EvalMode`]).
//! 5. **Realization** ([`realize`], Section 5.3, Algorithm 2): place the
//!    target and resolve overlaps by minimal left/right push waves.
//!
//! The top-level driver [`Legalizer`] (Algorithm 1) runs MLL for every cell
//! of a global placement, retrying failed cells at randomly perturbed
//! positions with a growing radius. Every operation runs in a
//! [`LegalizeCtx`] — scratch arena, run statistics, optional trace — which
//! only [`Legalizer::legalize`] and [`Legalizer::legalize_parallel`] build
//! for themselves. Each phase boundary is one [`Probe`]: it times the
//! phase into [`LegalizeStats::phases`] and, when the context carries a
//! [`TraceBuf`], records the phase's span.
//!
//! # Examples
//!
//! Legalize a small overlapping placement:
//!
//! ```
//! use mrl_db::{DesignBuilder, PlacementState};
//! use mrl_legalize::{Legalizer, LegalizerConfig};
//!
//! let mut b = DesignBuilder::new(4, 30);
//! for i in 0..8 {
//!     let c = b.add_cell(format!("c{i}"), 3, 1 + (i % 2));
//!     b.set_input_position(c, 10.0 + 0.3 * i as f64, 1.2);
//! }
//! let design = b.finish()?;
//! let legalizer = Legalizer::new(LegalizerConfig::default());
//! let mut state = PlacementState::new(&design);
//! let stats = legalizer.legalize(&design, &mut state)?;
//! assert_eq!(stats.placed, 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod detailed;
mod enumerate;
mod escalate;
mod evaluate;
mod interval;
mod legalizer;
mod mll;
mod parallel;
mod realize;
mod refine;
pub mod region;
mod scratch;

pub use config::{CellOrder, EscalationConfig, EvalMode, LegalizerConfig, PowerRailMode};
pub use detailed::{DetailedConfig, DetailedPlacer, DetailedStats};
pub use enumerate::{
    enumerate_insertion_points, find_best_insertion_point, first_minimum, InsertionPoint,
};
pub use escalate::{ilp_place_window, solve_window_milp};
pub use evaluate::{evaluate, evaluate_exact, Evaluation, TargetSpec};
pub use interval::InsInterval;
pub use legalizer::{LegalizeCtx, LegalizeError, Legalizer};
pub use mll::mll;
// The run record, the phase ledger and its probe, the trace recorder, and
// the failure taxonomy used across the drivers (see the `mrl-trace` crate).
pub use mrl_trace::{
    AttemptOutcome, AttemptRecord, EscalationCounters, FailCounts, FailReason, LegalizeStats,
    MetricsSummary, Phase, PhaseTimes, Probe, TraceBuf, TraceEvent,
};
pub use realize::{realize, Realization};
pub use refine::{refine_rows, RefineStats};
pub use region::{ExtractScratch, LocalCells, LocalRegion, LocalSeg};
pub use scratch::ScratchArena;
