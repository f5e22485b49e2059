//! Configuration of the legalizer.

use mrl_db::{CellId, DbError, Design, PlacementState};
use mrl_geom::SitePoint;
use std::fmt;

/// Whether the power-rail alignment constraint is enforced.
///
/// The paper's second experiment (Section 6) relaxes the constraint to
/// quantify its displacement cost: relaxed mode lets every cell sit on any
/// row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PowerRailMode {
    /// Enforce rail parity: even-height cells only on alternate rows
    /// (constraint 4 of the problem formulation).
    #[default]
    Aligned,
    /// Ignore rail parity entirely.
    Relaxed,
}

impl PowerRailMode {
    /// True for [`PowerRailMode::Aligned`].
    pub const fn is_aligned(self) -> bool {
        matches!(self, PowerRailMode::Aligned)
    }

    /// Places `cell` at `at`, checking rail parity only in
    /// [`PowerRailMode::Aligned`] — the one placement rule every driver,
    /// escalation tier and baseline shares.
    ///
    /// # Errors
    ///
    /// The [`DbError`] of [`PlacementState::place`] (or of
    /// [`PlacementState::place_ignoring_rails`] when relaxed).
    pub fn place(
        self,
        design: &Design,
        state: &mut PlacementState,
        cell: CellId,
        at: SitePoint,
    ) -> Result<(), DbError> {
        if self.is_aligned() {
            state.place(design, cell, at)
        } else {
            state.place_ignoring_rails(design, cell, at)
        }
    }
}

/// How insertion points are scored (Section 5.2 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalMode {
    /// The paper's fast approximation: only the ≤ 2·h cells adjacent to the
    /// chosen gaps contribute critical positions.
    #[default]
    Approximate,
    /// Exact O(|C_W|) evaluation: critical positions of every local cell
    /// are derived by propagating push chains through the neighbor DAG.
    Exact,
}

/// The order in which Algorithm 1 visits cells ("an arbitrary order" in the
/// paper; exposed for the cell-order ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CellOrder {
    /// The order cells were added to the design.
    #[default]
    Input,
    /// Ascending global-placement x (classic left-to-right sweep).
    ByX,
    /// Descending cell area, so large multi-row cells claim space first.
    ByAreaDesc,
    /// A seeded random shuffle.
    Shuffled,
}

/// Switches of the escalation ladder that engages when the MLL +
/// random-offset retry loop keeps failing a cell (ROADMAP item 1: break
/// the 0.78-utilization ceiling).
///
/// The ladder has three tiers, each individually switchable:
///
/// 1. **Ripple chains** — bounded-depth chains of displacements of
///    already-placed cells, applied transactionally and rolled back in
///    full when the chain fails or exceeds its displacement budget.
/// 2. **Height-binned repack** — rip up a congested subwindow and
///    re-insert its cells per height class, tallest first (the
///    `MultirowAbacus` idea), all-or-nothing.
/// 3. **ILP-local** — a window MILP on an enlarged frozen neighborhood
///    for the last residue cells.
///
/// The engagement period, chain depth, window scales and population caps
/// are fixed constants of the ladder (DESIGN.md §10). All tiers are
/// RNG-free and run from the deterministic retry loop, so the pipeline
/// stays bit-identical across thread counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EscalationConfig {
    /// Tier 1 switch.
    pub ripple: bool,
    /// Budget on the total Manhattan displacement (sites + rows) a chain
    /// may inflict on already-placed cells; chains over budget roll back.
    pub ripple_max_disp: i64,
    /// Tier 2 switch.
    pub repack: bool,
    /// Tier 3 switch.
    pub ilp: bool,
}

impl Default for EscalationConfig {
    fn default() -> Self {
        Self {
            ripple: true,
            ripple_max_disp: 70,
            repack: true,
            ilp: true,
        }
    }
}

impl EscalationConfig {
    /// A ladder with every tier off: the retry loop is byte-for-byte the
    /// pre-escalation algorithm.
    pub fn disabled() -> Self {
        Self::default().with_tiers(false, false, false)
    }

    /// Whether any tier can run.
    pub const fn engages(&self) -> bool {
        self.ripple || self.repack || self.ilp
    }

    /// Returns `self` with individual tiers switched on or off.
    pub fn with_tiers(mut self, ripple: bool, repack: bool, ilp: bool) -> Self {
        self.ripple = ripple;
        self.repack = repack;
        self.ilp = ilp;
        self
    }

    /// Returns `self` with the ripple displacement budget replaced.
    pub fn with_ripple_max_disp(mut self, ripple_max_disp: i64) -> Self {
        self.ripple_max_disp = ripple_max_disp;
        self
    }
}

impl fmt::Display for EscalationConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.engages() {
            return write!(f, "off");
        }
        write!(
            f,
            "after={} ripple={} repack={} ilp={}",
            crate::escalate::AFTER_ROUNDS,
            self.ripple,
            self.repack,
            self.ilp
        )
    }
}

/// Tuning knobs of the MLL legalizer.
///
/// The defaults replicate the paper's implementation: `Rx = 30`, `Ry = 5`,
/// approximate insertion-point evaluation, power rails aligned.
#[derive(Clone, Debug, PartialEq)]
pub struct LegalizerConfig {
    /// Horizontal half-extent of the local window, in sites (`Rx`).
    pub rx: i32,
    /// Vertical half-extent of the local window, in rows (`Ry`).
    pub ry: i32,
    /// Power-rail constraint handling.
    pub rail_mode: PowerRailMode,
    /// Insertion-point scoring mode.
    pub eval_mode: EvalMode,
    /// Cell visit order for the driver loop.
    pub order: CellOrder,
    /// Seed for the retry offsets (`Rand_x`, `Rand_y`) and shuffling.
    pub seed: u64,
    /// Upper bound on retry iterations before the driver gives up. The
    /// paper loops until success; a bound keeps pathological inputs from
    /// hanging and is never reached on sane densities.
    pub max_retry_iters: u32,
    /// Best-first branch-and-bound pruning of the insertion-point search
    /// (on by default). When disabled, every generated combination is
    /// scored exhaustively in scanline order; both modes return the same
    /// insertion point (ties broken by the scanline emission order), so
    /// this knob only trades evaluation work for a bound computation.
    pub prune: bool,
    /// Escalation ladder engaged when the retry loop keeps failing a cell
    /// (every tier on by default; [`EscalationConfig::disabled`] restores
    /// the pre-escalation retry loop bit-for-bit).
    pub escalation: EscalationConfig,
}

impl Default for LegalizerConfig {
    fn default() -> Self {
        Self {
            rx: 30,
            ry: 5,
            rail_mode: PowerRailMode::Aligned,
            eval_mode: EvalMode::Approximate,
            order: CellOrder::Input,
            seed: 0x9E37_79B9_7F4A_7C15,
            max_retry_iters: 4096,
            prune: true,
            escalation: EscalationConfig::default(),
        }
    }
}

impl LegalizerConfig {
    /// The paper's configuration (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Returns `self` with the window half-extents replaced.
    pub fn with_window(mut self, rx: i32, ry: i32) -> Self {
        self.rx = rx;
        self.ry = ry;
        self
    }

    /// Returns `self` with the rail mode replaced.
    pub fn with_rail_mode(mut self, mode: PowerRailMode) -> Self {
        self.rail_mode = mode;
        self
    }

    /// Returns `self` with the evaluation mode replaced.
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// Returns `self` with the cell order replaced.
    pub fn with_order(mut self, order: CellOrder) -> Self {
        self.order = order;
        self
    }

    /// Returns `self` with the RNG seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with branch-and-bound pruning switched on or off.
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Returns `self` with the retry-iteration cap replaced. Differential
    /// harnesses lower it so a genuinely stuck case fails fast instead of
    /// burning the full default budget.
    pub fn with_max_retries(mut self, max_retry_iters: u32) -> Self {
        self.max_retry_iters = max_retry_iters;
        self
    }

    /// Returns `self` with the escalation ladder replaced.
    pub fn with_escalation(mut self, escalation: EscalationConfig) -> Self {
        self.escalation = escalation;
        self
    }
}

impl fmt::Display for LegalizerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rx={} Ry={} rails={:?} eval={:?} order={:?} prune={} escalation=[{}]",
            self.rx,
            self.ry,
            self.rail_mode,
            self.eval_mode,
            self.order,
            self.prune,
            self.escalation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = LegalizerConfig::default();
        assert_eq!(c.rx, 30);
        assert_eq!(c.ry, 5);
        assert_eq!(c.rail_mode, PowerRailMode::Aligned);
        assert_eq!(c.eval_mode, EvalMode::Approximate);
        assert!(c.prune, "pruning is on by default");
        assert_eq!(LegalizerConfig::paper(), c);
    }

    #[test]
    fn prune_setter_round_trips() {
        let c = LegalizerConfig::default().with_prune(false);
        assert!(!c.prune);
        assert!(c.to_string().contains("prune=false"));
    }

    #[test]
    fn builder_style_setters() {
        let c = LegalizerConfig::default()
            .with_window(10, 2)
            .with_rail_mode(PowerRailMode::Relaxed)
            .with_eval_mode(EvalMode::Exact)
            .with_order(CellOrder::ByX)
            .with_seed(7);
        assert_eq!((c.rx, c.ry, c.seed), (10, 2, 7));
        assert!(!c.rail_mode.is_aligned());
        assert_eq!(c.eval_mode, EvalMode::Exact);
        assert_eq!(c.order, CellOrder::ByX);
    }

    #[test]
    fn display_mentions_window() {
        let s = LegalizerConfig::default().to_string();
        assert!(s.contains("Rx=30"));
        assert!(s.contains("Ry=5"));
        assert!(s.contains("escalation=[after=8"));
    }

    #[test]
    fn escalation_defaults_and_switches() {
        let e = EscalationConfig::default();
        assert!(e.ripple && e.repack && e.ilp);
        assert!(e.engages());
        assert!(!EscalationConfig::disabled().engages());
        assert!(e.with_tiers(false, false, true).engages());
        assert_eq!(EscalationConfig::disabled().to_string(), "off");
        let c = LegalizerConfig::default().with_escalation(EscalationConfig::disabled());
        assert!(!c.escalation.engages());
        assert!(c.to_string().contains("escalation=[off]"));
    }
}
