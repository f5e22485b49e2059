//! The ILP-based optimal local legalizer (the paper's quality baseline).
//!
//! Runs the same incremental driver as Algorithm 1 of the paper, but each
//! local problem — place the target cell in the extracted local region,
//! keeping every local cell's row and the relative cell order per segment,
//! minimizing total displacement — is solved to optimality.
//!
//! The faithful engine ([`LocalSolver::Milp`]) builds one mixed-integer
//! program per candidate bottom row: continuous positions `x_i` for all
//! local cells and the target, per-row ordering constraints, binaries
//! `δ_i` ("target left of cell i") with big-M disjunctions and chain
//! monotonicity, and hinge-linearized displacement terms. With the
//! binaries fixed, the remaining LP is a system of difference constraints
//! — totally unimodular — so branch-and-bound over `δ` alone yields
//! integral optima.
//!
//! The fast engine ([`LocalSolver::ExhaustiveExact`]) runs the MLL
//! best-first insertion-point search in exact evaluation mode, whose result
//! is identical to scoring every valid insertion point with the exact
//! chain evaluator; for a fixed insertion point the minimal-push
//! realization attains each cell's hinge lower bound, so the best
//! insertion point is the same optimum the MILP finds. Property tests in
//! `tests/` assert the two engines agree.

use mrl_db::{CellId, Design, PlacementState};
use mrl_geom::SitePoint;
use mrl_legalize::{
    ilp_place_window, solve_window_milp, EvalMode, FailReason, LegalizeError, LegalizeStats,
    Legalizer, LegalizerConfig, LocalRegion, PowerRailMode,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The engine used to solve each local problem optimally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LocalSolver {
    /// Mixed-integer programming via `mrl-ilp` (faithful to the paper's
    /// `lpsolve` baseline; slow).
    #[default]
    Milp,
    /// MLL's best-first insertion-point search under exact evaluation:
    /// the same result as scoring every insertion point, and so provably
    /// the same optimum; much faster.
    ExhaustiveExact,
}

/// Optimal local legalization driver.
///
/// See the [crate-level example](crate).
#[derive(Clone, Debug)]
pub struct IlpLegalizer {
    cfg: LegalizerConfig,
    solver: LocalSolver,
}

impl IlpLegalizer {
    /// Creates the baseline with the given window/rail configuration and
    /// local engine. The `eval_mode` field of the configuration is
    /// ignored (this legalizer is always exact).
    pub fn new(cfg: LegalizerConfig, solver: LocalSolver) -> Self {
        Self { cfg, solver }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LegalizerConfig {
        &self.cfg
    }

    /// Legalizes all unplaced movable cells, like
    /// [`Legalizer::legalize`] but with optimal local solves.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Legalizer::legalize`].
    pub fn legalize(
        &self,
        design: &Design,
        state: &mut PlacementState,
    ) -> Result<LegalizeStats, LegalizeError> {
        if self.solver == LocalSolver::ExhaustiveExact {
            let cfg = self.cfg.clone().with_eval_mode(EvalMode::Exact);
            return Legalizer::new(cfg).legalize(design, state);
        }
        // MILP driver: mirror Algorithm 1, with the MILP as local solver.
        let helper = Legalizer::new(self.cfg.clone());
        let mut stats = LegalizeStats::default();
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        let mut remaining: Vec<CellId> = Vec::new();
        let todo: Vec<CellId> = design
            .movable_cells()
            .filter(|&c| !state.is_placed(c))
            .collect();
        for cell in todo {
            let (fx, fy) = design.input_position(cell);
            if self.try_place(design, state, &helper, cell, fx, fy, &mut stats)? {
                continue;
            }
            remaining.push(cell);
        }
        let mut k = 1u32;
        while !remaining.is_empty() {
            if k > self.cfg.max_retry_iters {
                return Err(LegalizeError::Unplaceable {
                    cell: remaining[0],
                    rounds: k - 1,
                    reason: FailReason::RetryBudgetExhausted,
                });
            }
            stats.retry_rounds = k;
            let rx = i64::from(self.cfg.rx) * i64::from(k - 1);
            let ry = i64::from(self.cfg.ry) * i64::from(k - 1);
            let mut still = Vec::new();
            for cell in remaining {
                let (fx, fy) = design.input_position(cell);
                let dx = if rx > 0 {
                    rng.gen_range(-rx..=rx) as f64
                } else {
                    0.0
                };
                let dy = if ry > 0 {
                    rng.gen_range(-ry..=ry) as f64
                } else {
                    0.0
                };
                if !self.try_place(design, state, &helper, cell, fx + dx, fy + dy, &mut stats)? {
                    still.push(cell);
                }
            }
            remaining = still;
            k += 1;
        }
        Ok(stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn try_place(
        &self,
        design: &Design,
        state: &mut PlacementState,
        helper: &Legalizer,
        cell: CellId,
        fx: f64,
        fy: f64,
        stats: &mut LegalizeStats,
    ) -> Result<bool, LegalizeError> {
        let pos = helper.snap(design, cell, fx, fy);
        if self.cfg.rail_mode.place(design, state, cell, pos).is_ok() {
            stats.direct += 1;
            stats.placed += 1;
            return Ok(true);
        }
        stats.mll_calls += 1;
        let placed = self.milp_place(design, state, cell, pos)?;
        if placed {
            stats.via_mll += 1;
            stats.placed += 1;
        }
        Ok(placed)
    }

    /// Solves the local problem around `pos` with the MILP and commits the
    /// optimum. Returns false when no candidate window is feasible.
    ///
    /// The engine lives in `mrl-legalize` ([`ilp_place_window`]) where the
    /// escalation ladder reuses it with an enlarged window; the baseline
    /// runs it at the configured window size with no cell cap.
    pub fn milp_place(
        &self,
        design: &Design,
        state: &mut PlacementState,
        target: CellId,
        pos: SitePoint,
    ) -> Result<bool, LegalizeError> {
        ilp_place_window(
            design,
            state,
            &self.cfg,
            self.cfg.rx,
            self.cfg.ry,
            None,
            target,
            pos,
        )
    }
}

/// Optimal cost of the local problem around one target without committing
/// anything — the oracle used by cross-validation tests. Returns `None`
/// when no placement exists in the window.
#[doc(hidden)]
pub fn milp_local_cost(
    cfg: &LegalizerConfig,
    design: &Design,
    state: &PlacementState,
    target: CellId,
    pos: SitePoint,
) -> Option<f64> {
    let cell = design.cell(target);
    let window = mrl_geom::SiteRect::new(
        pos.x - cfg.rx,
        pos.y - cfg.ry,
        2 * cfg.rx + cell.width(),
        2 * cfg.ry + cell.height(),
    );
    let region = LocalRegion::extract_masked(design, state, window, design.region_of(target));
    let ht = cell.height() as usize;
    if region.height() < ht {
        return None;
    }
    let aspect = design.grid().aspect();
    let fp = design.floorplan();
    let mut best: Option<f64> = None;
    for t in 0..=(region.height() - ht) {
        if (t..t + ht).any(|r| region.rows[r].is_none()) {
            continue;
        }
        let bottom_global = region.bottom_row + t as i32;
        if cfg.rail_mode == PowerRailMode::Aligned
            && !fp.rail_compatible(cell.rail(), cell.height(), bottom_global)
        {
            continue;
        }
        if let Ok(Some((hcost, ..))) = solve_window_milp(&region, t, ht, cell.width(), pos.x) {
            let cost = hcost + f64::from((bottom_global - pos.y).abs()) * aspect;
            if best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_db::DesignBuilder;
    use mrl_legalize::{mll, LegalizeCtx};
    use mrl_metrics::{check_legal, RailCheck};

    fn relaxed() -> LegalizerConfig {
        LegalizerConfig::default().with_rail_mode(PowerRailMode::Relaxed)
    }

    /// Exact-mode MLL cost of inserting `target` at `pos`.
    fn mll_exact_cost(
        cfg: &LegalizerConfig,
        design: &Design,
        state: &mut PlacementState,
        target: CellId,
        pos: SitePoint,
    ) -> f64 {
        let cfg = cfg.clone().with_eval_mode(EvalMode::Exact);
        mll(design, state, &cfg, target, pos, &mut LegalizeCtx::new(), 0)
            .unwrap()
            .expect("mll failed")
            .cost
    }

    #[test]
    fn milp_matches_mll_exact_on_simple_insertion() {
        let mut b = DesignBuilder::new(1, 30);
        let a = b.add_cell("a", 2, 1);
        let c = b.add_cell("c", 2, 1);
        let t = b.add_cell("t", 2, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(10, 0)).unwrap();
        state.place(&design, c, SitePoint::new(12, 0)).unwrap();
        let cfg = relaxed();
        let pos = SitePoint::new(11, 0);
        let milp_cost = milp_local_cost(&cfg, &design, &state, t, pos).unwrap();
        let cost = mll_exact_cost(&cfg, &design, &mut state, t, pos);
        assert!((milp_cost - cost).abs() < 1e-6, "{milp_cost} vs {cost}");
        assert!((milp_cost - 2.0).abs() < 1e-6);
    }

    #[test]
    fn milp_matches_mll_exact_with_multi_row_cells() {
        let mut b = DesignBuilder::new(2, 20);
        let m = b.add_cell("m", 2, 2);
        let s = b.add_cell("s", 2, 1);
        let t = b.add_cell("t", 3, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, m, SitePoint::new(8, 0)).unwrap();
        state.place(&design, s, SitePoint::new(10, 1)).unwrap();
        let cfg = relaxed();
        let pos = SitePoint::new(8, 0);
        let milp_cost = milp_local_cost(&cfg, &design, &state, t, pos).unwrap();
        let cost = mll_exact_cost(&cfg, &design, &mut state, t, pos);
        assert!((milp_cost - cost).abs() < 1e-6, "{milp_cost} vs {cost}");
    }

    #[test]
    fn milp_driver_legalizes_and_is_legal() {
        let mut b = DesignBuilder::new(4, 24);
        for i in 0..6 {
            let c = b.add_cell(format!("c{i}"), 2, 1 + (i % 2));
            b.set_input_position(c, 8.0 + 0.4 * i as f64, 1.2);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let ilp = IlpLegalizer::new(LegalizerConfig::default(), LocalSolver::Milp);
        let stats = ilp.legalize(&design, &mut state).unwrap();
        assert_eq!(stats.placed, 6);
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
    }

    #[test]
    fn exact_engine_delegates_to_exact_mll() {
        let mut b = DesignBuilder::new(4, 24);
        for i in 0..6 {
            let c = b.add_cell(format!("c{i}"), 2, 1 + (i % 2));
            b.set_input_position(c, 8.0 + 0.4 * i as f64, 1.2);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let ilp = IlpLegalizer::new(LegalizerConfig::default(), LocalSolver::ExhaustiveExact);
        let stats = ilp.legalize(&design, &mut state).unwrap();
        assert_eq!(stats.placed, 6);
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
    }

    #[test]
    fn milp_respects_rail_alignment() {
        let mut b = DesignBuilder::new(4, 12);
        let d = b.add_cell("d", 2, 2);
        b.set_input_position(d, 5.0, 1.0);
        // Force MLL path by occupying the snapped position.
        let blocker = b.add_cell("blk", 2, 2);
        b.set_input_position(blocker, 5.0, 0.0);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let ilp = IlpLegalizer::new(LegalizerConfig::default(), LocalSolver::Milp);
        ilp.legalize(&design, &mut state).unwrap();
        assert_eq!(state.position(d).unwrap().y % 2, 0);
        assert_eq!(state.position(blocker).unwrap().y % 2, 0);
    }
}
