//! The MLL entry point (Section 4): extract → enumerate → evaluate →
//! realize → commit.

use crate::config::LegalizerConfig;
use crate::enumerate::find_best_insertion_point;
use crate::evaluate::{Evaluation, TargetSpec};
use crate::legalizer::LegalizeCtx;
use crate::realize::realize;
use crate::region::LocalRegion;
use mrl_db::{CellId, DbError, Design, PlacementState};
use mrl_geom::{SitePoint, SiteRect};
use mrl_trace::{AttemptOutcome, AttemptRecord, FailReason, LegalizeStats, Phase};

/// Runs Multi-row Local Legalization for one unplaced `target` cell at the
/// site-aligned `pos`, committing the result to `state` on success.
///
/// A window of `2·Rx + w` by `2·Ry + h` sites centered on `pos` is
/// extracted (Section 3); the minimum-cost valid insertion point within it
/// is realized and its evaluation returned. On failure the placement is
/// untouched and the reason says why: an empty extraction window versus a
/// window with free space but no valid insertion point. To undo a success,
/// open a [`PlacementState::savepoint`] before the call.
///
/// Times region extraction as [`Phase::Extract`] and the commit as
/// [`Phase::Realize`]. With a trace attached it also records their spans
/// and one [`AttemptRecord`] per call carrying the window, the combo
/// counters this invocation contributed, and the outcome. `round` is
/// purely diagnostic (stamped into the attempt record): 0 for first-pass
/// calls, `k` for retry-loop round `k`.
///
/// # Errors
///
/// Returns [`DbError::AlreadyPlaced`] if `target` is already placed. Other
/// database errors indicate an internal inconsistency and are propagated.
pub fn mll(
    design: &Design,
    state: &mut PlacementState,
    cfg: &LegalizerConfig,
    target: CellId,
    pos: SitePoint,
    ctx: &mut LegalizeCtx,
    round: u32,
) -> Result<Result<Evaluation, FailReason>, DbError> {
    if state.is_placed(target) {
        return Err(DbError::AlreadyPlaced(target));
    }
    let cell = design.cell(target);
    let window = SiteRect::new(
        pos.x - cfg.rx,
        pos.y - cfg.ry,
        2 * cfg.rx + cell.width(),
        2 * cfg.ry + cell.height(),
    );
    let probe = ctx.open(Phase::Extract);
    // The region lives in the arena so its SoA buffers stay warm across
    // calls; it is taken out for the duration of this call because the
    // enumeration kernel borrows the arena mutably alongside it.
    let mut region = std::mem::take(&mut ctx.arena.region);
    region.extract_masked_into(
        &mut ctx.arena.extract,
        design,
        state,
        window,
        design.region_of(target),
    );
    ctx.close(probe);
    // Snapshot the combo counters so the attempt record can report this
    // invocation's contribution rather than the running totals.
    let p = &ctx.stats.phases;
    let combos_before = (p.combos_generated, p.combos_pruned, p.combos_evaluated);
    let attempt = |stats: &LegalizeStats, region: &LocalRegion, outcome: AttemptOutcome| {
        let p = &stats.phases;
        AttemptRecord {
            cell: target.index() as u32,
            height: cell.height() as u8,
            retry_round: round,
            window: [window.x, window.y, window.w, window.h],
            region_cells: region.cells.len() as u32,
            combos_generated: p.combos_generated - combos_before.0,
            combos_pruned: p.combos_pruned - combos_before.1,
            combos_evaluated: p.combos_evaluated - combos_before.2,
            outcome,
        }
    };
    // An extraction with no usable row at all (or fewer rows than the target
    // is tall) can never host the cell — record it as a distinct failure so
    // "window landed outside every region" is visible in diagnostics.
    if region.height() < cell.height() as usize || region.rows.iter().all(|r| r.is_none()) {
        let reason = FailReason::RegionExtractionEmpty;
        ctx.attempt(|stats| attempt(stats, &region, AttemptOutcome::Fail(reason)));
        ctx.arena.region = region;
        return Ok(Err(reason));
    }
    let spec = TargetSpec {
        w: cell.width(),
        h: cell.height(),
        x: pos.x,
        y: pos.y,
        rail: cell.rail(),
    };
    let Some(point) = find_best_insertion_point(&region, design, &spec, cfg, ctx) else {
        let reason = FailReason::NoInsertionPoint;
        ctx.attempt(|stats| attempt(stats, &region, AttemptOutcome::Fail(reason)));
        ctx.arena.region = region;
        return Ok(Err(reason));
    };
    let probe = ctx.open(Phase::Realize);
    let realization = realize(&region, &point, &spec);
    state.shift_batch(design, &realization.moves)?;
    let at = SitePoint::new(realization.target_x, realization.target_row);
    cfg.rail_mode.place(design, state, target, at)?;
    ctx.close(probe);
    let outcome = AttemptOutcome::Mll {
        x: at.x,
        y: at.y,
        cost: point.eval.cost,
    };
    ctx.attempt(|stats| attempt(stats, &region, outcome));
    ctx.arena.region = region;
    Ok(Ok(point.eval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PowerRailMode;
    use mrl_db::DesignBuilder;

    fn relaxed() -> LegalizerConfig {
        LegalizerConfig::default().with_rail_mode(PowerRailMode::Relaxed)
    }

    fn run(
        design: &Design,
        state: &mut PlacementState,
        cfg: &LegalizerConfig,
        target: CellId,
        pos: SitePoint,
    ) -> Result<Result<Evaluation, FailReason>, DbError> {
        mll(design, state, cfg, target, pos, &mut LegalizeCtx::new(), 0)
    }

    #[test]
    fn mll_places_into_free_space_without_moves() {
        let mut b = DesignBuilder::new(2, 40);
        let a = b.add_cell("a", 3, 1);
        let t = b.add_cell("t", 3, 2);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(10, 0)).unwrap();
        let out = run(&design, &mut state, &relaxed(), t, SitePoint::new(20, 0)).unwrap();
        assert!(out.is_ok());
        assert_eq!(state.position(t), Some(SitePoint::new(20, 0)));
        assert_eq!(state.position(a), Some(SitePoint::new(10, 0)));
    }

    #[test]
    fn mll_pushes_neighbors_to_make_room() {
        let mut b = DesignBuilder::new(1, 12);
        let a = b.add_cell("a", 4, 1);
        let c = b.add_cell("c", 4, 1);
        let t = b.add_cell("t", 4, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(2, 0)).unwrap();
        state.place(&design, c, SitePoint::new(7, 0)).unwrap();
        // Only 12 sites; t must squeeze in, pushing a to 0 and c to 8.
        let out = run(&design, &mut state, &relaxed(), t, SitePoint::new(4, 0)).unwrap();
        assert!(out.is_ok());
        assert_eq!(state.position(a), Some(SitePoint::new(0, 0)));
        assert_eq!(state.position(t), Some(SitePoint::new(4, 0)));
        assert_eq!(state.position(c), Some(SitePoint::new(8, 0)));
    }

    #[test]
    fn mll_fails_when_free_space_is_fragmented() {
        // Segments [0,5) and [7,14); the free sites (1 + 3) are split so a
        // 4-wide target fits nowhere even though total capacity suffices.
        let mut b = DesignBuilder::new(1, 14);
        let a = b.add_cell("a", 4, 1);
        let c = b.add_cell("c", 4, 1);
        let t = b.add_cell("t", 4, 1);
        b.add_blockage(mrl_geom::SiteRect::new(5, 0, 2, 1));
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(0, 0)).unwrap();
        state.place(&design, c, SitePoint::new(7, 0)).unwrap();
        let result = run(&design, &mut state, &relaxed(), t, SitePoint::new(3, 0)).unwrap();
        assert_eq!(result, Err(FailReason::NoInsertionPoint));
        // Placement untouched.
        assert_eq!(state.position(a), Some(SitePoint::new(0, 0)));
        assert_eq!(state.position(c), Some(SitePoint::new(7, 0)));
        assert!(!state.is_placed(t));
    }

    #[test]
    fn mll_respects_rail_alignment() {
        let mut b = DesignBuilder::new(4, 20);
        let t = b.add_cell("t", 2, 2); // VDD bottom: rows 0 and 2 only
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let cfg = LegalizerConfig::default();
        let out = run(&design, &mut state, &cfg, t, SitePoint::new(5, 1)).unwrap();
        assert!(out.is_ok());
        let p = state.position(t).unwrap();
        assert!(p.y == 0 || p.y == 2, "even-height cell on row {}", p.y);
    }

    #[test]
    fn mll_relaxed_allows_any_row() {
        let mut b = DesignBuilder::new(4, 20);
        let t = b.add_cell("t", 2, 2);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let out = run(&design, &mut state, &relaxed(), t, SitePoint::new(5, 1)).unwrap();
        assert!(out.is_ok());
        assert_eq!(state.position(t).unwrap().y, 1);
    }

    #[test]
    fn mll_on_placed_cell_is_an_error() {
        let mut b = DesignBuilder::new(1, 10);
        let a = b.add_cell("a", 2, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(0, 0)).unwrap();
        assert!(matches!(
            run(&design, &mut state, &relaxed(), a, SitePoint::new(5, 0)),
            Err(DbError::AlreadyPlaced(_))
        ));
    }

    #[test]
    fn savepoint_rollback_restores_exact_state() {
        let mut b = DesignBuilder::new(1, 12);
        let a = b.add_cell("a", 4, 1);
        let c = b.add_cell("c", 4, 1);
        let t = b.add_cell("t", 4, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(2, 0)).unwrap();
        state.place(&design, c, SitePoint::new(7, 0)).unwrap();
        let sp = state.savepoint();
        let out = run(&design, &mut state, &relaxed(), t, SitePoint::new(4, 0)).unwrap();
        assert!(out.is_ok());
        // Both neighbours shifted, then the target placed.
        assert_eq!(state.journal(&sp).len(), 3);
        state.rollback_to(&design, sp).unwrap();
        assert!(!state.is_placed(t));
        assert_eq!(state.position(a), Some(SitePoint::new(2, 0)));
        assert_eq!(state.position(c), Some(SitePoint::new(7, 0)));
    }

    #[test]
    fn mll_prefers_minimal_displacement_insertion() {
        // A tight spot at the desired position vs free space further away:
        // MLL should compare push cost vs target displacement.
        let mut b = DesignBuilder::new(1, 30);
        let a = b.add_cell("a", 2, 1);
        let c = b.add_cell("c", 2, 1);
        let t = b.add_cell("t", 2, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(10, 0)).unwrap();
        state.place(&design, c, SitePoint::new(12, 0)).unwrap();
        // Desired x = 11 sits inside the a|c wall; inserting between them
        // costs 2 pushes of 1 + 0 target displacement... depends; placing
        // at 14 (right of c) costs 3 of target displacement. The optimum
        // (cost 2) splits a and c.
        let eval = run(&design, &mut state, &relaxed(), t, SitePoint::new(11, 0))
            .unwrap()
            .expect("expected placement");
        assert_eq!(eval.cost, 2.0);
        assert_eq!(state.position(t), Some(SitePoint::new(11, 0)));
        assert_eq!(state.position(a), Some(SitePoint::new(9, 0)));
        assert_eq!(state.position(c), Some(SitePoint::new(13, 0)));
    }
}
