//! Escalation tiers for cells the MLL + random-offset retry loop cannot
//! place (ROADMAP item 1: break the 0.78-utilization ceiling).
//!
//! The retry loop perturbs the *target* cell and re-runs MLL; at high
//! utilization the window around every perturbed position is often locally
//! full while capacity exists a few moves away. The ladder here engages for
//! a cell that keeps failing (every [`AFTER_ROUNDS`] retry rounds) and
//! spends increasing effort per tier:
//!
//! 1. **Ripple chains** ([`Legalizer::tier1_ripple`]): displace an
//!    already-placed victim to free the target's window, then re-place the
//!    victim — recursively displacing at most [`RIPPLE_DEPTH`] cells. The
//!    whole chain runs inside one nested [`mrl_db::Savepoint`]: its
//!    journal is both the displacement meter for the ripple budget and the
//!    rollback plan, so the chain either commits with a bounded total
//!    displacement or rolls back, leaving the placement logically
//!    identical.
//! 2. **Height-binned repack** ([`Legalizer::tier2_repack`]): rip up every
//!    cell in a scaled subwindow and re-insert them per height class,
//!    tallest first — the `MultirowAbacus` discipline, which stops short
//!    cells from fragmenting the rows multi-row cells need. All-or-nothing
//!    in a savepoint of its own.
//! 3. **ILP-local** ([`ilp_place_window`]): solve the window problem to
//!    optimality with a MILP on an *enlarged* frozen neighborhood. On the
//!    same window the MILP optimum equals exhaustive-exact MLL, so the
//!    added power is entirely the larger window; a region-size cap keeps
//!    the branch-and-bound tractable.
//!
//! Every tier is RNG-free and runs from the (sequential, deterministically
//! ordered) retry loop, so escalated runs stay bit-identical across thread
//! counts. Chains only touch cells inside MLL-sized
//! windows of positions derived from the target, so escalated moves stay
//! within the same halo radius the stripe scheduler already assumes —
//! escalation never runs inside stripes regardless, only in the residue
//! pass.
//!
//! The switches and the ripple budget are [`crate::EscalationConfig`]; the
//! sizes below are constants, because no caller varies them.

use crate::config::LegalizerConfig;
use crate::legalizer::{LegalizeCtx, LegalizeError, Legalizer};
use crate::mll::mll;
use crate::region::LocalRegion;
use mrl_db::{CellId, Design, PlacementState, Savepoint};
use mrl_geom::{SitePoint, SiteRect};
use mrl_ilp::{Model, Op, SolveError, VarId};
use mrl_trace::Phase;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Retry round at which the ladder first engages for a still-failing cell,
/// and the period at which it re-engages: late enough that easy cells never
/// pay for it, early enough that dense designs escalate before the random
/// offsets saturate the floorplan.
pub(crate) const AFTER_ROUNDS: u32 = 8;
/// Maximum ripple chain length in displaced cells (1 = direct victims only).
const RIPPLE_DEPTH: u32 = 2;
/// Victim candidates tried per ripple engagement.
const RIPPLE_CANDIDATES: usize = 8;
/// Repack subwindow half-extents, as a multiple of (`rx`, `ry`).
const REPACK_SCALE: i32 = 2;
/// A repack skips subwindows holding more placed cells than this (rip-up
/// cost grows quadratically-ish with the window population).
const REPACK_MAX_CELLS: usize = 48;
/// ILP neighborhood half-extents, as a multiple of (`rx`, `ry`).
const ILP_SCALE: i32 = 2;
/// The ILP tier skips regions holding more cells than this, which keeps
/// the branch-and-bound over disjunction binaries tractable.
const ILP_MAX_CELLS: usize = 64;

impl Legalizer {
    /// Runs the escalation ladder for one unplaced cell at its snapped
    /// input position, regardless of the engagement schedule. Returns
    /// whether the cell is now placed; on `false` the placement is
    /// logically identical to entry (every displaced cell restored).
    /// `round` is diagnostic (stamped into trace records).
    ///
    /// The retry loop calls this automatically every 8th round of a cell
    /// it keeps failing; it is public so harnesses can drive and
    /// property-test individual tiers.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::Db`] on database inconsistencies (indicates a
    /// bug), including a rollback that cannot restore the entry state.
    pub fn escalate_cell(
        &self,
        design: &Design,
        state: &mut PlacementState,
        cell: CellId,
        ctx: &mut LegalizeCtx,
        round: u32,
    ) -> Result<bool, LegalizeError> {
        ctx.stats.escalation.engaged += 1;
        let probe = ctx.open(Phase::Escalate);
        let result = self.run_tiers(design, state, cell, ctx, round);
        ctx.close(probe);
        if matches!(result, Ok(true)) {
            ctx.stats.placed += 1;
        }
        result
    }

    fn run_tiers(
        &self,
        design: &Design,
        state: &mut PlacementState,
        cell: CellId,
        ctx: &mut LegalizeCtx,
        round: u32,
    ) -> Result<bool, LegalizeError> {
        let e = self.config().escalation;
        let (fx, fy) = design.input_position(cell);
        let pos = self.snap(design, cell, fx, fy);
        if e.ripple && self.tier1_ripple(design, state, cell, pos, ctx, round)? {
            return Ok(true);
        }
        if e.repack && self.tier2_repack(design, state, cell, pos, ctx, round)? {
            return Ok(true);
        }
        if e.ilp {
            ctx.stats.escalation.ilp_solves += 1;
            let rx = self.config().rx * ILP_SCALE;
            let ry = self.config().ry * ILP_SCALE;
            if ilp_place_window(
                design,
                state,
                self.config(),
                rx,
                ry,
                Some(ILP_MAX_CELLS),
                cell,
                pos,
            )? {
                ctx.stats.escalation.ilp_placed += 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Tier 1: for each of the nearest victim candidates, try one greedy
    /// displacement chain in a savepoint of its own. A chain commits only
    /// if it places the target, re-places every displaced cell, and keeps
    /// the induced displacement its journal meters within budget;
    /// otherwise it rolls back completely before the next candidate is
    /// tried.
    fn tier1_ripple(
        &self,
        design: &Design,
        state: &mut PlacementState,
        target: CellId,
        pos: SitePoint,
        ctx: &mut LegalizeCtx,
        round: u32,
    ) -> Result<bool, LegalizeError> {
        let max_disp = self.config().escalation.ripple_max_disp;
        let first = victim_candidates(
            design,
            state,
            self.config(),
            target,
            pos,
            RIPPLE_CANDIDATES,
            &[target],
        );
        for victim in first {
            ctx.stats.escalation.ripple_chains += 1;
            let sp = state.savepoint();
            let chain = |state: &mut PlacementState, ctx: &mut LegalizeCtx| {
                let at = state.remove(design, victim)?;
                Ok(self.chain_place(design, state, target, pos, ctx, round)?
                    && self.drain_chain(design, state, target, (victim, at), ctx, round)?)
            };
            let done = match chain(state, ctx) {
                Ok(done) => done,
                Err(err) => {
                    state.release(sp);
                    return Err(err);
                }
            };
            let within_budget =
                done && induced_disp(state, &sp, target).is_some_and(|d| d <= max_disp);
            if within_budget {
                state.release(sp);
                ctx.stats.escalation.ripple_placed += 1;
                return Ok(true);
            }
            ctx.stats.escalation.ripple_rolled_back += 1;
            state.rollback_to(design, sp)?;
        }
        Ok(false)
    }

    /// The rest of one greedy chain once `victim` made room for `target`:
    /// drain the queue of displaced cells — re-placing each at its old
    /// position, displacing at most [`RIPPLE_DEPTH`] cells in total. Returns
    /// whether every cell ended up placed (the caller checks the budget and
    /// rolls back on failure).
    fn drain_chain(
        &self,
        design: &Design,
        state: &mut PlacementState,
        target: CellId,
        victim: (CellId, SitePoint),
        ctx: &mut LegalizeCtx,
        round: u32,
    ) -> Result<bool, LegalizeError> {
        let mut visited = vec![target, victim.0];
        let mut queue = VecDeque::from([victim]);
        let mut links = 1u32;
        while let Some((cell, back_at)) = queue.pop_front() {
            if self.chain_place(design, state, cell, back_at, ctx, round)? {
                continue;
            }
            if links >= RIPPLE_DEPTH {
                return Ok(false);
            }
            // Displace the nearest unvisited neighbour and retry once.
            let next = victim_candidates(design, state, self.config(), cell, back_at, 1, &visited);
            let Some(&further) = next.first() else {
                return Ok(false);
            };
            visited.push(further);
            let f_at = state.remove(design, further)?;
            queue.push_back((further, f_at));
            links += 1;
            if !self.chain_place(design, state, cell, back_at, ctx, round)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Tier 2: rip up every placed movable cell fully inside a scaled
    /// subwindow around the target and re-insert them (plus the target) in
    /// height-class-descending order, each at its prior position. All cells
    /// must re-place for the repack to commit; otherwise its savepoint
    /// rolls back.
    fn tier2_repack(
        &self,
        design: &Design,
        state: &mut PlacementState,
        target: CellId,
        pos: SitePoint,
        ctx: &mut LegalizeCtx,
        round: u32,
    ) -> Result<bool, LegalizeError> {
        let cfg = self.config();
        let c = design.cell(target);
        let (sx, sy) = (cfg.rx * REPACK_SCALE, cfg.ry * REPACK_SCALE);
        let win = SiteRect::new(
            pos.x - sx,
            pos.y - sy,
            2 * sx + c.width(),
            2 * sy + c.height(),
        );
        let mut items = cells_fully_inside(design, state, win);
        if items.is_empty() || items.len() > REPACK_MAX_CELLS {
            return Ok(false);
        }
        ctx.stats.escalation.repack_windows += 1;
        // Rip up inside the tier's savepoint, so a failed repack rolls the
        // removals back with everything else.
        let sp = state.savepoint();
        let ripped = items
            .iter()
            .try_for_each(|&(v, _)| state.remove(design, v).map(drop));
        items.push((target, pos));
        let packed = match ripped {
            Ok(()) => self.place_tallest_first(design, state, items, ctx, round),
            Err(err) => Err(err.into()),
        };
        match packed {
            Ok(true) => {
                state.release(sp);
                ctx.stats.escalation.repack_placed += 1;
                Ok(true)
            }
            Ok(false) => {
                state.rollback_to(design, sp)?;
                Ok(false)
            }
            Err(err) => {
                state.release(sp);
                Err(err)
            }
        }
    }

    /// Re-inserts the ripped-up cells of a repack window, tallest class
    /// first. Returns whether every cell was placed.
    fn place_tallest_first(
        &self,
        design: &Design,
        state: &mut PlacementState,
        mut items: Vec<(CellId, SitePoint)>,
        ctx: &mut LegalizeCtx,
        round: u32,
    ) -> Result<bool, LegalizeError> {
        // Within a class left-to-right, then by id. Earlier insertions are
        // "fixed" from the perspective of later ones exactly as in
        // MultirowAbacus's per-height passes.
        items.sort_by_key(|&(cell, at)| {
            (
                Reverse(design.cell(cell).height()),
                at.x,
                at.y,
                cell.index(),
            )
        });
        for (cell, at) in items {
            if !self.chain_place(design, state, cell, at, ctx, round)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Places one unplaced cell at `at`: directly if the footprint is
    /// free, else via MLL around `at`. Every move lands in the open
    /// savepoint, so the attempt stays rollback-able.
    fn chain_place(
        &self,
        design: &Design,
        state: &mut PlacementState,
        cell: CellId,
        at: SitePoint,
        ctx: &mut LegalizeCtx,
        round: u32,
    ) -> Result<bool, LegalizeError> {
        let cfg = self.config();
        if cfg.rail_mode.place(design, state, cell, at).is_ok() {
            return Ok(true);
        }
        ctx.stats.mll_calls += 1;
        Ok(mll(design, state, cfg, cell, at, ctx, round)?.is_ok())
    }
}

/// Total Manhattan displacement (sites + rows) the moves journaled since
/// `sp` inflicted on already placed cells, excluding the target. `None` if
/// a journaled cell is still unplaced (the chain is incomplete).
fn induced_disp(state: &PlacementState, sp: &Savepoint, target: CellId) -> Option<i64> {
    let mut total = 0i64;
    for &(c, was) in state.journal(sp) {
        if c == target {
            continue;
        }
        let was = was.expect("non-target journaled cells start placed");
        let now = state.position(c)?;
        total += i64::from((now.x - was.x).abs()) + i64::from((now.y - was.y).abs());
    }
    Some(total)
}

/// Placed movable cells intersecting the window of `cell` snapped at
/// `pos`, nearest (Manhattan) first, ties by id, capped at `limit`,
/// excluding `exclude`.
fn victim_candidates(
    design: &Design,
    state: &PlacementState,
    cfg: &LegalizerConfig,
    cell: CellId,
    pos: SitePoint,
    limit: usize,
    exclude: &[CellId],
) -> Vec<CellId> {
    let c = design.cell(cell);
    let x0 = pos.x - cfg.rx;
    let x1 = pos.x + cfg.rx + c.width();
    let y0 = (pos.y - cfg.ry).max(0);
    let y1 = (pos.y + cfg.ry + c.height()).min(design.floorplan().num_rows());
    let fp = design.floorplan();
    let mut found: Vec<CellId> = Vec::new();
    for row in y0..y1 {
        let Some(base) = fp.row_segment_base(row) else {
            continue;
        };
        for (i, seg) in fp.segments_in_row(row).iter().enumerate() {
            if seg.right() <= x0 || seg.x >= x1 {
                continue;
            }
            let seg_id = mrl_db::SegId::from_usize(base + i);
            for &v in state.cells_intersecting(seg_id, x0, x1) {
                if design.cell(v).is_movable() && !exclude.contains(&v) {
                    found.push(v);
                }
            }
        }
    }
    found.sort_unstable();
    found.dedup();
    found.sort_by_key(|&v| {
        let p = state.position(v).expect("candidate is placed");
        ((p.x - pos.x).abs() + (p.y - pos.y).abs(), v.index())
    });
    found.truncate(limit);
    found
}

/// Placed movable cells whose footprint lies fully inside `win`, with
/// their positions, ordered by id.
fn cells_fully_inside(
    design: &Design,
    state: &PlacementState,
    win: SiteRect,
) -> Vec<(CellId, SitePoint)> {
    let fp = design.floorplan();
    let y0 = win.y.max(0);
    let y1 = win.top().min(fp.num_rows());
    let mut found: Vec<CellId> = Vec::new();
    for row in y0..y1 {
        let Some(base) = fp.row_segment_base(row) else {
            continue;
        };
        for (i, seg) in fp.segments_in_row(row).iter().enumerate() {
            if seg.right() <= win.x || seg.x >= win.right() {
                continue;
            }
            let seg_id = mrl_db::SegId::from_usize(base + i);
            for &v in state.cells_intersecting(seg_id, win.x, win.right()) {
                if design.cell(v).is_movable() {
                    found.push(v);
                }
            }
        }
    }
    found.sort_unstable();
    found.dedup();
    found
        .into_iter()
        .filter_map(|v| {
            let r = state.rect_of(design, v).expect("candidate is placed");
            (r.x >= win.x && r.right() <= win.right() && r.y >= win.y && r.top() <= win.top())
                .then(|| (v, SitePoint::new(r.x, r.y)))
        })
        .collect()
}

/// Solves the local problem around `pos` to optimality with a window MILP
/// and commits the best solution. `rx`/`ry` override the configured window
/// half-extents (the escalation tier enlarges them); `max_cells` skips the
/// solve when the extracted region is too populous for the MILP's
/// branch-and-bound. Returns whether the target was placed.
///
/// This is the engine behind both the ILP escalation tier and the
/// `mrl-baselines` optimal local legalizer.
///
/// # Errors
///
/// [`LegalizeError::Db`] on database inconsistencies or solver failures.
#[allow(clippy::too_many_arguments)]
pub fn ilp_place_window(
    design: &Design,
    state: &mut PlacementState,
    cfg: &LegalizerConfig,
    rx: i32,
    ry: i32,
    max_cells: Option<usize>,
    target: CellId,
    pos: SitePoint,
) -> Result<bool, LegalizeError> {
    let cell = design.cell(target);
    let (w_t, h_t) = (cell.width(), cell.height());
    let window = SiteRect::new(pos.x - rx, pos.y - ry, 2 * rx + w_t, 2 * ry + h_t);
    let region = LocalRegion::extract_masked(design, state, window, design.region_of(target));
    if max_cells.is_some_and(|cap| region.cells.len() > cap) {
        return Ok(false);
    }
    let hw = region.height();
    let ht = h_t as usize;
    if hw < ht {
        return Ok(false);
    }
    let aspect = design.grid().aspect();
    let fp = design.floorplan();
    let mut best: Option<(f64, usize, Vec<i32>, i32)> = None; // cost, t, xs, xt
    for t in 0..=(hw - ht) {
        let rows = t..t + ht;
        if rows.clone().any(|r| region.rows[r].is_none()) {
            continue;
        }
        let bottom_global = region.bottom_row + t as i32;
        if cfg.rail_mode.is_aligned() && !fp.rail_compatible(cell.rail(), h_t, bottom_global) {
            continue;
        }
        match solve_window_milp(&region, t, ht, w_t, pos.x) {
            Ok(Some((hcost, xs, xt))) => {
                let cost = hcost + f64::from((bottom_global - pos.y).abs()) * aspect;
                if best.as_ref().is_none_or(|(c, ..)| cost < *c) {
                    best = Some((cost, t, xs, xt));
                }
            }
            Ok(None) => {}
            Err(e) => return Err(e),
        }
    }
    let Some((_, t, xs, xt)) = best else {
        return Ok(false);
    };
    let moves: Vec<(CellId, i32)> = (0..region.cells.len())
        .filter(|&i| region.cells.x[i] != xs[i])
        .map(|i| (region.cells.id[i], xs[i]))
        .collect();
    state
        .shift_batch(design, &moves)
        .map_err(LegalizeError::Db)?;
    let at = SitePoint::new(xt, region.bottom_row + t as i32);
    cfg.rail_mode.place(design, state, target, at)?;
    Ok(true)
}

/// Builds and solves the MILP for one candidate window of `region`:
/// target bottom at local row `t`, target height `ht` rows and width
/// `w_t` sites, desired x `desired_x`. Returns `(horizontal cost, local
/// cell xs, target x)` or `None` if infeasible.
///
/// Continuous positions for every local cell and the target, per-row
/// ordering constraints, big-M disjunction binaries with chain
/// monotonicity, hinge-linearized displacement objective. With the
/// binaries fixed the LP is a system of difference constraints — totally
/// unimodular — so branch-and-bound over the binaries yields integral
/// optima.
///
/// # Errors
///
/// [`LegalizeError::Db`] on solver failures other than infeasibility.
pub fn solve_window_milp(
    region: &LocalRegion,
    t: usize,
    ht: usize,
    w_t: i32,
    desired_x: i32,
) -> Result<Option<(f64, Vec<i32>, i32)>, LegalizeError> {
    let mut model = Model::new();
    let n = region.cells.len();
    // Position variables for local cells, bounded by their segments.
    let mut x_vars: Vec<VarId> = Vec::with_capacity(n);
    for i in 0..n {
        let mut lo = i32::MIN;
        let mut hi = i32::MAX;
        for row in region.cells.y[i]..region.cells.y[i] + region.cells.h[i] {
            let lr = (row - region.bottom_row) as usize;
            let seg = region.rows[lr].as_ref().expect("local cell rows exist");
            lo = lo.max(seg.x0);
            hi = hi.min(seg.x1 - region.cells.w[i]);
        }
        x_vars.push(model.add_var(f64::from(lo), f64::from(hi), 0.0));
    }
    // Target position, bounded by the window rows.
    let (mut t_lo, mut t_hi) = (i32::MIN, i32::MAX);
    for r in t..t + ht {
        let seg = region.rows[r].as_ref().expect("window rows checked");
        t_lo = t_lo.max(seg.x0);
        t_hi = t_hi.min(seg.x1 - w_t);
    }
    if t_lo > t_hi {
        return Ok(None);
    }
    let x_t = model.add_var(f64::from(t_lo), f64::from(t_hi), 0.0);

    // Per-row ordering constraints between consecutive local cells.
    for seg in region.rows.iter().flatten() {
        for pair in seg.cells.windows(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            let w_a = f64::from(region.cells.w[a]);
            model.add_constraint(&[(x_vars[a], 1.0), (x_vars[b], -1.0)], Op::Le, -w_a);
        }
    }

    // Disjunction binaries for cells sharing a row with the target.
    let span_width: i32 = region
        .rows
        .iter()
        .flatten()
        .map(|s| s.x1 - s.x0)
        .max()
        .unwrap_or(0);
    let big_m = f64::from(span_width + w_t + 1);
    let mut delta: Vec<Option<VarId>> = vec![None; n];
    for r in t..t + ht {
        let seg = region.rows[r].as_ref().expect("window rows checked");
        let mut prev: Option<usize> = None;
        for &ci in &seg.cells {
            let ci = ci as usize;
            let d = *delta[ci].get_or_insert_with(|| model.add_binary_var(0.0));
            // δ = 1 -> target left of cell: x_t + w_t <= x_i.
            model.add_constraint(
                &[(x_t, 1.0), (x_vars[ci], -1.0), (d, big_m)],
                Op::Le,
                big_m - f64::from(w_t),
            );
            // δ = 0 -> cell left of target: x_i + w_i <= x_t.
            model.add_constraint(
                &[(x_vars[ci], 1.0), (x_t, -1.0), (d, -big_m)],
                Op::Le,
                -f64::from(region.cells.w[ci]),
            );
            // Monotone along the row: left cell's δ ≤ right cell's δ.
            if let Some(p) = prev {
                if let (Some(dp), Some(dc)) = (delta[p], delta[ci]) {
                    model.add_constraint(&[(dp, 1.0), (dc, -1.0)], Op::Le, 0.0);
                }
            }
            prev = Some(ci);
        }
    }

    // Displacement hinges: d_i >= |x_i - x_i0|, d_t >= |x_t - desired|.
    let mut objective_vars = Vec::with_capacity(n + 1);
    for (i, &xv) in x_vars.iter().enumerate().take(n) {
        let cx = region.cells.x[i];
        let d = model.add_var(0.0, f64::INFINITY, 1.0);
        model.add_constraint(&[(d, 1.0), (xv, -1.0)], Op::Ge, -f64::from(cx));
        model.add_constraint(&[(d, 1.0), (xv, 1.0)], Op::Ge, f64::from(cx));
        objective_vars.push(d);
    }
    let d_t = model.add_var(0.0, f64::INFINITY, 1.0);
    model.add_constraint(&[(d_t, 1.0), (x_t, -1.0)], Op::Ge, -f64::from(desired_x));
    model.add_constraint(&[(d_t, 1.0), (x_t, 1.0)], Op::Ge, f64::from(desired_x));
    objective_vars.push(d_t);

    match model.solve() {
        Ok(sol) => {
            let xs: Vec<i32> = x_vars.iter().map(|&v| sol[v].round() as i32).collect();
            let xt = sol[x_t].round() as i32;
            Ok(Some((sol.objective, xs, xt)))
        }
        Err(SolveError::Infeasible) => Ok(None),
        Err(e) => Err(LegalizeError::Db(mrl_db::DbError::Invalid(format!(
            "milp solver failure: {e}"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EscalationConfig, PowerRailMode};
    use mrl_db::DesignBuilder;

    fn relaxed_escalating() -> LegalizerConfig {
        LegalizerConfig::default()
            .with_rail_mode(PowerRailMode::Relaxed)
            .with_window(6, 1)
    }

    /// One row of 12 sites holding a(4) and c(4) with 4 free; target t(4)
    /// fits only if something moves out of its way — but here everything
    /// fits on the row, so tier 1 should succeed by shifting.
    #[test]
    fn ripple_places_target_in_tight_row() {
        let mut b = DesignBuilder::new(2, 12);
        let a = b.add_cell("a", 4, 1);
        let c = b.add_cell("c", 4, 1);
        let t = b.add_cell("t", 4, 1);
        b.set_input_position(t, 4.0, 0.0);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(0, 0)).unwrap();
        state.place(&design, c, SitePoint::new(5, 0)).unwrap();
        let lg = Legalizer::new(relaxed_escalating());
        let mut ctx = LegalizeCtx::new();
        let placed = lg
            .escalate_cell(&design, &mut state, t, &mut ctx, 8)
            .unwrap();
        assert!(placed);
        assert!(state.is_placed(t));
        assert_eq!(state.num_placed(), 3);
        assert_eq!(ctx.stats.escalation.engaged, 1);
        assert!(ctx.stats.escalation.placed() == 1);
        assert_eq!(state.open_savepoints(), 0);
    }

    #[test]
    fn escalate_failure_leaves_state_logically_identical() {
        // Only row 1 is free (rows 0 and 2 are blocked); a double-height
        // VDD cell is rail-incompatible with every remaining window under
        // aligned mode, so all three tiers fail — and each must roll back
        // to exactly the entry placement (the placed single-height cell is
        // displaced and restored along the way).
        let mut b = DesignBuilder::new(3, 10);
        let a = b.add_cell("a", 3, 1);
        let d = b.add_cell("d", 2, 2);
        b.set_input_position(d, 4.0, 0.0);
        b.add_blockage(mrl_geom::SiteRect::new(0, 0, 10, 1));
        b.add_blockage(mrl_geom::SiteRect::new(0, 2, 10, 1));
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(2, 1)).unwrap();
        let before: Vec<_> = state.iter_placed().collect();
        let lg = Legalizer::new(LegalizerConfig::default().with_window(6, 1));
        let mut ctx = LegalizeCtx::new();
        let placed = lg
            .escalate_cell(&design, &mut state, d, &mut ctx, 8)
            .unwrap();
        assert!(!placed);
        assert_eq!(state.open_savepoints(), 0);
        assert!(!state.is_placed(d));
        let after: Vec<_> = state.iter_placed().collect();
        assert_eq!(before, after);
        assert_eq!(state.position(a), Some(SitePoint::new(2, 1)));
    }

    #[test]
    fn ilp_tier_places_when_chains_cannot() {
        // Ripple is disabled; the ILP window (scale 2) sees far enough to
        // shift the wall of cells left and admit the target.
        let mut b = DesignBuilder::new(1, 20);
        let mut wall = Vec::new();
        for i in 0..4 {
            let c = b.add_cell(format!("w{i}"), 4, 1);
            wall.push(c);
        }
        let t = b.add_cell("t", 4, 1);
        b.set_input_position(t, 8.0, 0.0);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        for (i, &c) in wall.iter().enumerate() {
            state
                .place(&design, c, SitePoint::new(1 + 4 * i as i32, 0))
                .unwrap();
        }
        let cfg = LegalizerConfig::default()
            .with_rail_mode(PowerRailMode::Relaxed)
            .with_window(4, 1)
            .with_escalation(EscalationConfig::default().with_tiers(false, false, true));
        let lg = Legalizer::new(cfg);
        let mut ctx = LegalizeCtx::new();
        let placed = lg
            .escalate_cell(&design, &mut state, t, &mut ctx, 8)
            .unwrap();
        assert!(placed, "ILP window should solve the packed row");
        assert_eq!(ctx.stats.escalation.ilp_placed, 1);
        assert_eq!(state.num_placed(), 5);
    }

    #[test]
    fn milp_window_engine_matches_baseline_behaviour() {
        // Direct engine check: a 2-cell wall with slack solves to the
        // 2-push optimum, mirroring the mrl-baselines cross-validation.
        let mut b = DesignBuilder::new(1, 30);
        let a = b.add_cell("a", 2, 1);
        let c = b.add_cell("c", 2, 1);
        let t = b.add_cell("t", 2, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, a, SitePoint::new(10, 0)).unwrap();
        state.place(&design, c, SitePoint::new(12, 0)).unwrap();
        let cfg = LegalizerConfig::default().with_rail_mode(PowerRailMode::Relaxed);
        let placed = ilp_place_window(
            &design,
            &mut state,
            &cfg,
            cfg.rx,
            cfg.ry,
            None,
            t,
            SitePoint::new(11, 0),
        )
        .unwrap();
        assert!(placed);
        assert_eq!(state.position(t), Some(SitePoint::new(11, 0)));
        assert_eq!(state.position(a), Some(SitePoint::new(9, 0)));
        assert_eq!(state.position(c), Some(SitePoint::new(13, 0)));
    }
}
