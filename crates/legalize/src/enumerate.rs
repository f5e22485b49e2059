//! Valid insertion point enumeration (Sections 5.1.2–5.1.3, Figure 8) and
//! the best-first branch-and-bound search over the enumerated points.
//!
//! An *insertion point* for a target cell of height `h` is a choice of one
//! insertion interval in each of `h` vertically consecutive rows such that
//! the intervals share a common cutline (a common feasible x). When
//! multi-row local cells exist, intervals on opposite sides of such a cell
//! must not combine even if their ranges overlap (Figure 8).
//!
//! The scanline works over interval endpoints in ascending order (left
//! endpoints before right endpoints at equal x). A queue `Q[a][s]` holds
//! the currently open intervals of row `s` that may pair with intervals of
//! row `a`. Processing the left endpoint of interval `I` on row `a`:
//!
//! 1. if `I`'s left cell is a multi-row cell `M` spanning rows `S`, every
//!    `Q[a][s]` with `s ∈ S` is purged of intervals on the left side of `M`
//!    (those whose left cell is not `M`);
//! 2. all insertion points `{I} × Π_s Q[a][s]` over windows of `h`
//!    consecutive rows containing `a` are emitted (each combination is
//!    emitted exactly once, at the largest left endpoint among its
//!    intervals);
//! 3. `I` joins `Q[r][a]` for every row `r` within `h − 1` of `a`.
//!
//! Right endpoints remove the interval from all queues. A one-row target
//! pairs with no other row, so its scan has no right endpoints and never
//! touches a queue. Power-rail filtering simply skips windows whose bottom
//! row cannot host the target.
//!
//! # Search strategies
//!
//! The scanline only *generates* combinations; how they are scored is a
//! [`LegalizerConfig::prune`] choice:
//!
//! * **Exhaustive** (`prune = false`): every generated combination is
//!   scored in emission order and the first minimum wins.
//! * **Best-first** (`prune = true`, the default): each combination enters
//!   a binary heap keyed by an *admissible lower bound* on its cost — the
//!   horizontal distance from `target.x` to the combination's feasible
//!   range plus the exact [`vertical_cost`] of its row band. Combinations
//!   are then popped cheapest-bound-first and scored; as soon as a popped
//!   bound can no longer beat the incumbent (bound above the best cost, or
//!   equal with a later emission rank), the entire remaining heap is
//!   pruned. The bound is a true lower bound because both evaluators add
//!   the target's own hinge `|x − target.x| ≥ dist(target.x, range)` to a
//!   non-negative sum, and both add the identical vertical term, so the
//!   search returns bit-identical results to the exhaustive path — same
//!   insertion point, ties broken by the same emission order.

use crate::config::{EvalMode, LegalizerConfig, PowerRailMode};
use crate::evaluate::{evaluate_exact_in, evaluate_in, vertical_cost, Evaluation, TargetSpec};
use crate::interval::InsInterval;
use crate::legalizer::LegalizeCtx;
use crate::region::LocalRegion;
use crate::scratch::{Candidate, EvalScratch, ScanEvent, ScratchArena};
use mrl_db::Design;
use mrl_geom::Interval;
use mrl_trace::{Phase, PhaseTimes, Probe, TraceBuf};
use std::collections::BinaryHeap;

/// A scored valid insertion point.
#[derive(Clone, Debug, PartialEq)]
pub struct InsertionPoint {
    /// Local row index of the bottom spanned row.
    pub bottom_row: usize,
    /// The chosen intervals, bottom-up (`target.h` of them).
    pub intervals: Vec<InsInterval>,
    /// The optimal target x and the total displacement cost.
    pub eval: Evaluation,
}

/// Enumerates and scores every valid insertion point for `target` in the
/// region. Intended for diagnostics and tests; the legalizer uses
/// [`find_best_insertion_point`] which keeps only the minimum.
pub fn enumerate_insertion_points(
    region: &LocalRegion,
    design: &Design,
    target: &TargetSpec,
    cfg: &LegalizerConfig,
) -> Vec<InsertionPoint> {
    let mut arena = ScratchArena::new();
    let aspect = design.grid().aspect();
    let mut out = Vec::new();
    let ScratchArena {
        intervals,
        events,
        rail_ok,
        queues,
        combo,
        combo_buf,
        eval,
        ..
    } = &mut arena;
    if !prepare(region, design, target, cfg, intervals, events, rail_ok) {
        return out;
    }
    let intervals: &[InsInterval] = intervals;
    generate(
        region,
        target,
        intervals,
        events,
        rail_ok,
        queues,
        combo,
        &mut |t, ids| {
            combo_buf.clear();
            combo_buf.extend(ids.iter().map(|&j| intervals[j as usize]));
            let ev = score(
                region,
                combo_buf,
                target,
                region.bottom_row + t as i32,
                aspect,
                cfg,
                eval,
            );
            out.push(InsertionPoint {
                bottom_row: t,
                intervals: combo_buf.clone(),
                eval: ev,
            });
        },
    );
    out
}

/// Returns the minimum-cost valid insertion point, if any exists.
///
/// Runs on `ctx`'s arena, allocation-free once it is warm. The whole scan
/// is probed as [`Phase::Enumerate`] and each scored candidate within it as
/// [`Phase::Evaluate`].
pub fn find_best_insertion_point(
    region: &LocalRegion,
    design: &Design,
    target: &TargetSpec,
    cfg: &LegalizerConfig,
    ctx: &mut LegalizeCtx,
) -> Option<InsertionPoint> {
    let LegalizeCtx {
        arena,
        stats,
        trace,
    } = ctx;
    let phases = &mut stats.phases;
    let probe = Probe::open(Phase::Enumerate, trace);
    let aspect = design.grid().aspect();
    let ScratchArena {
        intervals,
        events,
        rail_ok,
        queues,
        combo,
        combo_buf,
        pool,
        cands,
        best_combo,
        eval,
        ..
    } = arena;
    let best = if prepare(region, design, target, cfg, intervals, events, rail_ok) {
        let intervals: &[InsInterval] = intervals;
        if cfg.prune {
            best_first(
                region, target, cfg, aspect, intervals, events, rail_ok, queues, combo, combo_buf,
                pool, cands, best_combo, eval, phases, trace,
            )
        } else {
            exhaustive(
                region, target, cfg, aspect, intervals, events, rail_ok, queues, combo, combo_buf,
                best_combo, eval, phases, trace,
            )
        }
    } else {
        None
    };
    probe.close(phases, trace);
    best
}

/// Builds the insertion intervals, endpoint events, and rail filter for one
/// search into the arena buffers. Returns `false` when no valid insertion
/// point can exist (degenerate target, short window, or no intervals).
fn prepare(
    region: &LocalRegion,
    design: &Design,
    target: &TargetSpec,
    cfg: &LegalizerConfig,
    intervals: &mut Vec<InsInterval>,
    events: &mut Vec<ScanEvent>,
    rail_ok: &mut Vec<bool>,
) -> bool {
    let ht = target.h as usize;
    let hw = region.height();
    if ht == 0 || hw < ht {
        return false;
    }
    region.insertion_intervals_into(target.w, intervals);
    if intervals.is_empty() {
        return false;
    }
    let fp = design.floorplan();
    // Precompute which windows' bottom rows pass the rail filter.
    rail_ok.clear();
    rail_ok.extend((0..hw).map(|t| {
        cfg.rail_mode == PowerRailMode::Relaxed
            || fp.rail_compatible(target.rail, target.h, region.bottom_row + t as i32)
    }));
    scan_events(intervals, ht > 1, events);
    true
}

/// Fills `events` with the scanline endpoints of `intervals` in scan order.
/// Close events exist only when `close` is set: for a one-row target they
/// would only remove intervals from pairing queues that nothing reads.
fn scan_events(intervals: &[InsInterval], close: bool, events: &mut Vec<ScanEvent>) {
    events.clear();
    for (i, iv) in intervals.iter().enumerate() {
        events.push(ScanEvent {
            x: iv.range.lo,
            close: false,
            idx: i as u32,
        });
        if close {
            events.push(ScanEvent {
                x: iv.range.hi,
                close: true,
                idx: i as u32,
            });
        }
    }
    // Left endpoints precede right endpoints at equal x so touching
    // intervals (zero-width common cutline) still combine. The index makes
    // the key total, so equal endpoints keep their push order.
    events.sort_unstable_by_key(|e| (e.x, e.close, e.idx));
}

/// The scanline core: invokes `emit(t, interval_ids)` for every valid
/// insertion point in deterministic emission order (identical for both
/// search strategies, so they search the same candidate set).
#[allow(clippy::too_many_arguments)]
fn generate<F>(
    region: &LocalRegion,
    target: &TargetSpec,
    intervals: &[InsInterval],
    events: &[ScanEvent],
    rail_ok: &[bool],
    queues: &mut Vec<Vec<u32>>,
    combo: &mut Vec<u32>,
    emit: &mut F,
) where
    F: FnMut(usize, &[u32]),
{
    let ht = target.h as usize;
    let hw = region.height();
    // queues[a * hw + s]: open interval ids of row s pairable with row a.
    // A one-row target pairs row a with no other row and reads none.
    if ht > 1 {
        if queues.len() < hw * hw {
            queues.resize_with(hw * hw, Vec::new);
        }
        for q in queues.iter_mut().take(hw * hw) {
            q.clear();
        }
    }
    let pair_lo = |a: usize| a.saturating_sub(ht - 1);
    let pair_hi = |a: usize| (a + ht - 1).min(hw - 1);

    for ev in events {
        let iv = &intervals[ev.idx as usize];
        let a = iv.row;
        if ev.close {
            for r in pair_lo(a)..=pair_hi(a) {
                if r != a {
                    queues[r * hw + a].retain(|&j| j != ev.idx);
                }
            }
            continue;
        }
        // (1) Multi-row blocking: purge intervals on the far side of the
        // left cell.
        if let Some(ci) = iv.left {
            let i = ci as usize;
            if region.cells.h[i] > 1 {
                for row in region.cells.y[i]..region.cells.y[i] + region.cells.h[i] {
                    let s = (row - region.bottom_row) as usize;
                    if s != a && s >= pair_lo(a) && s <= pair_hi(a) {
                        queues[a * hw + s].retain(|&j| intervals[j as usize].left == Some(ci));
                    }
                }
            }
        }
        // (2) Emit {I} x product of queues over each window containing `a`.
        if ht == 1 {
            if rail_ok[a] {
                combo.clear();
                combo.push(ev.idx);
                emit(a, combo);
            }
        } else {
            let t_lo = a.saturating_sub(ht - 1);
            let t_hi = a.min(hw - ht);
            #[allow(clippy::needless_range_loop)] // `t` is a row index, not just a key into rail_ok
            for t in t_lo..=t_hi {
                if !rail_ok[t] {
                    continue;
                }
                // Depth-first product over rows t..t+ht.
                combo.clear();
                product_emit(
                    region, intervals, queues, hw, ev.idx, a, t, ht, t, combo, emit,
                );
            }
        }
        // (3) Publish the interval for future pairings.
        for r in pair_lo(a)..=pair_hi(a) {
            if r != a {
                queues[r * hw + a].push(ev.idx);
            }
        }
    }
}

/// Emits all combinations for one window `t` (recursing over rows
/// `s = t..t+ht`).
#[allow(clippy::too_many_arguments)]
fn product_emit<F>(
    region: &LocalRegion,
    intervals: &[InsInterval],
    queues: &[Vec<u32>],
    hw: usize,
    current: u32,
    a: usize,
    t: usize,
    ht: usize,
    s: usize,
    combo: &mut Vec<u32>,
    emit: &mut F,
) where
    F: FnMut(usize, &[u32]),
{
    if s == t + ht {
        // The paper's queue clearing makes pairs sharing a row with the
        // generating interval side-consistent, which is complete for
        // h ≤ 2. For taller targets a pair of *other* rows can still
        // straddle a multi-row cell (e.g. rows 1/2 of a 3-row window
        // generated from row 3), so verify explicitly.
        if ht < 3 || combo_is_side_consistent(region, intervals, combo) {
            emit(t, combo);
        }
        return;
    }
    // Row `a` holds the generating interval; every other row takes each
    // open interval of its queue in turn.
    let choices: &[u32] = if s == a {
        std::slice::from_ref(&current)
    } else {
        &queues[a * hw + s]
    };
    for &j in choices {
        combo.push(j);
        product_emit(
            region,
            intervals,
            queues,
            hw,
            current,
            a,
            t,
            ht,
            s + 1,
            combo,
            emit,
        );
        combo.pop();
    }
}

/// Exhaustive search: score every generated combination in emission order;
/// the first minimum wins (strict `<` replacement).
#[allow(clippy::too_many_arguments)]
fn exhaustive(
    region: &LocalRegion,
    target: &TargetSpec,
    cfg: &LegalizerConfig,
    aspect: f64,
    intervals: &[InsInterval],
    events: &[ScanEvent],
    rail_ok: &[bool],
    queues: &mut Vec<Vec<u32>>,
    combo: &mut Vec<u32>,
    combo_buf: &mut Vec<InsInterval>,
    best_combo: &mut Vec<u32>,
    eval: &mut EvalScratch,
    phases: &mut PhaseTimes,
    trace: &mut Option<TraceBuf>,
) -> Option<InsertionPoint> {
    let mut best: Option<(usize, Evaluation)> = None;
    generate(
        region,
        target,
        intervals,
        events,
        rail_ok,
        queues,
        combo,
        &mut |t, ids| {
            phases.combos_generated += 1;
            phases.combos_evaluated += 1;
            combo_buf.clear();
            combo_buf.extend(ids.iter().map(|&j| intervals[j as usize]));
            let probe = Probe::open(Phase::Evaluate, trace);
            let ev = score(
                region,
                combo_buf,
                target,
                region.bottom_row + t as i32,
                aspect,
                cfg,
                eval,
            );
            probe.close(phases, trace);
            if best.as_ref().is_none_or(|(_, b)| ev.cost < b.cost) {
                best = Some((t, ev));
                best_combo.clear();
                best_combo.extend_from_slice(ids);
            }
        },
    );
    best.map(|(t, ev)| InsertionPoint {
        bottom_row: t,
        intervals: best_combo.iter().map(|&j| intervals[j as usize]).collect(),
        eval: ev,
    })
}

/// Best-first branch-and-bound: generate all combinations with admissible
/// lower bounds, then pop them cheapest-bound-first and stop as soon as the
/// incumbent can no longer be beaten. Result-identical to [`exhaustive`].
#[allow(clippy::too_many_arguments)]
fn best_first(
    region: &LocalRegion,
    target: &TargetSpec,
    cfg: &LegalizerConfig,
    aspect: f64,
    intervals: &[InsInterval],
    events: &[ScanEvent],
    rail_ok: &[bool],
    queues: &mut Vec<Vec<u32>>,
    combo: &mut Vec<u32>,
    combo_buf: &mut Vec<InsInterval>,
    pool: &mut Vec<u32>,
    cands: &mut Vec<Candidate>,
    best_combo: &mut Vec<u32>,
    eval: &mut EvalScratch,
    phases: &mut PhaseTimes,
    trace: &mut Option<TraceBuf>,
) -> Option<InsertionPoint> {
    let ht = target.h as usize;
    pool.clear();
    cands.clear();
    generate(
        region,
        target,
        intervals,
        events,
        rail_ok,
        queues,
        combo,
        &mut |t, ids| {
            phases.combos_generated += 1;
            // Admissible bound: the target's own hinge contributes at least
            // its distance to the feasible range, every other hinge is
            // non-negative, and the vertical term is exact.
            let range = ids
                .iter()
                .fold(Interval::new(i32::MIN, i32::MAX), |acc, &j| {
                    acc.intersect(&intervals[j as usize].range)
                });
            let clamped = target.x.clamp(range.lo, range.hi);
            let dist = (i64::from(target.x) - i64::from(clamped)).abs();
            let bound = dist as f64 + vertical_cost(target, region.bottom_row + t as i32, aspect);
            cands.push(Candidate {
                bound,
                emit_idx: cands.len() as u32,
                bottom_row: t as u32,
                pool_start: pool.len() as u32,
            });
            pool.extend_from_slice(ids);
        },
    );

    // Reuse the candidate buffer as the heap's backing storage so the
    // steady-state pop loop allocates nothing.
    let mut heap = BinaryHeap::from(std::mem::take(cands));
    let mut best: Option<(Evaluation, u32, usize)> = None;
    while let Some(c) = heap.pop() {
        if let Some((bev, bemit, _)) = &best {
            // The heap pops in (bound, emit_idx) order, so once a popped
            // candidate cannot beat the incumbent — bound above the best
            // cost, or equal-bound but later-emitted (a tie would lose to
            // the incumbent's earlier emission) — neither can anything
            // still on the heap.
            if c.bound > bev.cost || (c.bound == bev.cost && c.emit_idx > *bemit) {
                phases.combos_pruned += 1 + heap.len() as u64;
                break;
            }
        }
        let start = c.pool_start as usize;
        let ids = &pool[start..start + ht];
        phases.combos_evaluated += 1;
        combo_buf.clear();
        combo_buf.extend(ids.iter().map(|&j| intervals[j as usize]));
        let probe = Probe::open(Phase::Evaluate, trace);
        let ev = score(
            region,
            combo_buf,
            target,
            region.bottom_row + c.bottom_row as i32,
            aspect,
            cfg,
            eval,
        );
        probe.close(phases, trace);
        let better = match &best {
            None => true,
            Some((bev, bemit, _)) => {
                ev.cost < bev.cost || (ev.cost == bev.cost && c.emit_idx < *bemit)
            }
        };
        if better {
            best = Some((ev, c.emit_idx, c.bottom_row as usize));
            best_combo.clear();
            best_combo.extend_from_slice(ids);
        }
    }
    *cands = heap.into_vec();
    cands.clear();
    best.map(|(ev, _, t)| InsertionPoint {
        bottom_row: t,
        intervals: best_combo.iter().map(|&j| intervals[j as usize]).collect(),
        eval: ev,
    })
}

/// True if no multi-row local cell has combo intervals on both of its
/// sides. An interval on row `lr` is left of cell `M` (spanning `lr`) when
/// its gap index does not exceed `M`'s list position on that row.
pub(crate) fn combo_is_side_consistent(
    region: &LocalRegion,
    intervals: &[InsInterval],
    combo: &[u32],
) -> bool {
    for &i in combo {
        let iv = &intervals[i as usize];
        for &ci in region.rows[iv.row]
            .as_ref()
            .expect("combo rows have segments")
            .cells
            .iter()
        {
            let (cy, ch) = (region.cells.y[ci as usize], region.cells.h[ci as usize]);
            if ch <= 1 {
                continue;
            }
            let mut side: Option<bool> = None; // Some(true) = all left of cell
            for &oj in combo {
                let other = &intervals[oj as usize];
                let row = region.bottom_row + other.row as i32;
                if row < cy || row >= cy + ch {
                    continue;
                }
                let pos = region.cells.pos_in_row(ci, (row - cy) as usize) as usize;
                let is_left = other.gap <= pos;
                match side {
                    None => side = Some(is_left),
                    Some(s) if s != is_left => return false,
                    Some(_) => {}
                }
            }
        }
    }
    true
}

fn score(
    region: &LocalRegion,
    combo: &[InsInterval],
    target: &TargetSpec,
    bottom_row_global: i32,
    aspect: f64,
    cfg: &LegalizerConfig,
    eval: &mut EvalScratch,
) -> Evaluation {
    match cfg.eval_mode {
        EvalMode::Approximate => {
            evaluate_in(region, combo, target, bottom_row_global, aspect, eval)
        }
        EvalMode::Exact => {
            evaluate_exact_in(region, combo, target, bottom_row_global, aspect, eval)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_db::{CellId, DesignBuilder, PlacementState};
    use mrl_geom::{PowerRail, SitePoint, SiteRect};

    fn setup(
        rows: i32,
        width: i32,
        cells: &[(i32, i32, i32, i32)],
    ) -> (LocalRegion, Vec<CellId>, Design) {
        let mut b = DesignBuilder::new(rows, width);
        let ids: Vec<CellId> = cells
            .iter()
            .enumerate()
            .map(|(i, &(w, h, ..))| b.add_cell(format!("c{i}"), w, h))
            .collect();
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        for (&id, &(_, _, x, y)) in ids.iter().zip(cells) {
            // Rails are irrelevant to these fixtures' placements.
            state
                .place_ignoring_rails(&design, id, SitePoint::new(x, y))
                .unwrap();
        }
        let region = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, width, rows));
        (region, ids, design)
    }

    /// One search in a fresh context.
    fn best(
        region: &LocalRegion,
        design: &Design,
        target: &TargetSpec,
        cfg: &LegalizerConfig,
    ) -> Option<InsertionPoint> {
        find_best_insertion_point(region, design, target, cfg, &mut LegalizeCtx::new())
    }

    fn target(w: i32, h: i32, x: i32, y: i32) -> TargetSpec {
        TargetSpec {
            w,
            h,
            x,
            y,
            rail: PowerRail::Vdd,
        }
    }

    fn relaxed() -> LegalizerConfig {
        LegalizerConfig::default().with_rail_mode(PowerRailMode::Relaxed)
    }

    #[test]
    fn single_row_target_gets_one_point_per_interval() {
        let (region, _, design) = setup(2, 12, &[(2, 1, 4, 0), (3, 1, 2, 1)]);
        let t = target(2, 1, 5, 0);
        let pts = enumerate_insertion_points(&region, &design, &t, &relaxed());
        let n_intervals = region.insertion_intervals(2).len();
        assert_eq!(pts.len(), n_intervals);
    }

    #[test]
    fn double_row_target_combines_consecutive_rows() {
        // Empty 3-row region, width 10, target 2x2: windows (0,1) and (1,2),
        // one interval per row -> 2 insertion points.
        let (region, _, design) = setup(3, 10, &[]);
        let t = target(2, 2, 4, 0);
        let pts = enumerate_insertion_points(&region, &design, &t, &relaxed());
        assert_eq!(pts.len(), 2);
        let bottoms: Vec<_> = pts.iter().map(|p| p.bottom_row).collect();
        assert!(bottoms.contains(&0) && bottoms.contains(&1));
        assert!(pts.iter().all(|p| p.intervals.len() == 2));
    }

    #[test]
    fn figure8_opposite_sides_of_multi_row_cell_do_not_combine() {
        // Two rows [0,20), multi-row a(2x2)@9 with slack on both sides.
        let (region, ids, design) = setup(2, 20, &[(2, 2, 9, 0)]);
        let a = region.local_index_of(ids[0]).unwrap();
        let t = target(2, 2, 5, 0);
        let pts = enumerate_insertion_points(&region, &design, &t, &relaxed());
        // Only all-left or all-right combinations are valid.
        assert_eq!(pts.len(), 2);
        for p in &pts {
            let sides: Vec<bool> = p
                .intervals
                .iter()
                .map(|iv| iv.right == Some(a)) // true = left of a
                .collect();
            assert!(
                sides.iter().all(|&s| s) || sides.iter().all(|&s| !s),
                "mixed-side insertion point {:?}",
                p
            );
        }
    }

    #[test]
    fn figure8_mixed_sides_allowed_without_multi_row_cell() {
        // Same geometry but two independent single-row cells: mixed
        // combinations are now valid.
        let (region, _, design) = setup(2, 20, &[(2, 1, 9, 0), (2, 1, 9, 1)]);
        let t = target(2, 2, 5, 0);
        let pts = enumerate_insertion_points(&region, &design, &t, &relaxed());
        // 2x2 gap choices, all with common cutlines.
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn rail_filter_restricts_even_height_targets() {
        let (region, _, design) = setup(4, 10, &[]);
        // VDD-bottom double-height target: bottom rows 0 and 2 only.
        let t = target(2, 2, 4, 0);
        let aligned = LegalizerConfig::default();
        let pts = enumerate_insertion_points(&region, &design, &t, &aligned);
        let bottoms: Vec<_> = pts.iter().map(|p| p.bottom_row).collect();
        assert_eq!(bottoms, vec![0, 2]);
        // VSS-bottom variant gets the complementary rows.
        let t_vss = TargetSpec {
            rail: PowerRail::Vss,
            ..t
        };
        let pts = enumerate_insertion_points(&region, &design, &t_vss, &aligned);
        let bottoms: Vec<_> = pts.iter().map(|p| p.bottom_row).collect();
        assert_eq!(bottoms, vec![1]);
        // Odd-height targets are unrestricted.
        let t_odd = target(2, 1, 4, 0);
        let pts = enumerate_insertion_points(&region, &design, &t_odd, &aligned);
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn no_insertion_point_when_target_cannot_fit() {
        // Row [0,6) fully packed by one 6-wide cell.
        let (region, _, design) = setup(1, 6, &[(6, 1, 0, 0)]);
        let t = target(2, 1, 2, 0);
        assert!(best(&region, &design, &t, &relaxed()).is_none());
    }

    #[test]
    fn best_point_prefers_zero_displacement_gap() {
        // Row [0,20): cells at 0..2 and 10..12; target w2 wants x=14 — the
        // gap right of the second cell costs nothing.
        let (region, ids, design) = setup(1, 20, &[(2, 1, 0, 0), (2, 1, 10, 0)]);
        let t = target(2, 1, 14, 0);
        let best = best(&region, &design, &t, &relaxed()).unwrap();
        assert_eq!(best.eval.cost, 0.0);
        assert_eq!(best.eval.x, 14);
        let b = region.local_index_of(ids[1]).unwrap();
        assert_eq!(best.intervals[0].left, Some(b));
    }

    #[test]
    fn taller_target_than_region_yields_nothing() {
        let (region, _, design) = setup(2, 10, &[]);
        let t = target(2, 3, 0, 0);
        assert!(enumerate_insertion_points(&region, &design, &t, &relaxed()).is_empty());
    }

    #[test]
    fn triple_row_target_with_multi_row_cell_blocking() {
        // Figure 5 family: 4 rows, a multi-row cell on rows 1-2, target 3
        // rows tall. Combinations crossing the multi-row cell must agree on
        // side.
        let (region, ids, design) = setup(4, 20, &[(2, 2, 9, 1), (2, 1, 3, 0), (2, 1, 14, 3)]);
        let m = region.local_index_of(ids[0]).unwrap();
        let t = target(2, 3, 6, 0);
        let pts = enumerate_insertion_points(&region, &design, &t, &relaxed());
        assert!(!pts.is_empty());
        for p in &pts {
            let sides: Vec<Option<bool>> = p
                .intervals
                .iter()
                .map(|iv| {
                    if iv.left == Some(m) {
                        Some(false) // right of m
                    } else if iv.right == Some(m) {
                        Some(true) // left of m
                    } else {
                        None
                    }
                })
                .collect();
            let lefts = sides.iter().flatten().filter(|&&s| s).count();
            let rights = sides.iter().flatten().filter(|&&s| !s).count();
            assert!(
                lefts == 0 || rights == 0,
                "insertion point mixes sides of the multi-row cell: {:?}",
                p
            );
        }
    }

    #[test]
    fn pruned_search_matches_exhaustive_and_prunes() {
        // A row with several gaps far from the target: the pruned search
        // must return the identical point while exactly-evaluating fewer
        // combinations than it generated.
        let (region, _, design) = setup(
            2,
            60,
            &[
                (2, 1, 5, 0),
                (2, 1, 15, 0),
                (2, 1, 25, 0),
                (2, 1, 40, 0),
                (3, 1, 10, 1),
                (3, 1, 30, 1),
            ],
        );
        let t = target(2, 1, 26, 0);
        let pruned_cfg = relaxed();
        let exhaustive_cfg = relaxed().with_prune(false);
        let mut pruned_ctx = LegalizeCtx::new();
        let mut full_ctx = LegalizeCtx::new();
        let pruned = find_best_insertion_point(&region, &design, &t, &pruned_cfg, &mut pruned_ctx);
        let full = find_best_insertion_point(&region, &design, &t, &exhaustive_cfg, &mut full_ctx);
        assert_eq!(pruned, full);
        let (pt, et) = (pruned_ctx.stats.phases, full_ctx.stats.phases);
        assert_eq!(pt.combos_generated, et.combos_generated);
        assert_eq!(et.combos_evaluated, et.combos_generated);
        assert_eq!(et.combos_pruned, 0);
        assert_eq!(pt.combos_pruned + pt.combos_evaluated, pt.combos_generated);
        assert!(
            pt.combos_evaluated < pt.combos_generated,
            "expected pruning on this fixture: {} evaluated of {} generated",
            pt.combos_evaluated,
            pt.combos_generated
        );
    }

    #[test]
    fn pruned_search_matches_exhaustive_in_exact_mode() {
        let (region, _, design) = setup(
            2,
            40,
            &[(3, 1, 4, 0), (3, 1, 9, 0), (2, 2, 20, 0), (2, 1, 30, 1)],
        );
        let t = target(2, 2, 12, 0);
        let base = relaxed().with_eval_mode(EvalMode::Exact);
        let pruned = best(&region, &design, &t, &base.clone());
        let full = best(&region, &design, &t, &base.with_prune(false));
        assert_eq!(pruned, full);
    }

    #[test]
    fn scan_event_order_matches_stable_sort_of_push_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut events = Vec::new();
        for _ in 0..500 {
            // Endpoints from a few values, so many coincide.
            let intervals: Vec<InsInterval> = (0..rng.gen_range(0..40))
                .map(|gap| {
                    let lo = rng.gen_range(0..6);
                    InsInterval {
                        row: rng.gen_range(0..4),
                        gap,
                        left: None,
                        right: None,
                        range: Interval::new(lo, lo + rng.gen_range(0..4)),
                    }
                })
                .collect();
            // The previous construction: push open and close per interval,
            // then a stable sort on (x, close).
            let mut pushed = Vec::new();
            for (i, iv) in intervals.iter().enumerate() {
                pushed.push((iv.range.lo, false, i as u32));
                pushed.push((iv.range.hi, true, i as u32));
            }
            pushed.sort_by_key(|&(x, close, _)| (x, close));
            let keys = |events: &[ScanEvent]| -> Vec<(i32, bool, u32)> {
                events.iter().map(|e| (e.x, e.close, e.idx)).collect()
            };
            scan_events(&intervals, true, &mut events);
            assert_eq!(keys(&events), pushed);
            scan_events(&intervals, false, &mut events);
            pushed.retain(|&(_, close, _)| !close);
            assert_eq!(keys(&events), pushed);
        }
    }

    #[test]
    fn arena_reuse_across_searches_is_clean() {
        // Two very different searches through the same arena must give the
        // same answers as fresh-arena searches.
        let (region, _, design) = setup(3, 30, &[(2, 2, 9, 0), (2, 1, 4, 2), (3, 1, 20, 1)]);
        let mut ctx = LegalizeCtx::new();
        let cfg = relaxed();
        for t in [target(2, 2, 5, 0), target(3, 1, 22, 1), target(2, 3, 11, 0)] {
            let reused = find_best_insertion_point(&region, &design, &t, &cfg, &mut ctx);
            let fresh = best(&region, &design, &t, &cfg);
            assert_eq!(reused, fresh);
        }
    }
}
