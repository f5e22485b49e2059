//! Greedy Tetris-style legalization (Hill, US patent 6,370,673 — ref. [7]
//! of the paper).
//!
//! Cells are processed in ascending global-placement x; each is placed at
//! the feasible position nearest its input, subject to `x ≥` the row
//! frontier (the right edge of everything already placed there). Placed
//! cells never move — the property the paper's introduction blames for
//! high displacement in dense designs, and exactly what the comparison
//! bench demonstrates.

use mrl_db::{CellId, Design, PlacementState};
use mrl_geom::SitePoint;
use mrl_legalize::{FailReason, LegalizeError, LegalizeStats, PowerRailMode};

/// Greedy left-to-right legalizer; never moves placed cells.
///
/// # Examples
///
/// ```
/// use mrl_db::{DesignBuilder, PlacementState};
/// use mrl_baselines::TetrisLegalizer;
///
/// let mut b = DesignBuilder::new(2, 20);
/// let c = b.add_cell("c", 3, 1);
/// b.set_input_position(c, 4.3, 0.9);
/// let design = b.finish()?;
/// let mut state = PlacementState::new(&design);
/// TetrisLegalizer::default().legalize(&design, &mut state)?;
/// assert!(state.is_placed(c));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TetrisLegalizer {
    rail_mode: PowerRailMode,
}

impl TetrisLegalizer {
    /// Creates the legalizer with rail alignment enforced.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the legalizer with the given rail handling.
    pub fn with_rail_mode(rail_mode: PowerRailMode) -> Self {
        Self { rail_mode }
    }

    /// Legalizes all movable cells of an *empty* placement.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::Db`] if `state` already contains placed cells (the
    /// frontier bookkeeping assumes it owns the whole placement) and
    /// [`LegalizeError::Unplaceable`] when a cell fits on no row.
    pub fn legalize(
        &self,
        design: &Design,
        state: &mut PlacementState,
    ) -> Result<LegalizeStats, LegalizeError> {
        if state.num_placed() != 0 {
            return Err(LegalizeError::Db(mrl_db::DbError::Invalid(
                "tetris legalization requires an empty placement".into(),
            )));
        }
        let fp = design.floorplan();
        let num_rows = fp.num_rows();
        let aspect = design.grid().aspect();
        // Frontier per row: nothing placed left of it is ever overlapped.
        let mut frontier: Vec<i32> = (0..num_rows).map(|r| fp.rows()[r as usize].x).collect();

        let mut order: Vec<CellId> = design.movable_cells().collect();
        order.sort_by(|&a, &b| {
            design
                .input_position(a)
                .0
                .total_cmp(&design.input_position(b).0)
        });

        let mut stats = LegalizeStats::default();
        for cell in order {
            let c = design.cell(cell);
            let (fx, fy) = design.input_position(cell);
            let mut best: Option<(f64, SitePoint)> = None;
            if num_rows < c.height() {
                return Err(LegalizeError::Unplaceable {
                    cell,
                    rounds: 0,
                    reason: FailReason::NoInsertionPoint,
                });
            }
            for row in 0..=(num_rows - c.height()) {
                if self.rail_mode.is_aligned() && !fp.rail_compatible(c.rail(), c.height(), row) {
                    continue;
                }
                let dy = (f64::from(row) - fy).abs() * aspect;
                if let Some((cost, _)) = best {
                    if dy >= cost {
                        continue; // vertical term alone already loses
                    }
                }
                let start = (row..row + c.height())
                    .map(|r| frontier[r as usize])
                    .max()
                    .expect("height >= 1");
                let desired = fx.round() as i32;
                // Greedy: scan rightward from max(frontier, desired); the
                // classic algorithm accepts the first fit per row.
                let Some(x) = feasible_x(design, row, c.height(), c.width(), start.max(desired))
                else {
                    continue;
                };
                let cost = (f64::from(x) - fx).abs() + dy;
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, SitePoint::new(x, row)));
                }
            }
            let Some((_, at)) = best else {
                return Err(LegalizeError::Unplaceable {
                    cell,
                    rounds: 0,
                    reason: FailReason::NoInsertionPoint,
                });
            };
            self.rail_mode.place(design, state, cell, at)?;
            for r in at.y..at.y + c.height() {
                frontier[r as usize] = at.x + c.width();
            }
            stats.placed += 1;
            stats.direct += 1;
        }
        Ok(stats)
    }
}

/// The smallest `x ≥ from` such that a `w × h` footprint with bottom row
/// `row` lies inside segments on every spanned row.
fn feasible_x(design: &Design, row: i32, h: i32, w: i32, from: i32) -> Option<i32> {
    let fp = design.floorplan();
    let mut x = from;
    // Each iteration either returns or advances x to some segment start;
    // segment starts are finite, so this terminates.
    for _ in 0..4 * (fp.segments().len() + 1) {
        let mut bumped = false;
        for r in row..row + h {
            let segs = fp.segments_in_row(r);
            let idx = segs.partition_point(|s| s.right() < x + w);
            let Some(seg) = segs.get(idx) else {
                return None; // no segment can host the span in this row
            };
            if seg.x > x {
                x = seg.x;
                bumped = true;
            }
        }
        if !bumped {
            return Some(x);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_db::DesignBuilder;
    use mrl_geom::SiteRect;
    use mrl_metrics::{check_legal, RailCheck};

    #[test]
    fn places_in_x_order_without_overlap() {
        let mut b = DesignBuilder::new(2, 20);
        for i in 0..6 {
            let c = b.add_cell(format!("c{i}"), 3, 1);
            b.set_input_position(c, 2.0 * i as f64, 0.4);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = TetrisLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert_eq!(stats.placed, 6);
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
    }

    #[test]
    fn dense_row_spills_to_other_rows() {
        let mut b = DesignBuilder::new(3, 12);
        for i in 0..6 {
            let c = b.add_cell(format!("c{i}"), 4, 1);
            b.set_input_position(c, 4.0, 1.0); // all want the same spot
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        TetrisLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
        let rows_used: std::collections::HashSet<i32> =
            state.iter_placed().map(|(_, p)| p.y).collect();
        assert!(rows_used.len() >= 2);
    }

    #[test]
    fn multi_row_cells_update_all_frontiers() {
        let mut b = DesignBuilder::new(2, 20);
        let m = b.add_cell("m", 4, 2);
        let s = b.add_cell("s", 2, 1);
        b.set_input_position(m, 0.0, 0.0);
        b.set_input_position(s, 1.0, 0.0); // would overlap m if frontier ignored
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        TetrisLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
        assert!(state.position(s).unwrap().x >= 4 || state.position(s).unwrap().y == 1);
    }

    #[test]
    fn skips_blockages() {
        let mut b = DesignBuilder::new(1, 20);
        let c0 = b.add_cell("a", 4, 1);
        let c1 = b.add_cell("b", 4, 1);
        b.set_input_position(c0, 3.0, 0.0);
        b.set_input_position(c1, 5.0, 0.0);
        b.add_blockage(SiteRect::new(6, 0, 4, 1));
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        TetrisLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
    }

    #[test]
    fn rejects_preplaced_state() {
        let mut b = DesignBuilder::new(1, 20);
        let c0 = b.add_cell("a", 4, 1);
        let c1 = b.add_cell("b", 4, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, c0, SitePoint::new(0, 0)).unwrap();
        let err = TetrisLegalizer::new().legalize(&design, &mut state);
        assert!(err.is_err());
        let _ = c1;
    }

    #[test]
    fn unplaceable_cell_reports_error() {
        let mut b = DesignBuilder::new(2, 20);
        let d = b.add_cell("d", 2, 2); // VDD even-height
        b.set_input_position(d, 0.0, 0.0);
        // Block row 0: the only rail-compatible bottom row disappears.
        b.add_blockage(SiteRect::new(0, 0, 20, 1));
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let err = TetrisLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap_err();
        assert!(matches!(err, LegalizeError::Unplaceable { .. }));
    }
}
