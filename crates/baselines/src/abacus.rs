//! Abacus legalization (Spindler, Schlichtmann & Johannes, ISPD 2008)
//! extended to mixed-height designs the two-step way prior work does
//! (refs. [3], [4] of the paper): multi-row cells are pre-placed greedily
//! and frozen like macros, then single-row cells are legalized row by row
//! with Abacus dynamic clustering.
//!
//! This is the comparison point the paper's introduction argues against:
//! within a row Abacus moves cells optimally (quadratic displacement), but
//! it cannot coordinate rows, so multi-row cells must be frozen first —
//! and freezing them early costs displacement in dense designs.

use mrl_db::{CellId, Design, PlacementState};
use mrl_geom::SitePoint;
use mrl_legalize::{FailReason, LegalizeError, LegalizeStats, PowerRailMode};

/// One Abacus cluster: a maximal run of abutting cells sharing a row.
#[derive(Clone, Debug)]
struct Cluster {
    /// Total weight (one per cell).
    e: f64,
    /// Σ e_c · (x'_c − offset of the cell in the cluster).
    q: f64,
    /// Total width.
    w: i32,
    /// Cells in order, with their widths.
    cells: Vec<(CellId, i32)>,
}

impl Cluster {
    fn optimal_x(&self, lo: i32, hi: i32) -> f64 {
        (self.q / self.e).clamp(f64::from(lo), f64::from(hi - self.w))
    }
}

/// One free run of sites on a row (between blockages and frozen cells).
#[derive(Clone, Debug)]
struct SubSeg {
    x0: i32,
    x1: i32,
    clusters: Vec<Cluster>,
}

impl SubSeg {
    fn used(&self) -> i32 {
        self.clusters.iter().map(|c| c.w).sum()
    }

    /// Final x of the last cluster if `cell` were appended, without
    /// mutating. Returns `None` when the sub-segment cannot host it.
    fn trial(&self, desired: f64, width: i32) -> Option<f64> {
        if self.used() + width > self.x1 - self.x0 {
            return None;
        }
        let mut e = 1.0;
        let mut q = desired;
        let mut w = width;
        // Walk clusters right-to-left, merging while they would overlap.
        let mut idx = self.clusters.len();
        loop {
            let x = (q / e).clamp(f64::from(self.x0), f64::from(self.x1 - w));
            if idx == 0 {
                return Some(x + f64::from(w - width));
            }
            let prev = &self.clusters[idx - 1];
            let prev_x = prev.optimal_x(self.x0, self.x1);
            if prev_x + f64::from(prev.w) <= x {
                return Some(x + f64::from(w - width));
            }
            // Merge prev into the trial cluster.
            q = prev.q + (q - e * f64::from(prev.w));
            e += prev.e;
            w += prev.w;
            idx -= 1;
        }
    }

    /// Appends `cell` at `desired` and re-clusters (Abacus `PlaceRow`).
    fn commit(&mut self, cell: CellId, desired: f64, width: i32) {
        let mut cur = Cluster {
            e: 1.0,
            q: desired,
            w: width,
            cells: vec![(cell, width)],
        };
        while let Some(prev) = self.clusters.last() {
            let x = cur.optimal_x(self.x0, self.x1);
            let prev_x = prev.optimal_x(self.x0, self.x1);
            if prev_x + f64::from(prev.w) <= x {
                break;
            }
            let prev = self.clusters.pop().expect("checked non-empty");
            // Shift cur's members after prev's width, then merge.
            cur.q = prev.q + (cur.q - cur.e * f64::from(prev.w));
            cur.e += prev.e;
            cur.w += prev.w;
            let mut cells = prev.cells;
            cells.extend(cur.cells);
            cur.cells = cells;
        }
        self.clusters.push(cur);
    }
}

/// Two-step Abacus legalizer for mixed-height designs.
///
/// # Examples
///
/// ```
/// use mrl_db::{DesignBuilder, PlacementState};
/// use mrl_baselines::AbacusLegalizer;
///
/// let mut b = DesignBuilder::new(4, 30);
/// for i in 0..6 {
///     let c = b.add_cell(format!("c{i}"), 3, 1 + (i % 2));
///     b.set_input_position(c, 10.0 + 0.5 * i as f64, 1.0);
/// }
/// let design = b.finish()?;
/// let mut state = PlacementState::new(&design);
/// let stats = AbacusLegalizer::new().legalize(&design, &mut state)?;
/// assert_eq!(stats.placed, 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct AbacusLegalizer {
    rail_mode: PowerRailMode,
}

impl AbacusLegalizer {
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
    /// [`LegalizeError::Db`] when `state` is non-empty;
    /// [`LegalizeError::Unplaceable`] when a cell fits nowhere.
    pub fn legalize(
        &self,
        design: &Design,
        state: &mut PlacementState,
    ) -> Result<LegalizeStats, LegalizeError> {
        if state.num_placed() != 0 {
            return Err(LegalizeError::Db(mrl_db::DbError::Invalid(
                "abacus legalization requires an empty placement".into(),
            )));
        }
        let mut stats = LegalizeStats::default();
        // Step 1: freeze multi-row cells greedily (nearest free fit).
        let mut multi: Vec<CellId> = design
            .movable_cells()
            .filter(|&c| design.cell(c).is_multi_row())
            .collect();
        multi.sort_by(|&a, &b| {
            design
                .input_position(a)
                .0
                .total_cmp(&design.input_position(b).0)
        });
        for cell in multi {
            let at = self
                .nearest_free(design, state, cell)
                .ok_or(LegalizeError::Unplaceable {
                    cell,
                    rounds: 0,
                    reason: FailReason::NoInsertionPoint,
                })?;
            self.rail_mode.place(design, state, cell, at)?;
            stats.placed += 1;
        }

        // Step 2: Abacus for single-row cells over sub-segments bounded by
        // blockages and the frozen multi-row cells.
        let fp = design.floorplan();
        let aspect = design.grid().aspect();
        let mut rows: Vec<Vec<SubSeg>> = Vec::with_capacity(fp.num_rows() as usize);
        for row in 0..fp.num_rows() {
            let mut subs = Vec::new();
            for (si, seg) in fp.segments_in_row(row).iter().enumerate() {
                let base = fp.row_segment_base(row).expect("row exists");
                let seg_id = mrl_db::SegId::from_usize(base + si);
                let mut cursor = seg.x;
                for &occ in state.segment_cells(seg_id) {
                    let p = state.position(occ).expect("placed");
                    let w = design.cell(occ).width();
                    if p.x > cursor {
                        subs.push(SubSeg {
                            x0: cursor,
                            x1: p.x,
                            clusters: Vec::new(),
                        });
                    }
                    cursor = cursor.max(p.x + w);
                }
                if cursor < seg.right() {
                    subs.push(SubSeg {
                        x0: cursor,
                        x1: seg.right(),
                        clusters: Vec::new(),
                    });
                }
            }
            rows.push(subs);
        }

        let mut singles: Vec<CellId> = design
            .movable_cells()
            .filter(|&c| !design.cell(c).is_multi_row())
            .collect();
        singles.sort_by(|&a, &b| {
            design
                .input_position(a)
                .0
                .total_cmp(&design.input_position(b).0)
        });
        for cell in &singles {
            let c = design.cell(*cell);
            let (fx, fy) = design.input_position(*cell);
            let mut best: Option<(f64, usize, usize)> = None; // cost, row, subseg
            for row in 0..fp.num_rows() {
                let dy = (f64::from(row) - fy).abs() * aspect;
                if let Some((cost, ..)) = best {
                    if dy >= cost {
                        continue;
                    }
                }
                for (si, sub) in rows[row as usize].iter().enumerate() {
                    if let Some(x) = sub.trial(fx, c.width()) {
                        let cost = (x - fx).abs() + dy;
                        if best.is_none_or(|(b, ..)| cost < b) {
                            best = Some((cost, row as usize, si));
                        }
                    }
                }
            }
            let Some((_, row, si)) = best else {
                return Err(LegalizeError::Unplaceable {
                    cell: *cell,
                    rounds: 0,
                    reason: FailReason::NoInsertionPoint,
                });
            };
            rows[row][si].commit(*cell, fx, c.width());
            stats.placed += 1;
            stats.via_mll += 1;
        }

        // Materialize cluster positions into the placement state.
        for (row, subs) in rows.iter().enumerate() {
            for sub in subs {
                for cluster in &sub.clusters {
                    let mut x = cluster.optimal_x(sub.x0, sub.x1).round() as i32;
                    x = x.clamp(sub.x0, sub.x1 - cluster.w);
                    for &(cell, w) in &cluster.cells {
                        let at = SitePoint::new(x, row as i32);
                        self.rail_mode.place(design, state, cell, at)?;
                        x += w;
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Nearest rail-compatible free footprint to a multi-row cell's input
    /// position, searching rows by vertical distance and scanning free
    /// intervals horizontally.
    fn nearest_free(
        &self,
        design: &Design,
        state: &PlacementState,
        cell: CellId,
    ) -> Option<SitePoint> {
        let fp = design.floorplan();
        let c = design.cell(cell);
        let (fx, fy) = design.input_position(cell);
        let aspect = design.grid().aspect();
        let mut best: Option<(f64, SitePoint)> = None;
        for row in 0..=(fp.num_rows() - c.height()) {
            if self.rail_mode.is_aligned() && !fp.rail_compatible(c.rail(), c.height(), row) {
                continue;
            }
            let dy = (f64::from(row) - fy).abs() * aspect;
            if let Some((cost, _)) = best {
                if dy >= cost {
                    continue;
                }
            }
            // Free intervals of the footprint across all spanned rows.
            let mut free = row_free_intervals(design, state, row);
            for r in row + 1..row + c.height() {
                let other = row_free_intervals(design, state, r);
                free = intersect_intervals(&free, &other);
            }
            for (a, b) in free {
                if b - a < c.width() {
                    continue;
                }
                let x = (fx.round() as i32).clamp(a, b - c.width());
                let cost = (f64::from(x) - fx).abs() + dy;
                if best.is_none_or(|(bc, _)| cost < bc) {
                    best = Some((cost, SitePoint::new(x, row)));
                }
            }
        }
        best.map(|(_, p)| p)
    }
}

/// Free `[a, b)` intervals of a row: segment runs minus placed cells.
fn row_free_intervals(design: &Design, state: &PlacementState, row: i32) -> Vec<(i32, i32)> {
    let fp = design.floorplan();
    let mut out = Vec::new();
    for (si, seg) in fp.segments_in_row(row).iter().enumerate() {
        let base = fp.row_segment_base(row).expect("row exists");
        let seg_id = mrl_db::SegId::from_usize(base + si);
        let mut cursor = seg.x;
        for &occ in state.segment_cells(seg_id) {
            let p = state.position(occ).expect("placed");
            if p.x > cursor {
                out.push((cursor, p.x));
            }
            cursor = cursor.max(p.x + design.cell(occ).width());
        }
        if cursor < seg.right() {
            out.push((cursor, seg.right()));
        }
    }
    out
}

/// Intersection of two sorted interval lists.
fn intersect_intervals(a: &[(i32, i32)], b: &[(i32, i32)]) -> Vec<(i32, i32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_db::DesignBuilder;
    use mrl_geom::SiteRect;
    use mrl_metrics::{check_legal, RailCheck};

    #[test]
    fn intersect_intervals_basics() {
        assert_eq!(intersect_intervals(&[(0, 10)], &[(5, 15)]), vec![(5, 10)]);
        assert_eq!(
            intersect_intervals(&[(0, 4), (6, 10)], &[(2, 8)]),
            vec![(2, 4), (6, 8)]
        );
        assert!(intersect_intervals(&[(0, 3)], &[(3, 6)]).is_empty());
    }

    #[test]
    fn single_row_cluster_packs_overlapping_cells() {
        let mut b = DesignBuilder::new(1, 20);
        for i in 0..4 {
            let c = b.add_cell(format!("c{i}"), 3, 1);
            b.set_input_position(c, 8.0, 0.0);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = AbacusLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert_eq!(stats.placed, 4);
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
        // Cells cluster around x = 8 (total width 12 centered-ish).
        let xs: Vec<i32> = state.iter_placed().map(|(_, p)| p.x).collect();
        assert!(xs.iter().all(|&x| (2..=14).contains(&x)));
    }

    #[test]
    fn mixed_heights_legalize_two_step() {
        let mut b = DesignBuilder::new(4, 30);
        for i in 0..4 {
            let c = b.add_cell(format!("d{i}"), 2, 2);
            b.set_input_position(c, 10.0 + i as f64, 1.0);
        }
        for i in 0..8 {
            let c = b.add_cell(format!("s{i}"), 2, 1);
            b.set_input_position(c, 10.0 + 0.5 * i as f64, 2.0);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        let stats = AbacusLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert_eq!(stats.placed, 12);
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
    }

    #[test]
    fn frozen_multi_row_cells_split_rows_for_abacus() {
        let mut b = DesignBuilder::new(2, 14);
        let m = b.add_cell("m", 4, 2);
        b.set_input_position(m, 5.0, 0.0);
        for i in 0..4 {
            let c = b.add_cell(format!("s{i}"), 3, 1);
            b.set_input_position(c, 5.0 + i as f64, 0.0);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        AbacusLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
    }

    #[test]
    fn respects_blockages() {
        let mut b = DesignBuilder::new(2, 20);
        b.add_blockage(SiteRect::new(8, 0, 4, 2));
        for i in 0..4 {
            let c = b.add_cell(format!("s{i}"), 3, 1);
            b.set_input_position(c, 9.0, 0.5);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        AbacusLegalizer::new()
            .legalize(&design, &mut state)
            .unwrap();
        assert!(check_legal(&design, &state, RailCheck::Enforce).is_ok());
    }

    #[test]
    fn relaxed_mode_allows_any_row_for_even_cells() {
        let mut b = DesignBuilder::new(3, 10);
        let m = b.add_cell("m", 2, 2);
        b.set_input_position(m, 4.0, 1.0);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        AbacusLegalizer::with_rail_mode(PowerRailMode::Relaxed)
            .legalize(&design, &mut state)
            .unwrap();
        assert_eq!(state.position(m).unwrap().y, 1);
        assert!(check_legal(&design, &state, RailCheck::Ignore).is_ok());
    }

    #[test]
    fn rejects_preplaced_state() {
        let mut b = DesignBuilder::new(1, 10);
        let c = b.add_cell("a", 2, 1);
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, c, SitePoint::new(0, 0)).unwrap();
        assert!(AbacusLegalizer::new()
            .legalize(&design, &mut state)
            .is_err());
    }
}
