//! Local region extraction (Section 2.1.3) and the leftmost/rightmost
//! placements (Section 5.1.1, Figure 6).
//!
//! Given a window `W` around the target position, the extraction freezes
//! every cell that is not completely inside `W`, splits each row of `W` at
//! frozen cells and blockages, keeps per row the one free run closest to the
//! window center (the *local segment*), and finally keeps as *local cells*
//! exactly those cells fully contained in the local segments of **all** rows
//! they span. A cell inside `W` that violates the last condition (e.g. a
//! multi-row cell sticking into a non-chosen run — cells `i`/`c` of
//! Figure 3) is itself frozen, which may split segments further; extraction
//! therefore iterates to a fixpoint.
//!
//! The paper leaves this procedure unspecified ("due to page limit"); the
//! fixpoint above is the minimal procedure consistent with every property
//! the paper states.
//!
//! # Scaling architecture (DESIGN.md §9)
//!
//! Extraction is the dominant phase at scale, so it is structured to be
//! independent of design size and allocation-free in steady state:
//!
//! * Each window row is read once. Per segment, one
//!   [`PlacementState::cells_intersecting_with_extents`] call (two binary
//!   searches) returns the listed cells near the window with their
//!   x-extents, and each entry is tagged inside or frozen. A row's free
//!   runs are the spans between its frozen entries and the segment or
//!   window ends, minus fence spans: no gap-list query, no per-row sort and
//!   no scan over the inside cells.
//! * The fixpoint re-solves only the rows a demotion touched. A row's
//!   chosen run depends only on that row's entries and the fences, and a
//!   demoted cell changes only the entries of the rows it spans.
//! * Local cells come out in `(x, y, id)` order from a stable counting sort
//!   on x over the window width: inside cells are collected bottom-up, so
//!   in `(y, x)` order, and no two of them share an `(x, y)` corner.
//! * Local cells are stored in a struct-of-arrays layout ([`LocalCells`]):
//!   the enumeration/evaluation kernels touch `x`/`w` (or `y`/`h`) in tight
//!   loops, and separate arrays keep those loops on dense cache lines. The
//!   per-row list positions live in one flattened pool instead of a `Vec`
//!   per cell, eliminating the per-cell allocations of the old layout.
//! * All transient extraction state lives in an [`ExtractScratch`] owned by
//!   the `ScratchArena` of the caller's `LegalizeCtx`, and the region
//!   itself is reused across MLL calls (`extract_masked_into` clears, never
//!   shrinks). The per-row cell lists of the previous region go back to
//!   the scratch and are handed out again, so no row list is freed and
//!   re-grown between calls.

use mrl_db::{CellId, Design, PlacementState, RegionId, SegId};
use mrl_geom::SiteRect;

/// The local cells of a region in struct-of-arrays layout: one entry per
/// cell across all arrays, indexed by the local cell index (`u32`).
///
/// Cells are ordered by `(x, y, id)`; the order is a topological order of
/// the left-neighbor DAG (a left neighbor always has strictly smaller x).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalCells {
    /// Design-level cell ids.
    pub id: Vec<CellId>,
    /// Current x (site units).
    pub x: Vec<i32>,
    /// Global bottom row.
    pub y: Vec<i32>,
    /// Width in sites.
    pub w: Vec<i32>,
    /// Height in rows.
    pub h: Vec<i32>,
    /// x in the leftmost placement (`xL` in the paper).
    pub x_left: Vec<i32>,
    /// x in the rightmost placement (`xR` in the paper).
    pub x_right: Vec<i32>,
    /// Start of each cell's slice in `pos_pool` (prefix sum of heights;
    /// `len() + 1` entries).
    pos_start: Vec<u32>,
    /// Flattened per-row list positions: entry `pos_start[ci] + k` is cell
    /// `ci`'s index in the ordered cell list of its `k`-th spanned row
    /// (bottom up).
    pos_pool: Vec<u32>,
}

impl LocalCells {
    /// Number of local cells.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when the region has no local cells.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Cell `ci`'s index in the ordered list of its `k`-th spanned row
    /// (`k = 0` is the cell's bottom row).
    pub fn pos_in_row(&self, ci: u32, k: usize) -> u32 {
        self.pos_pool[self.pos_start[ci as usize] as usize + k]
    }

    fn clear(&mut self) {
        self.id.clear();
        self.x.clear();
        self.y.clear();
        self.w.clear();
        self.h.clear();
        self.x_left.clear();
        self.x_right.clear();
        self.pos_start.clear();
        self.pos_pool.clear();
    }

    fn push(&mut self, id: CellId, rect: SiteRect) {
        self.id.push(id);
        self.x.push(rect.x);
        self.y.push(rect.y);
        self.w.push(rect.w);
        self.h.push(rect.h);
        self.x_left.push(rect.x);
        self.x_right.push(rect.x);
    }
}

/// The local segment of one row: a contiguous run of free sites bounded by
/// frozen cells, blockages, or the window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalSeg {
    /// Global segment the run lies on.
    pub seg: Option<SegId>,
    /// Leftmost site of the run.
    pub x0: i32,
    /// Exclusive right end of the run.
    pub x1: i32,
    /// Local cells on the run, ordered by x.
    pub cells: Vec<u32>,
}

impl LocalSeg {
    /// Width of the run in sites.
    pub const fn width(&self) -> i32 {
        self.x1 - self.x0
    }
}

/// An extracted local region: the sub-problem MLL solves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalRegion {
    /// Global row index of local row 0.
    pub bottom_row: i32,
    /// One entry per row of the (clipped) window; `None` when the row has
    /// no free run inside the window.
    pub rows: Vec<Option<LocalSeg>>,
    /// The local cells (struct-of-arrays).
    pub cells: LocalCells,
}

/// A chosen free run on one row: global segment id plus `[x0, x1)`.
type ChosenRun = (Option<SegId>, i32, i32);

/// One listed cell of one window row: its footprint `[x0, x1)` and whether
/// it is still an inside candidate (`false` = frozen).
#[derive(Clone, Copy, Debug)]
struct RowEntry {
    x0: i32,
    x1: i32,
    inside: bool,
}

/// The part of one window row on one segment: the span `[x0, x1)` clipped
/// to the window, and its listed cells `entries[start..end]`.
#[derive(Clone, Copy, Debug)]
struct RowSpan {
    seg: SegId,
    x0: i32,
    x1: i32,
    start: u32,
    end: u32,
}

/// Reusable transient state for [`LocalRegion::extract_masked_into`]: the
/// window rows' tagged entries, the inside cells, the fixpoint's chosen
/// runs and the counting-sort buckets. Owned by the `ScratchArena` so
/// steady-state extraction performs no heap allocations.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    /// Inside candidates in collection order: bottom row, then x. A flat
    /// vector, not a hash map: a demoted cell finds its entry on each row it
    /// spans by binary search on x, so extraction does no hashing.
    inside: Vec<(CellId, SiteRect)>,
    /// The listed cells of every window row, row by row, x-ordered within
    /// a row.
    entries: Vec<RowEntry>,
    /// The segment spans of every window row, row by row.
    spans: Vec<RowSpan>,
    /// `rows[lr]`: the first span and the first entry of local row `lr`,
    /// plus one past-the-end pair.
    rows: Vec<(u32, u32)>,
    /// Rows whose chosen run the next fixpoint round recomputes.
    dirty: Vec<bool>,
    blocked: Vec<(i32, i32)>,
    allowed: Vec<(i32, i32)>,
    chosen: Vec<Option<ChosenRun>>,
    /// Counting-sort buckets over the window width.
    counts: Vec<u32>,
    /// Indices into `inside` in `(x, y)` order.
    order: Vec<u32>,
    /// Emptied `LocalSeg::cells` lists of earlier regions, reused for the
    /// rows of the next one.
    row_lists: Vec<Vec<u32>>,
}

impl ExtractScratch {
    /// The free run of local row `lr` (global row `row`) nearest the
    /// doubled window center `center2`: the spans between the row's frozen
    /// entries and its segment or window ends, minus fence spans. Ties go
    /// to the leftmost run.
    fn best_run(
        &mut self,
        design: &Design,
        lr: usize,
        row: i32,
        center2: i32,
        target_region: Option<RegionId>,
    ) -> Option<ChosenRun> {
        let ExtractScratch {
            entries,
            spans,
            rows,
            blocked,
            allowed,
            ..
        } = self;
        let mut best: Option<(i64, ChosenRun)> = None;
        for span in &spans[rows[lr].0 as usize..rows[lr + 1].0 as usize] {
            let (sx0, sx1) = (span.x0, span.x1);
            // Fence clipping: members may only use their region's area,
            // everyone else must avoid every fence.
            blocked.clear();
            match target_region {
                Some(r) => {
                    // Block the complement of the region's rects.
                    allowed.clear();
                    allowed.extend(
                        design
                            .region(r)
                            .rects()
                            .iter()
                            .filter(|fr| fr.y <= row && row < fr.top())
                            .map(|fr| (fr.x.max(sx0), fr.right().min(sx1)))
                            .filter(|(a, b)| a < b),
                    );
                    allowed.sort_unstable();
                    let mut cursor = sx0;
                    for &(a, b) in allowed.iter() {
                        if a > cursor {
                            blocked.push((cursor, a));
                        }
                        cursor = cursor.max(b);
                    }
                    if cursor < sx1 {
                        blocked.push((cursor, sx1));
                    }
                }
                None => {
                    for fr in design.regions() {
                        for fr_rect in fr.rects() {
                            if fr_rect.y <= row && row < fr_rect.top() {
                                let a = fr_rect.x.max(sx0);
                                let b = fr_rect.right().min(sx1);
                                if a < b {
                                    blocked.push((a, b));
                                }
                            }
                        }
                    }
                }
            }
            blocked.sort_unstable();
            let mut consider = |x0: i32, x1: i32| {
                // Distance of the run to the (doubled) center.
                let d = if 2 * x0 <= center2 && center2 <= 2 * x1 {
                    0
                } else if 2 * x1 < center2 {
                    i64::from(center2) - i64::from(2 * x1)
                } else {
                    i64::from(2 * x0) - i64::from(center2)
                };
                if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                    best = Some((d, (Some(span.seg), x0, x1)));
                }
            };
            // Scores the pieces of the free run `[a, b)` outside the fence
            // spans, left to right.
            let mut free_run = |mut a: i32, b: i32| {
                for &(ba, bb) in blocked.iter() {
                    if bb <= a {
                        continue;
                    }
                    if ba >= b {
                        break;
                    }
                    if ba > a {
                        consider(a, ba);
                    }
                    a = a.max(bb);
                    if a >= b {
                        break;
                    }
                }
                if a < b {
                    consider(a, b);
                }
            };
            let mut cursor = sx0;
            for e in &entries[span.start as usize..span.end as usize] {
                if e.inside {
                    continue;
                }
                if e.x0 > cursor {
                    free_run(cursor, e.x0);
                }
                cursor = cursor.max(e.x1);
            }
            if cursor < sx1 {
                free_run(cursor, sx1);
            }
        }
        best.map(|(_, run)| run)
    }
}

impl LocalRegion {
    /// Extracts the local region for `window` from the current placement,
    /// for a target cell that belongs to no fence region.
    ///
    /// The returned region has leftmost/rightmost placements already
    /// computed. Rows of the window outside the floorplan are clipped.
    pub fn extract(design: &Design, state: &PlacementState, window: SiteRect) -> LocalRegion {
        Self::extract_masked(design, state, window, None)
    }

    /// Like [`LocalRegion::extract`] but for a target with the given fence
    /// membership: for a member the local segments are clipped to its
    /// region's rectangles, otherwise every fence area is excluded. Cells
    /// not fully inside the clipped runs are frozen, so only cells with
    /// compatible membership become local.
    pub fn extract_masked(
        design: &Design,
        state: &PlacementState,
        window: SiteRect,
        target_region: Option<RegionId>,
    ) -> LocalRegion {
        let mut region = LocalRegion::default();
        let mut scratch = ExtractScratch::default();
        region.extract_masked_into(&mut scratch, design, state, window, target_region);
        region
    }

    /// The steady-state extraction entry point: rebuilds `self` in place
    /// from `window`, reusing both the region's own buffers and the
    /// caller's [`ExtractScratch`] — zero heap allocations once warm.
    pub fn extract_masked_into(
        &mut self,
        scratch: &mut ExtractScratch,
        design: &Design,
        state: &PlacementState,
        window: SiteRect,
        target_region: Option<RegionId>,
    ) {
        scratch
            .row_lists
            .extend(self.rows.drain(..).flatten().map(|seg| {
                let mut cells = seg.cells;
                cells.clear();
                cells
            }));
        self.cells.clear();
        self.bottom_row = 0;
        let fp = design.floorplan();
        let r0 = window.y.max(0);
        let r1 = window.top().min(fp.num_rows());
        if r0 >= r1 || window.w <= 0 {
            return;
        }
        let h_w = (r1 - r0) as usize;
        // Doubled window-center x, for exact nearest-run comparisons.
        let center2 = 2 * window.x + window.w;

        // Collection: every listed cell of every window row, tagged inside
        // or frozen, with its footprint on the row. `cells_intersecting_*`
        // is a binary-search subslice of the segment's ordered list, so
        // this touches only cells near the window.
        let ExtractScratch {
            inside,
            entries,
            spans,
            rows,
            ..
        } = scratch;
        inside.clear();
        entries.clear();
        spans.clear();
        rows.clear();
        for row in r0..r1 {
            rows.push((spans.len() as u32, entries.len() as u32));
            let base = fp.row_segment_base(row).expect("row in range");
            for (idx, seg) in fp.segments_in_row(row).iter().enumerate() {
                let x0 = seg.x.max(window.x);
                let x1 = seg.right().min(window.right());
                if x0 >= x1 {
                    continue;
                }
                let seg_id = SegId::from_usize(base + idx);
                let start = entries.len() as u32;
                let (cells, extents) = state.cells_intersecting_with_extents(seg_id, x0, x1);
                for (&cell, &(cx0, cx1)) in cells.iter().zip(extents) {
                    let mut is_inside = false;
                    if window.x <= cx0 && cx1 <= window.right() {
                        let y = state.position(cell).expect("listed cell placed").y;
                        let rect = SiteRect::new(cx0, y, cx1 - cx0, design.cell(cell).height());
                        is_inside = window.contains_rect(&rect);
                        // A multi-row cell is listed on every row it spans;
                        // collect it on its bottom row only.
                        if is_inside && y == row {
                            inside.push((cell, rect));
                        }
                    }
                    entries.push(RowEntry {
                        x0: cx0,
                        x1: cx1,
                        inside: is_inside,
                    });
                }
                spans.push(RowSpan {
                    seg: seg_id,
                    x0,
                    x1,
                    start,
                    end: entries.len() as u32,
                });
            }
        }
        rows.push((spans.len() as u32, entries.len() as u32));

        // Fixpoint: choose runs, demote violating inside cells to frozen.
        // A demotion changes only the entries of the rows the cell spans,
        // so only those rows are solved again.
        scratch.chosen.clear();
        scratch.chosen.resize(h_w, None);
        scratch.dirty.clear();
        scratch.dirty.resize(h_w, true);
        loop {
            for lr in 0..h_w {
                if std::mem::take(&mut scratch.dirty[lr]) {
                    scratch.chosen[lr] =
                        scratch.best_run(design, lr, r0 + lr as i32, center2, target_region);
                }
            }
            // Demote any inside cell not contained in the chosen runs of
            // all rows it spans: its entries turn frozen and bound the runs
            // of those rows in the next round.
            let ExtractScratch {
                inside,
                entries,
                rows,
                dirty,
                chosen,
                ..
            } = &mut *scratch;
            let before = inside.len();
            inside.retain(|&(_, rect)| {
                let keep = rect.rows().all(|row| {
                    matches!(chosen[(row - r0) as usize],
                        Some((_, x0, x1)) if x0 <= rect.x && rect.right() <= x1)
                });
                if !keep {
                    for row in rect.rows() {
                        let lr = (row - r0) as usize;
                        let row_entries =
                            &mut entries[rows[lr].1 as usize..rows[lr + 1].1 as usize];
                        let k = row_entries.partition_point(|e| e.x0 < rect.x);
                        debug_assert!(row_entries[k].x0 == rect.x && row_entries[k].inside);
                        row_entries[k].inside = false;
                        dirty[lr] = true;
                    }
                }
                keep
            });
            if inside.len() == before {
                break;
            }
        }

        // Assemble: local cells (SoA, in (x, y, id) order) and per-row
        // ordered lists. `inside` is in (y, x) order, so a stable counting
        // sort on x yields (x, y) order; corners are distinct, so ids never
        // decide.
        let ExtractScratch {
            inside,
            counts,
            order,
            ..
        } = &mut *scratch;
        counts.clear();
        counts.resize(window.w as usize + 1, 0);
        for &(_, rect) in inside.iter() {
            counts[(rect.x - window.x) as usize + 1] += 1;
        }
        for k in 1..counts.len() {
            counts[k] += counts[k - 1];
        }
        order.clear();
        order.resize(inside.len(), 0);
        for (i, &(_, rect)) in inside.iter().enumerate() {
            let slot = &mut counts[(rect.x - window.x) as usize];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        for &i in order.iter() {
            let (id, rect) = inside[i as usize];
            self.cells.push(id, rect);
        }
        let row_lists = &mut scratch.row_lists;
        self.rows.extend(scratch.chosen.drain(..).map(|run| {
            run.map(|(seg, x0, x1)| LocalSeg {
                seg,
                x0,
                x1,
                cells: row_lists.pop().unwrap_or_default(),
            })
        }));
        // Populate row lists bottom-up; cells are x-sorted so lists are too.
        for i in 0..self.cells.len() {
            let (y, h) = (self.cells.y[i], self.cells.h[i]);
            for row in y..y + h {
                let lr = (row - r0) as usize;
                self.rows[lr]
                    .as_mut()
                    .expect("local cell rows have chosen runs")
                    .cells
                    .push(i as u32);
            }
        }
        // Record each cell's index within every row list it belongs to,
        // into the flattened position pool (prefix-summed by height).
        let mut start = 0u32;
        for i in 0..self.cells.len() {
            self.cells.pos_start.push(start);
            start += self.cells.h[i] as u32;
        }
        self.cells.pos_start.push(start);
        self.cells.pos_pool.resize(start as usize, 0);
        for (lr, row) in self.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            for (pos, &ci) in row.cells.iter().enumerate() {
                let k = lr - (self.cells.y[ci as usize] - r0) as usize;
                let slot = self.cells.pos_start[ci as usize] as usize + k;
                self.cells.pos_pool[slot] = pos as u32;
            }
        }
        self.bottom_row = r0;
        self.compute_leftmost_rightmost();
    }

    /// Number of (clipped) window rows.
    pub fn height(&self) -> usize {
        self.rows.len()
    }

    /// Local row index of cell `ci`'s bottom row.
    pub fn local_bottom(&self, ci: u32) -> usize {
        (self.cells.y[ci as usize] - self.bottom_row) as usize
    }

    /// The local row list a cell occupies on local row `lr`, with the
    /// cell's index in it.
    fn row_cells(&self, lr: usize) -> &[u32] {
        self.rows[lr]
            .as_ref()
            .map(|s| s.cells.as_slice())
            .unwrap_or(&[])
    }

    /// The immediate left neighbor of local cell `ci` on local row `lr`.
    pub fn left_neighbor_of(&self, ci: u32, lr: usize) -> Option<u32> {
        let k = self.cells.pos_in_row(ci, lr - self.local_bottom(ci)) as usize;
        k.checked_sub(1).map(|k| self.row_cells(lr)[k])
    }

    /// The immediate right neighbor of local cell `ci` on local row `lr`.
    pub fn right_neighbor_of(&self, ci: u32, lr: usize) -> Option<u32> {
        let k = self.cells.pos_in_row(ci, lr - self.local_bottom(ci)) as usize;
        self.row_cells(lr).get(k + 1).copied()
    }

    /// Computes `xL` and `xR` for every local cell (Figure 6): the legal
    /// placements with every cell as far left (right) as possible while
    /// keeping the current relative order in every row.
    pub fn compute_leftmost_rightmost(&mut self) {
        // Cells are x-sorted, which is a topological order of the
        // left-neighbor DAG (a left neighbor always has strictly smaller x).
        let n = self.cells.len() as u32;
        for ci in 0..n {
            let (y, h) = (self.cells.y[ci as usize], self.cells.h[ci as usize]);
            let mut x_left = i32::MIN;
            for row in y..y + h {
                let lr = (row - self.bottom_row) as usize;
                let bound = match self.left_neighbor_of(ci, lr) {
                    Some(p) => self.cells.x_left[p as usize] + self.cells.w[p as usize],
                    None => self.rows[lr].as_ref().expect("occupied row").x0,
                };
                x_left = x_left.max(bound);
            }
            self.cells.x_left[ci as usize] = x_left;
            debug_assert!(x_left <= self.cells.x[ci as usize]);
        }
        for ci in (0..n).rev() {
            let (y, h, w) = (
                self.cells.y[ci as usize],
                self.cells.h[ci as usize],
                self.cells.w[ci as usize],
            );
            let mut x_right = i32::MAX;
            for row in y..y + h {
                let lr = (row - self.bottom_row) as usize;
                let bound = match self.right_neighbor_of(ci, lr) {
                    Some(n) => self.cells.x_right[n as usize],
                    None => self.rows[lr].as_ref().expect("occupied row").x1,
                };
                x_right = x_right.min(bound);
            }
            self.cells.x_right[ci as usize] = x_right - w;
            debug_assert!(self.cells.x_right[ci as usize] >= self.cells.x[ci as usize]);
        }
    }

    /// Looks up a local cell by design id (linear; test/diagnostic use).
    pub fn local_index_of(&self, id: CellId) -> Option<u32> {
        self.cells
            .id
            .iter()
            .position(|&c| c == id)
            .map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_db::DesignBuilder;
    use mrl_geom::SitePoint;
    use proptest::prelude::*;

    /// Builds a design with the given movable cells `(w, h)` placed at the
    /// given positions on a `rows x width` floorplan.
    fn placed_design(
        rows: i32,
        width: i32,
        cells: &[(i32, i32, i32, i32)], // (w, h, x, y)
    ) -> (Design, PlacementState, Vec<CellId>) {
        let mut b = DesignBuilder::new(rows, width);
        let ids: Vec<CellId> = cells
            .iter()
            .enumerate()
            .map(|(i, &(w, h, ..))| b.add_cell(format!("c{i}"), w, h))
            .collect();
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        for (&id, &(_, _, x, y)) in ids.iter().zip(cells) {
            state.place(&design, id, SitePoint::new(x, y)).unwrap();
        }
        (design, state, ids)
    }

    #[test]
    fn empty_window_yields_empty_region() {
        let (design, state, _) = placed_design(2, 10, &[]);
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 5, 4, 2));
        assert!(r.rows.is_empty());
        assert!(r.cells.is_empty());
    }

    #[test]
    fn fully_inside_cells_are_local() {
        let (design, state, ids) = placed_design(3, 20, &[(3, 1, 5, 1), (2, 2, 9, 0)]);
        let r = LocalRegion::extract(&design, &state, SiteRect::new(2, 0, 14, 3));
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.bottom_row, 0);
        assert!(r.local_index_of(ids[0]).is_some());
        assert!(r.local_index_of(ids[1]).is_some());
        // Row 1 contains both cells ordered by x.
        let row1 = r.rows[1].as_ref().unwrap();
        assert_eq!(row1.cells.len(), 2);
        assert_eq!(r.cells.id[row1.cells[0] as usize], ids[0]);
    }

    #[test]
    fn straddling_cell_is_frozen_and_splits_row() {
        // Cell at x=8..14 sticks out of the window (window right edge 12).
        let (design, state, ids) = placed_design(1, 30, &[(6, 1, 8, 0), (2, 1, 2, 0)]);
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, 12, 1));
        // The frozen cell bounds the local segment on the right.
        let seg = r.rows[0].as_ref().unwrap();
        assert_eq!((seg.x0, seg.x1), (0, 8));
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells.id[0], ids[1]);
    }

    #[test]
    fn figure3_like_cell_beyond_divider_is_excluded() {
        // Window [0, 20); a frozen straddler at x=18..24 splits row 0 into
        // [0,18). A second run would exist only if another divider existed;
        // here, place a divider in the middle: frozen cell c_mid is taller
        // than the window so it is not fully inside (y-span).
        let (design, state, ids) = placed_design(
            3,
            40,
            &[
                (4, 3, 8, 0),  // tall divider, fully inside in x, spans all rows
                (2, 1, 3, 0),  // left of divider
                (2, 1, 14, 0), // right of divider
            ],
        );
        // Window covers rows 0..2 only, so the 3-row divider is frozen.
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, 20, 2));
        let seg = r.rows[0].as_ref().unwrap();
        // Center x = 10; runs are [0,8) and [12,20); distance of [0,8) is
        // 2*10-16 = 4, of [12,20) is 24-20 = 4 — tie broken to the first,
        // i.e. [0,8).
        assert_eq!((seg.x0, seg.x1), (0, 8));
        // The cell on the non-chosen run is excluded despite being inside W.
        assert!(r.local_index_of(ids[2]).is_none());
        assert!(r.local_index_of(ids[1]).is_some());
    }

    #[test]
    fn multi_row_cell_in_non_chosen_run_is_demoted_fixpoint() {
        // Row 0 has a frozen divider; row 1 does not. A double-row cell to
        // the right of the divider is inside W and inside row 1's chosen
        // run but outside row 0's chosen run -> must be demoted, and its
        // footprint then bounds row 1's run.
        let (design, state, ids) = placed_design(
            3,
            40,
            &[
                (4, 3, 8, 0),  // tall frozen divider (rows 0..3)
                (2, 2, 14, 0), // double-row cell right of divider
                (2, 1, 3, 1),  // plain local cell left of divider on row 1
            ],
        );
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, 20, 2));
        assert!(r.local_index_of(ids[1]).is_none(), "demoted");
        assert!(r.local_index_of(ids[2]).is_some());
        // Row 1's run is bounded by the divider (the demoted cell lies
        // right of it, beyond the chosen run).
        let seg1 = r.rows[1].as_ref().unwrap();
        assert_eq!((seg1.x0, seg1.x1), (0, 8));
    }

    #[test]
    fn window_clips_to_floorplan_rows() {
        let (design, state, _) = placed_design(2, 10, &[]);
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, -3, 10, 8));
        assert_eq!(r.bottom_row, 0);
        assert_eq!(r.height(), 2);
    }

    #[test]
    fn figure6_leftmost_rightmost_single_row() {
        // Segment [0, 12); cells at 3 (w2) and 7 (w3).
        let (design, state, ids) = placed_design(1, 12, &[(2, 1, 3, 0), (3, 1, 7, 0)]);
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, 12, 1));
        let a = r.local_index_of(ids[0]).unwrap() as usize;
        let b = r.local_index_of(ids[1]).unwrap() as usize;
        assert_eq!((r.cells.x_left[a], r.cells.x_right[a]), (0, 12 - 3 - 2));
        assert_eq!((r.cells.x_left[b], r.cells.x_right[b]), (2, 12 - 3));
    }

    #[test]
    fn figure6_leftmost_rightmost_with_multi_row_coupling() {
        // Rows 0-1, width 12.
        // row1:  m(2x2)@4  s(2x1)@8
        // row0:  a(3x1)@0  m
        let (design, state, ids) =
            placed_design(2, 12, &[(2, 2, 4, 0), (2, 1, 8, 1), (3, 1, 0, 0)]);
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, 12, 2));
        let m = r.local_index_of(ids[0]).unwrap() as usize;
        let s = r.local_index_of(ids[1]).unwrap() as usize;
        let a = r.local_index_of(ids[2]).unwrap() as usize;
        // Leftmost: a -> 0, m -> max(seg0 after a = 3, seg1 start 0) = 3,
        // s -> m.xL + 2 = 5.
        assert_eq!(r.cells.x_left[a], 0);
        assert_eq!(r.cells.x_left[m], 3);
        assert_eq!(r.cells.x_left[s], 5);
        // Rightmost: s -> 10, m -> min(12, s.xR = 10) - 2 = 8, a -> m.xR - 3 = 5.
        assert_eq!(r.cells.x_right[s], 10);
        assert_eq!(r.cells.x_right[m], 8);
        assert_eq!(r.cells.x_right[a], 5);
    }

    #[test]
    fn neighbors_follow_row_lists() {
        let (design, state, ids) =
            placed_design(2, 12, &[(2, 2, 4, 0), (2, 1, 8, 1), (3, 1, 0, 0)]);
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, 12, 2));
        let m = r.local_index_of(ids[0]).unwrap();
        let s = r.local_index_of(ids[1]).unwrap();
        let a = r.local_index_of(ids[2]).unwrap();
        assert_eq!(r.left_neighbor_of(m, 0), Some(a));
        assert_eq!(r.left_neighbor_of(m, 1), None);
        assert_eq!(r.right_neighbor_of(m, 1), Some(s));
        assert_eq!(r.right_neighbor_of(m, 0), None);
        assert_eq!(r.left_neighbor_of(s, 1), Some(m));
    }

    #[test]
    fn blockages_bound_local_segments() {
        let mut b = DesignBuilder::new(1, 20);
        let c = b.add_cell("c", 2, 1);
        b.add_blockage(SiteRect::new(10, 0, 2, 1));
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        state.place(&design, c, SitePoint::new(2, 0)).unwrap();
        let r = LocalRegion::extract(&design, &state, SiteRect::new(0, 0, 20, 1));
        // Center 10 falls on the blockage; runs [0,10) and [12,20):
        // distance of [0,10) is 0 (2*10 <= 20 <= 2*10? 20 == 20 yes).
        let seg = r.rows[0].as_ref().unwrap();
        assert_eq!((seg.x0, seg.x1), (0, 10));
        assert_eq!(r.cells.len(), 1);
    }

    #[test]
    fn region_reuse_matches_fresh_extraction() {
        let (design, state, _) = placed_design(
            2,
            30,
            &[(2, 2, 4, 0), (2, 1, 8, 1), (3, 1, 0, 0), (2, 1, 20, 0)],
        );
        let mut region = LocalRegion::default();
        let mut scratch = ExtractScratch::default();
        // The row lists a region holds, as (address, capacity) pairs.
        let buffers = |r: &LocalRegion| {
            let mut b: Vec<(usize, usize)> = r
                .rows
                .iter()
                .flatten()
                .map(|s| (s.cells.as_ptr() as usize, s.cells.capacity()))
                .collect();
            b.sort_unstable();
            b
        };
        for window in [
            SiteRect::new(0, 0, 12, 2),
            SiteRect::new(15, 0, 10, 1),
            SiteRect::new(0, 0, 30, 2),
            SiteRect::new(25, 1, 4, 1),
        ] {
            region.extract_masked_into(&mut scratch, &design, &state, window, None);
            let fresh = LocalRegion::extract(&design, &state, window);
            assert_eq!(region, fresh, "window {window:?}");
            // Extracting the same window again reuses the same row lists.
            // Extra capacity marks them: a fresh list would not have it.
            for seg in region.rows.iter_mut().flatten() {
                seg.cells.reserve_exact(64);
            }
            let first = buffers(&region);
            region.extract_masked_into(&mut scratch, &design, &state, window, None);
            assert_eq!(region, fresh, "window {window:?}, second extraction");
            assert_eq!(
                buffers(&region),
                first,
                "window {window:?}: row lists reallocated"
            );
        }
    }

    /// The extraction before the frozen-run rewrite, kept verbatim as the
    /// oracle: per row and segment the windowed gaps unioned with the
    /// inside cells' spans, a full re-pass fixpoint, and a tuple sort.
    fn reference_extract(
        design: &Design,
        state: &PlacementState,
        window: SiteRect,
        target_region: Option<RegionId>,
    ) -> LocalRegion {
        let mut region = LocalRegion::default();
        let fp = design.floorplan();
        let r0 = window.y.max(0);
        let r1 = window.top().min(fp.num_rows());
        if r0 >= r1 || window.w <= 0 {
            return region;
        }
        let h_w = (r1 - r0) as usize;
        let center2 = 2 * window.x + window.w;
        let mut inside: Vec<(CellId, SiteRect)> = Vec::new();
        for row in r0..r1 {
            let base = fp.row_segment_base(row).expect("row in range");
            for (idx, seg) in fp.segments_in_row(row).iter().enumerate() {
                let x0 = seg.x.max(window.x);
                let x1 = seg.right().min(window.right());
                if x0 >= x1 {
                    continue;
                }
                let seg_id = SegId::from_usize(base + idx);
                for &cell in state.cells_intersecting(seg_id, x0, x1) {
                    let rect = state.rect_of(design, cell).expect("listed cell placed");
                    if rect.y.max(r0) != row {
                        continue;
                    }
                    if window.contains_rect(&rect) {
                        inside.push((cell, rect));
                    }
                }
            }
        }
        let mut chosen: Vec<Option<ChosenRun>>;
        loop {
            chosen = vec![None; h_w];
            for row in r0..r1 {
                let mut best: Option<(i64, ChosenRun)> = None;
                for (idx, seg) in fp.segments_in_row(row).iter().enumerate() {
                    let sx0 = seg.x.max(window.x);
                    let sx1 = seg.right().min(window.right());
                    if sx0 >= sx1 {
                        continue;
                    }
                    let base = fp.row_segment_base(row).expect("row in range");
                    let seg_id = SegId::from_usize(base + idx);
                    let mut free: Vec<(i32, i32)> = state
                        .free_gaps_in(seg_id, sx0, sx1)
                        .iter()
                        .filter_map(|&(g0, g1)| {
                            let (a, b) = (g0.max(sx0), g1.min(sx1));
                            (a < b).then_some((a, b))
                        })
                        .collect();
                    for &(_, rect) in inside.iter() {
                        if rect.y <= row && row < rect.top() {
                            let (a, b) = (rect.x.max(sx0), rect.right().min(sx1));
                            if a < b {
                                free.push((a, b));
                            }
                        }
                    }
                    free.sort_unstable();
                    let mut blocked: Vec<(i32, i32)> = Vec::new();
                    match target_region {
                        Some(r) => {
                            let mut allowed: Vec<(i32, i32)> = design
                                .region(r)
                                .rects()
                                .iter()
                                .filter(|fr| fr.y <= row && row < fr.top())
                                .map(|fr| (fr.x.max(sx0), fr.right().min(sx1)))
                                .filter(|(a, b)| a < b)
                                .collect();
                            allowed.sort_unstable();
                            let mut cursor = sx0;
                            for &(a, b) in allowed.iter() {
                                if a > cursor {
                                    blocked.push((cursor, a));
                                }
                                cursor = cursor.max(b);
                            }
                            if cursor < sx1 {
                                blocked.push((cursor, sx1));
                            }
                        }
                        None => {
                            for fr in design.regions() {
                                for fr_rect in fr.rects() {
                                    if fr_rect.y <= row && row < fr_rect.top() {
                                        let a = fr_rect.x.max(sx0);
                                        let b = fr_rect.right().min(sx1);
                                        if a < b {
                                            blocked.push((a, b));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let mut merged: Vec<(i32, i32)> = Vec::new();
                    for &(a, b) in free.iter() {
                        match merged.last_mut() {
                            Some((_, e)) if *e >= a => *e = (*e).max(b),
                            _ => merged.push((a, b)),
                        }
                    }
                    blocked.sort_unstable();
                    let mut consider = |x0: i32, x1: i32| {
                        let d = if 2 * x0 <= center2 && center2 <= 2 * x1 {
                            0
                        } else if 2 * x1 < center2 {
                            i64::from(center2) - i64::from(2 * x1)
                        } else {
                            i64::from(2 * x0) - i64::from(center2)
                        };
                        if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                            best = Some((d, (Some(seg_id), x0, x1)));
                        }
                    };
                    for &(mut a, b) in merged.iter() {
                        for &(ba, bb) in blocked.iter() {
                            if bb <= a {
                                continue;
                            }
                            if ba >= b {
                                break;
                            }
                            if ba > a {
                                consider(a, ba);
                            }
                            a = a.max(bb);
                            if a >= b {
                                break;
                            }
                        }
                        if a < b {
                            consider(a, b);
                        }
                    }
                }
                chosen[(row - r0) as usize] = best.map(|(_, run)| run);
            }
            let before = inside.len();
            inside.retain(|&(_, rect)| {
                rect.rows().all(|row| {
                    if row < r0 || row >= r1 {
                        return false;
                    }
                    match &chosen[(row - r0) as usize] {
                        Some((_, x0, x1)) => *x0 <= rect.x && rect.right() <= *x1,
                        None => false,
                    }
                })
            });
            if inside.len() == before {
                break;
            }
        }
        let mut sorted: Vec<(SiteRect, CellId)> =
            inside.iter().map(|&(id, rect)| (rect, id)).collect();
        sorted.sort_unstable_by_key(|&(rect, id)| (rect.x, rect.y, id));
        for &(rect, id) in sorted.iter() {
            region.cells.push(id, rect);
        }
        region.rows.extend(chosen.into_iter().map(|run| {
            run.map(|(seg, x0, x1)| LocalSeg {
                seg,
                x0,
                x1,
                cells: Vec::new(),
            })
        }));
        for i in 0..region.cells.len() {
            let (y, h) = (region.cells.y[i], region.cells.h[i]);
            for row in y..y + h {
                let lr = (row - r0) as usize;
                region.rows[lr]
                    .as_mut()
                    .expect("local cell rows have chosen runs")
                    .cells
                    .push(i as u32);
            }
        }
        let mut start = 0u32;
        for i in 0..region.cells.len() {
            region.cells.pos_start.push(start);
            start += region.cells.h[i] as u32;
        }
        region.cells.pos_start.push(start);
        region.cells.pos_pool.resize(start as usize, 0);
        for (lr, row) in region.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            for (pos, &ci) in row.cells.iter().enumerate() {
                let k = lr - (region.cells.y[ci as usize] - r0) as usize;
                let slot = region.cells.pos_start[ci as usize] as usize + k;
                region.cells.pos_pool[slot] = pos as u32;
            }
        }
        region.bottom_row = r0;
        region.compute_leftmost_rightmost();
        region
    }

    /// A random placed design for the extraction oracle: blockages, one or
    /// two fences, and cells 1–3 rows tall, about a fifth of them fence
    /// members. Cells are dropped at random sites and kept where they fit
    /// (rails ignored, so multi-row cells land on any row).
    fn random_design(seed: u64) -> (Design, PlacementState) {
        use rand::rngs::SmallRng;
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows = rng.gen_range(3..9);
        let width = rng.gen_range(16..48);
        let mut b = DesignBuilder::new(rows, width);
        for _ in 0..rng.gen_range(0..3) {
            let (w, h) = (rng.gen_range(1..4), rng.gen_range(1..3));
            let x = rng.gen_range(0..width - w);
            let y = rng.gen_range(0..rows - h + 1);
            b.add_blockage(SiteRect::new(x, y, w, h));
        }
        // Fences in disjoint vertical bands, so they never overlap.
        let fences: Vec<RegionId> = (0..rng.gen_range(1..3))
            .map(|k| {
                let band = width / 2;
                let x = k * band + rng.gen_range(0..band / 2);
                let w = rng.gen_range(2..band / 2 + 1);
                let y = rng.gen_range(0..rows - 1);
                let h = rng.gen_range(1..rows - y + 1);
                b.add_region(format!("f{k}"), vec![SiteRect::new(x, y, w, h)])
            })
            .collect();
        // Movable area up to 30–80% of the rows, less the largest possible
        // blockage area.
        let budget = rows * width * rng.gen_range(30..80) / 100 - 12;
        let mut ids = Vec::new();
        let mut area = 0;
        loop {
            let (w, h) = (rng.gen_range(1..5), [1, 1, 1, 2, 2, 3][rng.gen_range(0..6)]);
            if area + w * h > budget {
                break;
            }
            area += w * h;
            let id = b.add_cell(format!("c{}", ids.len()), w, h);
            if rng.gen_range(0..5) == 0 {
                b.assign_region(id, fences[rng.gen_range(0..fences.len())]);
            }
            ids.push(id);
        }
        let design = b.finish().unwrap();
        let mut state = PlacementState::new(&design);
        for &id in &ids {
            for _ in 0..8 {
                let at = SitePoint::new(rng.gen_range(0..width), rng.gen_range(0..rows));
                if state.place_ignoring_rails(&design, id, at).is_ok() {
                    break;
                }
            }
        }
        (design, state)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The frozen-run extraction equals the reference on random designs
        /// and windows — clipped by the floorplan or hanging off it, for
        /// fence members and non-members — with one scratch reused across
        /// all windows.
        #[test]
        fn extraction_matches_reference(seed in 0u64..1_000_000) {
            use rand::rngs::SmallRng;
            use rand::{Rng as _, SeedableRng as _};
            let (design, state) = random_design(seed);
            let fp = design.floorplan();
            let (rows, width) = (fp.num_rows(), fp.bounds().right());
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
            let mut region = LocalRegion::default();
            let mut scratch = ExtractScratch::default();
            for _ in 0..24 {
                let w = rng.gen_range(4..width + 8);
                let h = rng.gen_range(1..rows + 3);
                let x = rng.gen_range(-6..width - 2);
                let y = rng.gen_range(-2..rows);
                let window = SiteRect::new(x, y, w, h);
                let k = rng.gen_range(0..design.regions().len() + 1);
                let target_region = (k > 0).then(|| RegionId::from_usize(k - 1));
                region.extract_masked_into(&mut scratch, &design, &state, window, target_region);
                let expected = reference_extract(&design, &state, window, target_region);
                prop_assert_eq!(&region, &expected, "window {:?}, fence {:?}", window, target_region);
            }
        }
    }
}
